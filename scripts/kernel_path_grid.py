#!/usr/bin/env python3
"""Cost of both observation-kernel paths over a shape x density x d grid.

For each point, times two ``masked_residual`` calls plus one ``sp_dot`` and
one ``sp_tdot`` (one solver iteration's kernel work) with the dense path and
then the sparse path forced, best of 3 x 30 calls, and prints a markdown
table with the path the rule in ``sparse_obs`` picks.  The last line counts
the points where that pick is slower than the other path by more than 5%.
Run with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), as the benchmark does.
"""

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schattenmc import sparse_obs
from schattenmc.sparse_obs import SparseObservations, masked_residual, sample_mask, sp_dot, sp_tdot

SHAPES = [(20, 20), (50, 50), (100, 100), (200, 150), (256, 256)]
DENSITIES = [1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4]
DS = [1, 6, 30, 100]


def kernel_cost_us(obs, u, v, dense):
    rule = sparse_obs._dense_path
    sparse_obs._dense_path = lambda o: dense

    def iteration():
        r = masked_residual(u, v, obs)
        masked_residual(u, v, obs)
        sp_dot(obs, r, v)
        sp_tdot(obs, r, u)

    try:
        return min(timeit.repeat(iteration, number=30, repeat=3)) / 30 * 1e6
    finally:
        sparse_obs._dense_path = rule


def main():
    rng = np.random.default_rng(0)
    print("| m x n | density | nnz | d | dense µs | sparse µs | rule picks | pick vs other |")
    print("|---|---|---|---|---|---|---|---|")
    points = slower = 0
    for m, n in SHAPES:
        for density in DENSITIES:
            rows, cols = sample_mask(m, n, density, 1)
            obs = SparseObservations(m, n, rows, cols, rng.standard_normal(rows.size))
            for d in (d for d in DS if d <= min(m, n)):
                u, v = rng.standard_normal((m, d)), rng.standard_normal((n, d))
                dense_us = kernel_cost_us(obs, u, v, True)
                sparse_us = kernel_cost_us(obs, u, v, False)
                pick = sparse_obs._dense_path(obs)
                ratio = dense_us / sparse_us if pick else sparse_us / dense_us
                points += 1
                slower += ratio > 1.05
                print(
                    f"| {m}x{n} | 1/{round(1 / density)} | {obs.nnz} | {d} | {dense_us:.1f} "
                    f"| {sparse_us:.1f} | {'dense' if pick else 'sparse'} | {ratio - 1:+.0%} |"
                )
    print(f"\n{slower} of {points} picks slower than the other path by more than 5%")


if __name__ == "__main__":
    main()
