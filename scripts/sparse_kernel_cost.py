#!/usr/bin/env python3
"""Cost of the sparse-path observation kernels at the ratings shape.

Builds a seeded m x n set of about --nnz entries, by default 6040 x 3706
with 500k entries like the MovieLens-1M training half: per-row counts follow
lognormal weights, columns are uniform within a row.  Prints the time of the
first sparse product on its own line, since it pays the one-off work (the
scipy import and the set's row pointers), and then, for each d, the
steady-state best-of-N milliseconds per call of ``masked_residual``,
``sp_dot`` and ``sp_tdot``, and of the FN spectral start
``palm.initial_factors`` at rank bound d (its products run at width d + 10).
The shape must take the sparse path (more than 2**16 cells, below density
1/3).  Run with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), as the
benchmark does.
"""

import argparse
import sys
import time
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schattenmc import palm, sparse_obs
from schattenmc.quasinorm import Regularizer
from schattenmc.sparse_obs import SparseObservations, masked_residual, sp_dot, sp_tdot


def ratings_like(m, n, nnz, seed):
    """Seeded observations with lognormal per-row counts (at most n each)."""
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(size=m)
    counts = np.minimum(rng.multinomial(nnz, weights / weights.sum()), n)
    cols = [np.sort(rng.choice(n, c, replace=False)) for c in counts.tolist()]
    rows = np.repeat(np.arange(m), counts)
    return SparseObservations(m, n, rows, np.concatenate(cols), rng.standard_normal(rows.size))


def best_ms(fn, number, repeat):
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=6040)
    ap.add_argument("--n", type=int, default=3706)
    ap.add_argument("--nnz", type=int, default=500_000)
    ap.add_argument("--ds", type=int, nargs="+", default=[10, 20])
    ap.add_argument("--number", type=int, default=5, help="calls per timing")
    ap.add_argument("--repeat", type=int, default=5, help="timings; the best is printed")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    obs = ratings_like(args.m, args.n, args.nnz, args.seed)
    if sparse_obs._dense_path(obs):
        ap.error(f"{args.m} x {args.n} with {obs.nnz} entries takes the dense path")
    t0 = time.perf_counter()
    sp_dot(obs, obs.values, np.ones((obs.n, 1)))
    first_ms = (time.perf_counter() - t0) * 1e3
    print(f"{obs.m} x {obs.n}, {obs.nnz} entries, most in one row {obs.row_counts.max()}")
    print(f"first sparse product, d = 1 (scipy import, row pointers): {first_ms:.1f} ms")
    print("| d | residual ms | sp_dot ms | sp_tdot ms | spectral start ms |")
    print("|---|---|---|---|---|")
    rng = np.random.default_rng(args.seed + 1)
    for d in args.ds:
        u, v = rng.standard_normal((obs.m, d)), rng.standard_normal((obs.n, d))
        r = masked_residual(u, v, obs)
        cfg = palm.SolverConfig(reg=Regularizer.FN, lam=1.0, d=d, seed=args.seed)
        costs = [
            best_ms(lambda: masked_residual(u, v, obs), args.number, args.repeat),
            best_ms(lambda: sp_dot(obs, r, v), args.number, args.repeat),
            best_ms(lambda: sp_tdot(obs, r, u), args.number, args.repeat),
            best_ms(lambda: palm.initial_factors(obs, cfg), args.number, args.repeat),
        ]
        print(f"| {d} | " + " | ".join(f"{c:.3g}" for c in costs) + " |")


if __name__ == "__main__":
    main()
