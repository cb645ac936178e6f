"""Randomized numerical checks of the quasi-norm identities.

Each property draws a seeded corpus of random low-rank matrices and records
its worst normalized violation; a property passes when that maximum stays
within tolerance.  ``tolerance_scale`` exists as a testing hook to force
failures (scale 0 makes any nonzero violation fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm, singular_values, thin_svd, trim_singular_values
from .quasinorm import (
    FactorPair,
    Regularizer,
    factor_surrogate_value,
    surrogate_values_batch,
    trace_power,
)
from .rng import philox_rng, spawn_seeds

__all__ = ["PropertyResult", "run_property_suite", "random_low_rank"]

_TOLERANCES = {
    "fn_attainment": 1e-8,
    "bin_attainment": 1e-8,
    "fn_factorization_lower_bound": 1e-10,
    "bin_factorization_lower_bound": 1e-10,
    "sandwich_fn_sqrt_rank": 1e-9,
    "sandwich_nuclear_fn_bin_rank": 1e-9,
    "trace_power_rotation": 1e-10,
    "nuclear_norm_factorization": 1e-9,
    "absolute_homogeneity": 1e-10,
}


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    tolerance: float
    max_violation: float
    passed: bool


def random_low_rank(rng, m: int, n: int, rank: int) -> np.ndarray:
    a = rng.standard_normal((m, rank))
    b = rng.standard_normal((n, rank))
    return a @ b.T


def _random_orthogonal_stack(rng, batch: int, k: int) -> np.ndarray:
    """Products of random Givens rotations; orthogonal, deterministic per rng."""
    q = np.broadcast_to(np.eye(k), (batch, k, k)).copy()
    for p in range(k - 1):
        for j in range(p + 1, k):
            theta = rng.uniform(0.0, 2.0 * math.pi, size=batch)
            c = np.cos(theta)[:, None]
            s = np.sin(theta)[:, None]
            cp = q[:, :, p].copy()
            cj = q[:, :, j].copy()
            q[:, :, p] = c * cp - s * cj
            q[:, :, j] = s * cp + c * cj
    return q


def _mixing_stack(rng, batch: int, k: int):
    """Random invertible k x k mixings with condition number <= 100.

    Returns (g, g_inv_t) so that (u @ g) @ (v @ g_inv_t).T == u @ v.T.
    """
    r1 = _random_orthogonal_stack(rng, batch, k)
    r2 = _random_orthogonal_stack(rng, batch, k)
    s = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(batch, k)))
    g = np.matmul(r1 * s[:, None, :], r2)
    g_inv_t = np.matmul(r1 / s[:, None, :], r2)
    return g, g_inv_t


def _corpus(rng, trials, shape, max_rank):
    m, n = shape
    for _ in range(trials):
        rank = int(rng.integers(1, max_rank + 1))
        yield rank, random_low_rank(rng, m, n, rank)


def _optimal_pair_from_svd(f, reg: Regularizer, d: int) -> FactorPair:
    s = trim_singular_values(f.singular_values)
    pow_u, pow_v = reg.split
    u = f.left[:, :d] * s[:d] ** pow_u
    v = f.right[:, :d] * s[:d] ** pow_v
    return FactorPair(u, v)


def _quasi_norms_from_sigma(s: np.ndarray):
    s = s[s > 0.0]
    nuc = float(np.sum(s))
    fn = float(np.sum(s ** (2.0 / 3.0)) ** 1.5)
    bn = float(np.sum(np.sqrt(s)) ** 2)
    return nuc, fn, bn


def run_property_suite(
    trials: int,
    seed: int,
    shape=(30, 20),
    max_rank: int = 8,
    factorizations_per_matrix: int = 100,
    tolerance_scale: float = 1.0,
) -> list[PropertyResult]:
    """Run every property over ``trials`` seeded random matrices."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seeds = spawn_seeds(seed, 6)
    results = []

    def record(name, worst, n_trials):
        tol = _TOLERANCES[name] * tolerance_scale
        results.append(PropertyResult(name, n_trials, tol, worst, worst <= tol))

    # attainment: the surrogate at the optimal factorization equals the norm
    worst = {Regularizer.FN: 0.0, Regularizer.BIN: 0.0}
    rng = philox_rng(seeds[0])
    for rank, x in _corpus(rng, trials, shape, max_rank):
        f = thin_svd(x)
        _, fn, bn = _quasi_norms_from_sigma(trim_singular_values(f.singular_values))
        ref = {Regularizer.FN: fn, Regularizer.BIN: bn}
        for reg in Regularizer:
            pair = _optimal_pair_from_svd(f, reg, rank)
            got = factor_surrogate_value(pair.u, pair.v, reg)
            rel = abs(got - ref[reg]) / ref[reg]
            worst[reg] = max(worst[reg], rel)
    record("fn_attainment", worst[Regularizer.FN], trials)
    record("bin_attainment", worst[Regularizer.BIN], trials)

    # lower bound: any feasible factorization scores at least the norm
    worst = {Regularizer.FN: -math.inf, Regularizer.BIN: -math.inf}
    rng = philox_rng(seeds[1])
    for rank, x in _corpus(rng, trials, shape, max_rank):
        f = thin_svd(x)
        _, fn, bn = _quasi_norms_from_sigma(trim_singular_values(f.singular_values))
        ref = {Regularizer.FN: fn, Regularizer.BIN: bn}
        g, g_inv_t = _mixing_stack(rng, factorizations_per_matrix, rank)
        for reg in Regularizer:
            pair = _optimal_pair_from_svd(f, reg, rank)
            us = np.matmul(pair.u[None], g)
            vs = np.matmul(pair.v[None], g_inv_t)
            vals = surrogate_values_batch(us, vs, reg)
            # positive when a factorization dips below the quasi-norm
            violation = float(np.max((ref[reg] - vals) / ref[reg]))
            worst[reg] = max(worst[reg], violation)
    record("fn_factorization_lower_bound", worst[Regularizer.FN], trials)
    record("bin_factorization_lower_bound", worst[Regularizer.BIN], trials)

    # sandwich inequalities against the nuclear norm
    worst_fn = -math.inf
    worst_chain = -math.inf
    rng = philox_rng(seeds[2])
    for rank, x in _corpus(rng, trials, shape, max_rank):
        nuc, fn, bn = _quasi_norms_from_sigma(singular_values(x))
        worst_fn = max(
            worst_fn,
            (nuc - fn) / nuc,
            (fn - math.sqrt(rank) * nuc) / nuc,
        )
        worst_chain = max(
            worst_chain,
            (nuc - fn) / nuc,
            (fn - bn) / nuc,
            (bn - rank * nuc) / nuc,
        )
    record("sandwich_fn_sqrt_rank", worst_fn, trials)
    record("sandwich_nuclear_fn_bin_rank", worst_chain, trials)

    # diagonal trace powers can only grow under orthogonal conjugation
    worst = -math.inf
    rng = philox_rng(seeds[3])
    k = min(shape)
    for _ in range(trials):
        diag = np.sort(np.abs(rng.standard_normal(k)) + 0.01)[::-1]
        sig = np.diag(diag)
        a = _random_orthogonal_stack(rng, 1, k)[0]
        rotated = a @ sig @ a.T
        for p in (0.5, 2.0 / 3.0):
            base = trace_power(sig, p)
            violation = (base - trace_power(rotated, p)) / base
            worst = max(worst, violation)
    record("trace_power_rotation", worst, trials)

    # nuclear norm equals ||U||_F ||V||_F at the square-root-split factors
    worst = 0.0
    rng = philox_rng(seeds[4])
    for rank, x in _corpus(rng, trials, shape, max_rank):
        f = thin_svd(x)
        s = trim_singular_values(f.singular_values)
        nuc = float(np.sum(s))
        root = np.sqrt(s[:rank])
        u = f.left[:, :rank] * root
        v = f.right[:, :rank] * root
        got = frobenius_norm(u) * frobenius_norm(v)
        worst = max(worst, abs(got - nuc) / nuc)
    record("nuclear_norm_factorization", worst, trials)

    # absolute homogeneity of both quasi-norms
    worst = 0.0
    rng = philox_rng(seeds[5])
    for rank, x in _corpus(rng, trials, shape, max_rank):
        _, fn, bn = _quasi_norms_from_sigma(singular_values(x))
        for a in (-2.0, 0.5):
            _, fn_a, bn_a = _quasi_norms_from_sigma(singular_values(a * x))
            worst = max(
                worst,
                abs(fn_a - abs(a) * fn) / (abs(a) * fn),
                abs(bn_a - abs(a) * bn) / (abs(a) * bn),
            )
    record("absolute_homogeneity", worst, trials)

    return results
