"""Randomized numerical checks of the quasi-norm identities.

One seeded loop draws one corpus of random low-rank 30 x 20 matrices (rank
1 to 8) and takes one thin SVD of each.  Its trimmed spectrum and optimal
factor pairs feed every property but homogeneity, whose own SVD of the
scaled matrix is what it tests.  Each property records its worst normalized
violation; a property passes when that maximum stays within tolerance.

Random orthogonal matrices are Householder QR factors of Gaussian stacks,
with column signs set so that R has a positive diagonal; that makes them
exactly Haar-distributed (Mezzadri, "How to generate random matrices from
the classical compact groups", Notices AMS 2007).  Norms, optimal factor
pairs and penalty values all come from ``quasinorm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_count, frobenius_norm, singular_values, thin_svd, trim_singular_values
from .quasinorm import (
    Regularizer,
    factor_pair_from_svd,
    factor_surrogate_value,
    spectrum_quasi_norm,
    trace_power,
)
from .rng import philox_rng

__all__ = ["PropertyResult", "run_property_suite"]

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

_SHAPE = (30, 20)
_MAX_RANK = 8
# random feasible factorizations scored against each matrix's quasi-norms
_FACTORIZATIONS_PER_MATRIX = 100


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    tolerance: float
    max_violation: float
    passed: bool


def _random_orthogonal_stack(rng, batch: int, k: int) -> np.ndarray:
    """``batch`` Haar-distributed k x k orthogonal matrices, deterministic per rng."""
    q, r = np.linalg.qr(rng.standard_normal((batch, k, k)))
    # without the sign fix Q's distribution depends on LAPACK's sign convention
    return q * np.copysign(1.0, np.diagonal(r, axis1=1, axis2=2))[:, None, :]


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


def _norms(s: np.ndarray):
    """Nuclear, FN and BIN (quasi-)norms from one spectrum."""
    return tuple(
        spectrum_quasi_norm(s, p) for p in (1.0, Regularizer.FN.p, Regularizer.BIN.p)
    )


def run_property_suite(trials: int, seed: int) -> list[PropertyResult]:
    """Run every property over ``trials`` seeded random matrices."""
    trials = _as_count(trials, "trials")
    rng = philox_rng(seed)
    worst = dict.fromkeys(_TOLERANCES, -math.inf)

    def note(name, *violations):
        worst[name] = max(worst[name], *violations)

    m, n = _SHAPE
    k = min(_SHAPE)
    for _ in range(trials):
        rank = int(rng.integers(1, _MAX_RANK + 1))
        x = rng.standard_normal((m, rank)) @ rng.standard_normal((n, rank)).T
        f = thin_svd(x)
        s = trim_singular_values(f.singular_values)
        nuc, fn, bn = _norms(s)

        # attainment: the surrogate at the optimal factorization equals the
        # norm; lower bound: any feasible factorization scores at least it
        g, g_inv_t = _mixing_stack(rng, _FACTORIZATIONS_PER_MATRIX, rank)
        for reg, ref in ((Regularizer.FN, fn), (Regularizer.BIN, bn)):
            pair = factor_pair_from_svd(f, reg, rank)
            got = factor_surrogate_value(pair.u, pair.v, reg)
            note(f"{reg.value}_attainment", abs(got - ref) / ref)
            us = np.matmul(pair.u[None], g)
            vs = np.matmul(pair.v[None], g_inv_t)
            vals = factor_surrogate_value(us, vs, reg)
            # positive when a factorization dips below the quasi-norm
            note(f"{reg.value}_factorization_lower_bound", float(np.max((ref - vals) / ref)))

        # sandwich inequalities against the nuclear norm
        note("sandwich_fn_sqrt_rank", (nuc - fn) / nuc, (fn - math.sqrt(rank) * nuc) / nuc)
        note(
            "sandwich_nuclear_fn_bin_rank",
            (nuc - fn) / nuc,
            (fn - bn) / nuc,
            (bn - rank * nuc) / nuc,
        )

        # diagonal trace powers can only grow under orthogonal conjugation
        sig = np.diag(np.sort(np.abs(rng.standard_normal(k)) + 0.01)[::-1])
        q = _random_orthogonal_stack(rng, 1, k)[0]
        rotated = q @ sig @ q.T
        for p in (Regularizer.BIN.p, Regularizer.FN.p):
            base = trace_power(sig, p)
            note("trace_power_rotation", (base - trace_power(rotated, p)) / base)

        # nuclear norm equals ||U||_F ||V||_F at the square-root-split factors
        root = np.sqrt(s[:rank])
        u = f.left[:, :rank] * root
        v = f.right[:, :rank] * root
        note("nuclear_norm_factorization", abs(frobenius_norm(u) * frobenius_norm(v) - nuc) / nuc)

        # absolute homogeneity of both quasi-norms
        for a in (-2.0, 0.5):
            _, fn_a, bn_a = _norms(singular_values(a * x))
            note(
                "absolute_homogeneity",
                abs(fn_a - abs(a) * fn) / (abs(a) * fn),
                abs(bn_a - abs(a) * bn) / (abs(a) * bn),
            )

    return [
        PropertyResult(name, trials, tol, worst[name], worst[name] <= tol)
        for name, tol in _TOLERANCES.items()
    ]
