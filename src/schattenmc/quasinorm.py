"""Schatten quasi-norms and the factored penalties that attain them.

For 0 < p < 1 the Schatten-p quasi-norm (sum sigma_i^p)^(1/p) is a
non-convex surrogate of the rank.  Two cases admit exact factored forms
over all factorizations X = U V^T with enough columns:

* p = 2/3: min ||U||_* ||V||_F = min ((2||U||_* + ||V||_F^2) / 3)^(3/2)
* p = 1/2: min ||U||_* ||V||_* = min ((||U||_* + ||V||_*) / 2)^2

and the minimum is attained at U = L diag(s)^a, V = R diag(s)^(1-a) built
from the SVD of X (a = 2/3 and 1/2 respectively).  That attainment is what
lets a solver regularize the small factors instead of the full matrix.

``Regularizer`` is the one place that holds these weights, split exponents
and p; the solver, the metrics and the verification suite read them from it.
Functions that take a spectrum or an SVD let a caller that already has one
reuse it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    ThinSVD,
    _as_count,
    as_matrix,
    as_stack,
    nuclear_norm,
    singular_values,
    thin_svd,
    trim_singular_values,
)

__all__ = [
    "Regularizer",
    "FactorPair",
    "schatten_quasi_norm",
    "spectrum_quasi_norm",
    "fn_quasi_norm",
    "bin_quasi_norm",
    "optimal_factor_pair",
    "factor_pair_from_svd",
    "factor_surrogate_value",
    "trace_power",
]


class Regularizer(Enum):
    """Choice of factored penalty.

    FN pairs a nuclear norm on U with a squared Frobenius norm on V and
    corresponds to the Schatten-2/3 quasi-norm; BIN pairs two nuclear norms
    and corresponds to Schatten-1/2.
    """

    FN = "fn"
    BIN = "bin"

    @property
    def p(self) -> float:
        return 2.0 / 3.0 if self is Regularizer.FN else 0.5

    @property
    def split(self) -> tuple[float, float]:
        """Exponents (a, 1 - a) of the optimal factorization
        U = L diag(s)^a, V = R diag(s)^(1-a)."""
        return (2.0 / 3.0, 1.0 / 3.0) if self is Regularizer.FN else (0.5, 0.5)

    def shrink_coeff(self, lam: float) -> float:
        """Weight of ||U||_* in lam times the penalty: 2 lam / 3 for FN,
        lam / 2 for BIN."""
        return 2.0 * lam / 3.0 if self is Regularizer.FN else lam / 2.0

    def penalty(self, lam, nuc_u, v_term):
        """lam times the factored penalty, from ||U||_* and the V term
        (||V||_F^2 for FN, ||V||_* for BIN): lam (2 nuc_u + v_term) / 3 or
        lam (nuc_u + v_term) / 2.  Elementwise over arrays."""
        if self is Regularizer.FN:
            return lam * (2.0 * nuc_u + v_term) / 3.0
        return lam * (nuc_u + v_term) / 2.0


@dataclass(frozen=True, eq=False)
class FactorPair:
    """A factor iterate (u: m x d, v: n x d) sharing the rank bound d."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u, "u")
        v = as_matrix(self.v, "v")
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"factor column counts differ: {u.shape[1]} vs {v.shape[1]}"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.u.shape[1]

    def product(self) -> np.ndarray:
        return self.u @ self.v.T


def schatten_quasi_norm(x, p: float) -> float:
    """(sum sigma_i^p)^(1/p) over the (noise-trimmed) singular values.

    Coincides with the nuclear norm at p = 1 and the Frobenius norm at
    p = 2.  Requires finite p > 0.
    """
    return spectrum_quasi_norm(singular_values(as_matrix(x)), p)


def spectrum_quasi_norm(s, p: float) -> float:
    """(sum s_i^p)^(1/p) over the positive entries of a spectrum ``s``."""
    if not 0.0 < p < math.inf:  # written so that nan fails too
        raise ValueError(f"p must be finite and positive, got {p}")
    s = s[s > 0.0]
    if s.size == 0:
        return 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def fn_quasi_norm(x) -> float:
    """Schatten-2/3 quasi-norm: the minimum of ||U||_* ||V||_F over X = U V^T."""
    return schatten_quasi_norm(x, Regularizer.FN.p)


def bin_quasi_norm(x) -> float:
    """Schatten-1/2 quasi-norm: the minimum of ||U||_* ||V||_* over X = U V^T."""
    return schatten_quasi_norm(x, Regularizer.BIN.p)


def optimal_factor_pair(x, reg: Regularizer, d: int) -> FactorPair:
    """Factorization of x attaining the quasi-norm surrogate minimum.

    FN: U = L diag(s)^(2/3), V = R diag(s)^(1/3); BIN uses the symmetric
    square-root split.  Requires d >= numerical rank of x; extra columns
    are zero-padded.
    """
    return factor_pair_from_svd(thin_svd(x), reg, d)


def factor_pair_from_svd(f: ThinSVD, reg: Regularizer, d: int) -> FactorPair:
    """``optimal_factor_pair`` of the matrix whose thin SVD is ``f``; d is
    an integer >= 0 (0 only for a zero matrix)."""
    d = _as_count(d, "d", minimum=0)
    s = trim_singular_values(f.singular_values)
    rank = int(np.count_nonzero(s))
    if d < rank:
        raise ValueError(f"d = {d} is below the numerical rank {rank}")
    pow_u, pow_v = reg.split
    u = np.zeros((f.left.shape[0], d))
    v = np.zeros((f.right.shape[0], d))
    if rank:
        u[:, :rank] = f.left[:, :rank] * s[:rank] ** pow_u
        v[:, :rank] = f.right[:, :rank] * s[:rank] ** pow_v
    return FactorPair(u, v)


def factor_surrogate_value(u, v, reg: Regularizer):
    """Value of the factored penalty at (u, v): ``reg.penalty`` at lam = 1,
    raised to 1/p.

    FN: ((2||u||_* + ||v||_F^2) / 3)^(3/2); BIN: ((||u||_* + ||v||_*) / 2)^2.
    Never smaller than the matching quasi-norm of u @ v.T.  A float for one
    pair (m x d, n x d); for stacks (..., m, d) and (..., n, d), an array
    with one value per pair.
    """
    u = as_stack(u, "u")
    v = as_stack(v, "v")
    if u.shape[:-2] != v.shape[:-2] or u.shape[-1] != v.shape[-1]:
        raise ValueError(f"factor shapes disagree: {u.shape} vs {v.shape}")
    if reg is Regularizer.FN:
        v_term = np.einsum("...ij,...ij->...", v, v)
    else:
        v_term = nuclear_norm(v)
    value = reg.penalty(1.0, nuclear_norm(u), v_term) ** (1.0 / reg.p)
    return float(value) if np.ndim(value) == 0 else value


def trace_power(b, p: float) -> float:
    """sum_i (b_ii)^p over the diagonal of a square matrix.

    Diagonal entries in [-1e-12, 0) are clamped to zero; materially
    negative entries are rejected.
    """
    if not 0.0 < p < math.inf:  # written so that nan fails too
        raise ValueError(f"p must be finite and positive, got {p}")
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"trace_power requires a square matrix, got {b.shape}")
    diag = np.diagonal(b).copy()
    if np.any(diag < -1e-12):
        raise ValueError("materially negative diagonal entry")
    diag = np.maximum(diag, 0.0)
    return float(np.sum(diag**p))
