"""Schatten quasi-norms and the factored surrogates that attain them.

For 0 < p < 1 the Schatten-p quasi-norm (sum sigma_i^p)^(1/p) is a
non-convex surrogate of the rank.  Two cases admit exact factored forms
over all factorizations X = U V^T with enough columns:

* p = 2/3: min ||U||_* ||V||_F = min ((2||U||_* + ||V||_F^2) / 3)^(3/2)
* p = 1/2: min ||U||_* ||V||_* = min ((||U||_* + ||V||_*) / 2)^2

and the minimum is attained at U = L diag(s)^a, V = R diag(s)^(1-a) built
from the SVD of X (a = 2/3 and 1/2 respectively).  That attainment is what
lets a solver regularize the small factors instead of the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    as_matrix,
    frobenius_norm,
    nuclear_norm,
    nuclear_norms_stack,
    singular_values,
    thin_svd,
    trim_singular_values,
)

__all__ = [
    "Regularizer",
    "FactorPair",
    "schatten_quasi_norm",
    "fn_quasi_norm",
    "bin_quasi_norm",
    "optimal_factor_pair",
    "factor_surrogate_value",
    "surrogate_values_batch",
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


@dataclass(frozen=True)
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
    p = 2.  Requires p > 0.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    s = singular_values(as_matrix(x))
    s = s[s > 0.0]
    if s.size == 0:
        return 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def fn_quasi_norm(x) -> float:
    """Schatten-2/3 quasi-norm: the minimum of ||U||_* ||V||_F over X = U V^T."""
    return schatten_quasi_norm(x, 2.0 / 3.0)


def bin_quasi_norm(x) -> float:
    """Schatten-1/2 quasi-norm: the minimum of ||U||_* ||V||_* over X = U V^T."""
    return schatten_quasi_norm(x, 0.5)


def optimal_factor_pair(x, reg: Regularizer, d: int) -> FactorPair:
    """Factorization of x attaining the quasi-norm surrogate minimum.

    FN: U = L diag(s)^(2/3), V = R diag(s)^(1/3); BIN uses the symmetric
    square-root split.  Requires d >= numerical rank of x; extra columns
    are zero-padded.
    """
    x = as_matrix(x)
    f = thin_svd(x)
    s = trim_singular_values(f.singular_values)
    rank = int(np.count_nonzero(s))
    if d < rank:
        raise ValueError(f"d = {d} is below the numerical rank {rank}")
    m, n = x.shape
    pow_u, pow_v = reg.split
    u = np.zeros((m, d))
    v = np.zeros((n, d))
    if rank:
        u[:, :rank] = f.left[:, :rank] * s[:rank] ** pow_u
        v[:, :rank] = f.right[:, :rank] * s[:rank] ** pow_v
    return FactorPair(u, v)


def factor_surrogate_value(u, v, reg: Regularizer) -> float:
    """Value of the factored penalty at (u, v).

    FN: ((2||u||_* + ||v||_F^2) / 3)^(3/2); BIN: ((||u||_* + ||v||_*) / 2)^2.
    Never smaller than the matching quasi-norm of u @ v.T.
    """
    u = as_matrix(u, "u")
    v = as_matrix(v, "v")
    if u.shape[1] != v.shape[1]:
        raise ValueError(f"inner dimensions differ: {u.shape[1]} vs {v.shape[1]}")
    if reg is Regularizer.FN:
        return float(((2.0 * nuclear_norm(u) + frobenius_norm(v) ** 2) / 3.0) ** 1.5)
    return float(((nuclear_norm(u) + nuclear_norm(v)) / 2.0) ** 2)


def surrogate_values_batch(us: np.ndarray, vs: np.ndarray, reg: Regularizer) -> np.ndarray:
    """Vectorized factor_surrogate_value over (batch, m, d) factor stacks."""
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    if us.shape[0] != vs.shape[0] or us.shape[2] != vs.shape[2]:
        raise ValueError("factor stacks disagree on batch size or inner dimension")
    nuc_u = nuclear_norms_stack(us)
    if reg is Regularizer.FN:
        fro_sq_v = np.einsum("bij,bij->b", vs, vs)
        return ((2.0 * nuc_u + fro_sq_v) / 3.0) ** 1.5
    return ((nuc_u + nuclear_norms_stack(vs)) / 2.0) ** 2


def trace_power(b, p: float) -> float:
    """sum_i (b_ii)^p over the diagonal of a square matrix.

    Diagonal entries in [-1e-12, 0) are clamped to zero; materially
    negative entries are rejected.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"trace_power requires a square matrix, got {b.shape}")
    diag = np.diagonal(b).copy()
    if np.any(diag < -1e-12):
        raise ValueError("materially negative diagonal entry")
    diag = np.maximum(diag, 0.0)
    return float(np.sum(diag**p))
