"""Dense linear algebra sized for tall-skinny factor work.

Thin SVDs and singular values go straight to LAPACK through
``np.linalg.svd`` (``full_matrices=False`` / ``compute_uv=False``), which
also batches over stacks of small matrices; the spectral norm is the top
singular value of that route.  A LAPACK convergence failure surfaces as
``NumericalError``.

Derived scalar norms and rank decisions trim singular values below
``SIGMA_TRIM_REL * sigma_1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical-rank / norm-trim threshold.  LAPACK's noise floor is near
# eps * sigma_1, far below this, so the value is not a precision limit; it is
# kept because every derived norm, rank count and frozen acceptance value in
# the package was measured with it.
SIGMA_TRIM_REL = 1e-7


class NumericalError(RuntimeError):
    """A numerical kernel failed: LAPACK's SVD did not converge, or an
    iterate overflowed."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array; NaN/Inf are rejected."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ThinSVD:
    """Thin singular value decomposition ``a == left @ diag(s) @ right.T``.

    ``left`` is m x k and ``right`` is n x k with orthonormal columns,
    ``singular_values`` is length k = min(m, n), non-increasing and >= 0.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


def _svd(a: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK SVD did not converge: {exc}") from exc


def thin_svd(a) -> ThinSVD:
    """Thin SVD with all min(m, n) singular triplets, by LAPACK.

    Deterministic for a fixed input.  Raises NumericalError if LAPACK's
    SVD does not converge.
    """
    a = as_matrix(a)
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("thin_svd requires at least one row and one column")
    left, sigma, right_t = _svd(a, compute_uv=True)
    return ThinSVD(left, sigma, right_t.T)


def trim_singular_values(sigma: np.ndarray) -> np.ndarray:
    """Zero out entries at or below SIGMA_TRIM_REL * sigma_1."""
    s = np.array(sigma, dtype=np.float64)
    if s.size and s[0] > 0.0:
        s[s <= SIGMA_TRIM_REL * s[0]] = 0.0
    return s


def singular_values(a, trim: bool = True) -> np.ndarray:
    """Singular values only (non-increasing, by LAPACK), optionally trimmed."""
    s = _svd(as_matrix(a), compute_uv=False)
    return trim_singular_values(s) if trim else s


def singular_values_stack(a_stack: np.ndarray, trim: bool = True) -> np.ndarray:
    """Singular values of a (batch, m, n) stack, shape (batch, min(m, n))."""
    a = np.asarray(a_stack, dtype=np.float64)
    if a.ndim != 3:
        raise ValueError(f"expected a (batch, m, n) stack, got {a.shape}")
    s = _svd(a, compute_uv=False)
    if trim and s.shape[1]:
        top = s[:, :1]
        s[s <= SIGMA_TRIM_REL * top] = 0.0
    return s


def nuclear_norms_stack(a_stack: np.ndarray) -> np.ndarray:
    return np.sum(singular_values_stack(a_stack), axis=1)


def sigma_max(a) -> float:
    """Spectral norm: the largest of LAPACK's singular values (exact to
    machine precision even for clustered spectra); 0.0 for an empty matrix."""
    s = singular_values(a, trim=False)
    return float(s[0]) if s.size else 0.0



def nuclear_norm(a) -> float:
    """Sum of singular values (trimmed, see module docstring)."""
    return float(np.sum(singular_values(a)))


def frobenius_norm(a) -> float:
    a = as_matrix(a)
    return math.sqrt(float(np.sum(a * a)))
