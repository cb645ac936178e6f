"""Dense linear algebra sized for tall-skinny factor work.

Thin SVDs and singular values go straight to LAPACK through
``np.linalg.svd`` (``full_matrices=False`` / ``compute_uv=False``).
``singular_values`` takes one matrix or a stack of them, shape
(..., m, n): LAPACK batches the stack, and each matrix gets the same
values as a call on it alone.  The spectral norm is the top singular value
of that route.  A LAPACK convergence failure surfaces as ``NumericalError``.

The public functions check their input (2-D or a stack, finite).  The
unchecked ``_svd``, ``_sigma_max`` and ``_frobenius_norm`` serve callers
that hold float64 matrices known to be finite, such as the solver's
iterates.

Derived scalar norms and rank decisions trim singular values below
``SIGMA_TRIM_REL * sigma_1`` of their own matrix.
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


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 array of shape (..., m, n): one matrix or
    a stack of them.  NaN/Inf are rejected."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"{name} must be 2-D or a stack, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array; NaN/Inf are rejected."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return as_stack(arr, name)


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
    """Zero out entries at or below SIGMA_TRIM_REL * sigma_1, per row of a
    (..., k) array of non-increasing spectra."""
    s = np.array(sigma, dtype=np.float64)
    s[s <= SIGMA_TRIM_REL * s[..., :1]] = 0.0
    return s


def singular_values(a, trim: bool = True) -> np.ndarray:
    """Singular values (non-increasing, by LAPACK), optionally trimmed.

    ``a`` is one m x n matrix or a stack (..., m, n); the result has shape
    (..., min(m, n)).
    """
    s = _svd(as_stack(a), compute_uv=False)
    return trim_singular_values(s) if trim else s


def sigma_max(a) -> float:
    """Spectral norm: the largest of LAPACK's singular values (exact to
    machine precision even for clustered spectra); 0.0 for an empty matrix."""
    return _sigma_max(as_matrix(a))


def _sigma_max(a: np.ndarray) -> float:
    s = _svd(a, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def nuclear_norm(a):
    """Sum of singular values (trimmed, see module docstring): a float for
    one matrix, an array of shape (...,) for a stack (..., m, n)."""
    total = np.sum(singular_values(a), axis=-1)
    return float(total) if total.ndim == 0 else total


def frobenius_norm(a) -> float:
    return _frobenius_norm(as_matrix(a))


def _frobenius_norm(a: np.ndarray) -> float:
    return math.sqrt(float(np.sum(a * a)))
