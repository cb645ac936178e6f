"""Dense linear algebra sized for tall-skinny factor work.

Thin SVDs and singular values go straight to LAPACK through
``np.linalg.svd`` (``full_matrices=False`` / ``compute_uv=False``).
``singular_values`` takes one matrix or a stack of them, shape
(..., m, n): LAPACK batches the stack, and each matrix gets the same
values as a call on it alone.  The spectral norm, ``sigma_max``, is the top
singular value of that route; the package exports it under that one name.
A LAPACK convergence failure surfaces as ``NumericalError``.

The solver takes the spectra of its m x d and n x d blocks by the Gram
route: ``_gram_eigh`` (LAPACK ``eigh`` of the block's d x d Gram matrix,
after the exact power-of-two prescale ``_pow2_scaled``), its
``_singular_values``, the shrinkage ``_svt`` and the truncated thin SVD
``_gram_svd`` of the initializer's m x (d + 10) block, whose other side's
vectors are a r / s.  It is several times cheaper than the thin SVD of a
tall block but resolves singular values to about sqrt(d eps) sigma_1, not
eps sigma_1.  On the verify suite's 30 x 20 matrices that is
sqrt(20 eps) sigma_1 ~ 6.7e-8 sigma_1, and a zero value can read as up to
sqrt(50 eps) sigma_1 ~ 1.05e-7 sigma_1: both at the 1e-7 trim below, so
the public functions, whose trimmed norms, ranks and quasi-norms the
toolbox reads, stay on LAPACK's SVD as the package's exact oracles.  The
solver's shrinkage zeroes every value below its threshold and trims
nothing, so it needs no more.

The public functions check their input (2-D or a stack, finite).  The
unchecked private functions serve callers that hold float64 arrays known
to be finite, such as the solver's iterates.

Derived scalar norms and rank decisions trim singular values below
``SIGMA_TRIM_REL * sigma_1`` of their own matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Numerical-rank / norm-trim threshold.  LAPACK's noise floor is near
# eps * sigma_1, far below this, so the value is not a precision limit; it is
# kept because every derived norm, rank count and frozen acceptance value in
# the package was measured with it.
SIGMA_TRIM_REL = 1e-7


class NumericalError(RuntimeError):
    """A numerical kernel failed: LAPACK's SVD or eigh did not converge, or
    an iterate overflowed."""


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


def _as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer >= ``minimum`` (1 or 0).  A bool is rejected, not read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


_INTERVALS = {  # of ``_as_real``, keyed by the text its error gives; nan fails each
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
    "finite and positive": lambda v: 0.0 < v < math.inf,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
}


def _as_real(value, name: str, rule: str):
    """``value`` itself; ValueError naming ``name`` unless it is a real, not
    a bool, in the interval ``rule`` (numpy's bool is not a ``numbers.Real``)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and _INTERVALS[rule](value)):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


@dataclass(frozen=True, eq=False)
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


def singular_values(a) -> np.ndarray:
    """Singular values (non-increasing, by LAPACK), trimmed.

    ``a`` is one m x n matrix or a stack (..., m, n); the result has shape
    (..., min(m, n)).
    """
    s = _svd(as_stack(a), compute_uv=False)
    return trim_singular_values(s)


def sigma_max(a) -> float:
    """Spectral norm: the largest of LAPACK's singular values (exact to
    machine precision even for clustered spectra); 0.0 for an empty matrix."""
    s = _svd(as_matrix(a), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _pow2_scaled(a: np.ndarray):
    """``a`` scaled by the power of two 2^-e that brings max|a| into
    [0.5, 1), and e (0 for a zero matrix).  The scaling is exact but for
    entries that it takes below the normal range, far below eps max|a|."""
    exponent = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    return np.ldexp(a, -exponent), exponent


def _gram_eigh(a: np.ndarray, vectors: bool):
    """Singular values of the finite float64 matrix ``a`` (unchecked; none
    when it has no columns), ascending, from LAPACK ``eigh`` of its smaller
    Gram matrix: a^T a, or a a^T when ``a`` is wide.  With ``vectors``,
    also the eigenvectors as columns: the right singular vectors of ``a``,
    or the left ones when it is wide; else None.

    ``a`` is first scaled by the power of two that brings max|a| into
    [0.5, 1), and the values are scaled back by it: the Gram of no finite
    ``a`` overflows, and it underflows only in terms far below eps times its
    largest entry.  Squaring the spectrum costs precision: a value is
    resolved to about sqrt(d eps) sigma_1 only, d the Gram's order (Golub &
    Van Loan, 8.6), and a zero one can read up to about sqrt((m + n) eps)
    sigma_1, since the Gram's rounding also grows with the length of its
    sums.
    """
    scaled, exponent = _pow2_scaled(a)
    gram = scaled.T @ scaled if a.shape[0] >= a.shape[1] else scaled @ scaled.T
    try:
        if vectors:
            w, basis = np.linalg.eigh(gram)
        else:
            w, basis = np.linalg.eigvalsh(gram), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigh did not converge: {exc}") from exc
    return np.ldexp(np.sqrt(np.maximum(w, 0.0)), exponent), basis


def _gram_svd(a: np.ndarray, k: int) -> ThinSVD:
    """Leading k <= min(m, n) singular triplets of the nonempty finite
    float64 matrix ``a`` (unchecked) by the Gram route: the values and the
    vectors of ``_gram_eigh`` (the right vectors, or the left ones when
    ``a`` is wide), and the other side's vectors a r / s (a^T l / s).

    Unlike ``ThinSVD`` elsewhere, the columns on that other side are zero
    where s = 0, and the rest lose orthonormality as s falls toward the Gram
    route's resolution, about sqrt(w eps) sigma_1 with w = min(m, n); left
    diag(s) right^T is the rank-k truncation of ``a`` to about that much.
    a and s are scaled by the same power of two before the division, so it
    overflows for no ``a`` whose sigma_1 is finite.
    """
    s, basis = _gram_eigh(a, vectors=True)
    s, basis = s[::-1][:k], basis[:, ::-1][:, :k]
    tall = a.shape[0] >= a.shape[1]
    # sigma_1 >= max|a|, so after this scaling every entry of a r is below 1
    exponent = math.frexp(float(s[0]))[1] if k else 0
    scaled_s = np.ldexp(s, -exponent)
    other = np.ldexp(a if tall else a.T, -exponent) @ basis
    other = np.divide(other, scaled_s, out=np.zeros_like(other), where=scaled_s > 0.0)
    return ThinSVD(other, s, basis) if tall else ThinSVD(basis, s, other)


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of the finite float64 matrix ``a`` (unchecked) by the
    Gram route, non-increasing and untrimmed."""
    return _gram_eigh(a, vectors=False)[0][::-1]


def _svt(a: np.ndarray, tau: float):
    """Shrinkage of the nonempty finite float64 matrix ``a`` (unchecked) by
    the Gram route, a R diag(max(s - tau, 0) / s) R^T with R the vectors of
    ``_gram_eigh`` (applied from the left when ``a`` is wide), and its
    singular values, non-increasing; tau = 0 returns ``a`` itself."""
    if tau == 0.0:
        return a, _singular_values(a)
    s, basis = _gram_eigh(a, vectors=True)
    shrunk = np.maximum(s - tau, 0.0)
    # tau > 0 here, so a zero s divides 0 by tau
    weights = (basis * (shrunk / np.maximum(s, tau))) @ basis.T
    out = a @ weights if a.shape[0] >= a.shape[1] else weights @ a
    return out, shrunk[::-1]


def nuclear_norm(a):
    """Sum of singular values (trimmed, see module docstring): a float for
    one matrix, an array of shape (...,) for a stack (..., m, n)."""
    total = np.sum(singular_values(a), axis=-1)
    return float(total) if total.ndim == 0 else total


def frobenius_norm(a) -> float:
    return _frobenius_norm(as_matrix(a))


def _frobenius_norm(a: np.ndarray) -> float:
    return math.sqrt(float(np.sum(a * a)))


def _sum_of_squares(x: np.ndarray) -> float:
    """x . x of a 1-D float64 array, summed by numpy's own loop: a BLAS dot
    splits a long sum across threads, so its bits would follow the thread
    count."""
    return float(np.einsum("i,i->", x, x))
