"""Observed-entry set and the three sparse kernels the solvers need.

The coordinate layout is parallel (row, col, value) arrays sorted
lexicographically by (row, col).  The kernels are the masked residual
P_omega(U V^T - D) and the products S @ X and S^T @ X of the matrix S that
holds given values on the observed pattern (the gradients R V and R^T U).
Each picks one of two paths from the shape and |omega| alone:

* dense, when m * n <= max(3 |omega|, 2**16): the values are scattered
  into an m x n array and the products are BLAS matrix products (the
  residual reads the observed entries of U V^T).  Both the scatter and the
  residual's gather address the array by the flat index row * n + col,
  computed on first use, so sets on the sparse path never hold it;
* sparse, otherwise: for each of the d columns of the factor or block
  multiplied, one gather of a contiguous column and one ``np.bincount``
  scatter-accumulate (the residual repeats each row of U over that row's
  entries, which the row-sorted layout allows, and gathers the rows of V).

The first term takes the dense path at density 1/3 and above, where the
array's 8 m n bytes are no more than the 24 bytes per entry the coordinate
arrays hold and m n d stays within 3 |omega| d multiply-adds.  The second
takes it on every set of at most 2**16 cells, where the sparse path's
fixed cost per column mostly outweighs its saving (the measured exception
is d = 1 below density 1/3); the cap keeps the array within 512 KB, so
below density 1/3 no large allocation appears.

The public kernels check their factor arguments (2-D, finite, shapes
matching the set).  The solver checks its inputs once and then calls the
unchecked ``_residual``, ``sp_dot`` and ``sp_tdot`` on iterates it made
itself.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix
from .rng import philox_rng

# Multiply-add counter for the residual kernel (testing instrumentation).
_madd_count = 0


def kernel_madd_count() -> int:
    """Multiply-adds of public ``masked_residual`` calls since the last reset:
    nnz * d per call.  The solver's own residuals (``_residual``) are not
    counted."""
    return _madd_count


def reset_kernel_madd_count() -> None:
    global _madd_count
    _madd_count = 0


@dataclass(frozen=True)
class SparseObservations:
    """Observed entries of an m x n matrix, sorted by (row, col)."""

    m: int
    n: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    # entries per row; entries are row-sorted, so row i owns the next
    # row_counts[i] of them
    row_counts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("m", "n"):
            dim = getattr(self, name)
            if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
                raise ValueError(f"{name} must be a positive integer, got {dim!r}")
            object.__setattr__(self, name, int(dim))
        rows = np.asarray(self.row_idx, dtype=np.int64)
        cols = np.asarray(self.col_idx, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if not (rows.ndim == cols.ndim == vals.ndim == 1):
            raise ValueError("entry arrays must be 1-D")
        if not (rows.size == cols.size == vals.size):
            raise ValueError("entry arrays must share a length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValueError("col index out of range")
            key = rows * self.n + cols
            dk = np.diff(key)
            if np.any(dk < 0):
                raise ValueError("entries must be sorted by (row, col)")
            if np.any(dk == 0):
                raise ValueError("duplicate (row, col) entry")
            if not np.isfinite(vals).all():
                raise ValueError("observation values must be finite")
        object.__setattr__(self, "row_idx", rows)
        object.__setattr__(self, "col_idx", cols)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_counts", np.bincount(rows, minlength=self.m))

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    @functools.cached_property
    def flat_idx(self) -> np.ndarray:
        """Row-major positions row * n + col of the entries in an m x n array."""
        return self.row_idx * self.n + self.col_idx

    def dense(self) -> np.ndarray:
        """Materialize P_omega(D) (zeros off the observed set)."""
        return _scatter(self, self.values)


@dataclass(frozen=True)
class SparseResidual:
    """Values of U V^T - D on the index set of a parent SparseObservations."""

    obs: SparseObservations
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.obs.nnz,):
            raise ValueError("residual values must match the parent index set")
        object.__setattr__(self, "values", vals)

    def sq_norm(self) -> float:
        return float(self.values @ self.values)


def _check_factor(x, rows, d_expected, name):
    x = as_matrix(x, name)
    if x.shape[0] != rows:
        raise ValueError(f"{name} has {x.shape[0]} rows, expected {rows}")
    if d_expected is not None and x.shape[1] != d_expected:
        raise ValueError(f"{name} has {x.shape[1]} cols, expected {d_expected}")
    return x


def _check_pair(u, v, obs: SparseObservations):
    """Factors u (m x d) and v (n x d) of ``obs``, checked and as float64."""
    u = _check_factor(u, obs.m, None, "u")
    return u, _check_factor(v, obs.n, u.shape[1], "v")


def _scatter(obs: SparseObservations, values) -> np.ndarray:
    """The m x n array holding `values` on the obs pattern, zeros elsewhere."""
    out = np.zeros(obs.m * obs.n)
    out[obs.flat_idx] = values
    return out.reshape(obs.m, obs.n)


# cells of the largest m x n buffer (512 KB) the rule adds below density 1/3
_DENSE_CELLS = 2**16


def _dense_path(obs: SparseObservations) -> bool:
    """Path rule of the kernels (see the module docstring)."""
    return obs.m * obs.n <= max(3 * obs.nnz, _DENSE_CELLS)


def _residual(u: np.ndarray, v: np.ndarray, obs: SparseObservations) -> np.ndarray:
    """Values of U V^T - D on the observed set, for checked float64 factors."""
    if _dense_path(obs):
        # at d = 1, `@` runs numpy's own loop and np.dot stays on BLAS; each
        # entry is one product either way, so both give the same bits
        product = np.dot if u.shape[1] == 1 else np.matmul
        pred = product(u, v.T).ravel().take(obs.flat_idx)
    else:
        # row-sorted entries: repeating each row of u is the row gather
        pred = np.einsum("ij,ij->i", np.repeat(u, obs.row_counts, axis=0), v[obs.col_idx])
    return pred - obs.values


def masked_residual(u, v, obs: SparseObservations) -> SparseResidual:
    """P_omega(U V^T) - P_omega(D), materialized on the observed set only."""
    global _madd_count
    u, v = _check_pair(u, v, obs)
    values = _residual(u, v, obs)
    _madd_count += obs.nnz * u.shape[1]
    return SparseResidual(obs, values)


def _scatter_columns(idx, other_idx, values, x, rows):
    # entry e adds values[e] * x[other_idx[e], k] to out[idx[e], k]; one
    # contiguous column of x per bincount keeps each gather unit-stride
    xt = np.ascontiguousarray(x.T)
    out = np.empty((rows, x.shape[1]))
    for k in range(x.shape[1]):
        out[:, k] = np.bincount(idx, weights=xt[k][other_idx] * values, minlength=rows)
    return out


def sp_dot(obs: SparseObservations, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the sparse matrix S with `values` on the obs pattern; x is n x d."""
    if _dense_path(obs):
        return _scatter(obs, values) @ x
    return _scatter_columns(obs.row_idx, obs.col_idx, values, x, obs.m)


def sp_tdot(obs: SparseObservations, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^T @ x; x is m x d, result n x d."""
    if _dense_path(obs):
        return _scatter(obs, values).T @ x
    return _scatter_columns(obs.col_idx, obs.row_idx, values, x, obs.n)


def grad_u(r: SparseResidual, v) -> np.ndarray:
    """R @ V: gradient of the masked half-squared loss with respect to U."""
    v = _check_factor(v, r.obs.n, None, "v")
    return sp_dot(r.obs, r.values, v)


def grad_v(r: SparseResidual, u) -> np.ndarray:
    """R^T @ U: gradient of the masked half-squared loss with respect to V."""
    u = _check_factor(u, r.obs.m, None, "u")
    return sp_tdot(r.obs, r.values, u)


def _partial_fisher_yates(total: int, k: int, rng) -> np.ndarray:
    # sparse Fisher-Yates: only displaced slots are stored
    # one vectorized draw gives the same stream as k scalar integers(i, total)
    draws = rng.integers(np.arange(k), total).tolist()
    swapped: dict[int, int] = {}
    out = np.empty(k, dtype=np.int64)
    for i, j in enumerate(draws):
        out[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    return out


def sample_mask(m: int, n: int, sr: float, seed: int):
    """floor(sr * m * n) distinct positions, uniform without replacement.

    Deterministic per seed.  Returns (rows, cols) index arrays sorted
    lexicographically by (row, col).
    """
    if not (0.0 < sr <= 1.0):
        raise ValueError(f"sampling ratio must be in (0, 1], got {sr}")
    total = m * n
    # the 1e-9 nudge guards against float undershoot of exact products
    k = int(math.floor(sr * total + 1e-9))
    rng = philox_rng(seed)
    if sr == 1.0:
        lin = np.arange(total, dtype=np.int64)
    else:
        lin = _partial_fisher_yates(total, k, rng)
    lin = np.sort(lin)
    return lin // n, lin % n
