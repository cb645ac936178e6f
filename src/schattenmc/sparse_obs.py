"""Observed-entry set and the three sparse kernels the solvers need.

Everything runs in O(|omega| * d): the masked residual P_omega(U V^T - D),
and the two gradient products R @ V and R^T @ U realized as a gather plus
a per-column scatter-accumulate.  The coordinate layout is parallel
(row, col, value) arrays sorted lexicographically by (row, col).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .rng import philox_rng

# Multiply-add counter for the residual kernel (testing instrumentation).
_madd_count = 0


def kernel_madd_count() -> int:
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

    def __post_init__(self):
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

    @classmethod
    def from_entries(cls, m, n, rows, cols, values) -> "SparseObservations":
        """Build from unsorted coordinate arrays (sorts, keeps layout invariants)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((cols, rows))
        return cls(m, n, rows[order], cols[order], values[order])

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    def dense(self) -> np.ndarray:
        """Materialize P_omega(D) (zeros off the observed set)."""
        out = np.zeros((self.m, self.n))
        out[self.row_idx, self.col_idx] = self.values
        return out


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


def masked_residual(u, v, obs: SparseObservations) -> SparseResidual:
    """P_omega(U V^T) - P_omega(D), materialized on the observed set only."""
    global _madd_count
    u = _check_factor(u, obs.m, None, "u")
    v = _check_factor(v, obs.n, u.shape[1], "v")
    pred = np.einsum("ij,ij->i", u[obs.row_idx], v[obs.col_idx])
    _madd_count += obs.nnz * u.shape[1]
    return SparseResidual(obs, pred - obs.values)


def _scatter_rows(idx, weights, rows, d):
    out = np.empty((rows, d))
    for k in range(d):
        out[:, k] = np.bincount(idx, weights=weights[:, k], minlength=rows)
    return out


def sp_dot(obs: SparseObservations, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the sparse matrix S with `values` on the obs pattern; x is n x d."""
    w = values[:, None] * x[obs.col_idx]
    return _scatter_rows(obs.row_idx, w, obs.m, x.shape[1])


def sp_tdot(obs: SparseObservations, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^T @ x; x is m x d, result n x d."""
    w = values[:, None] * x[obs.row_idx]
    return _scatter_rows(obs.col_idx, w, obs.n, x.shape[1])


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
    swapped: dict[int, int] = {}
    out = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = int(rng.integers(i, total))
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
