"""Observed-entry set and the three sparse kernels the solvers need.

The coordinate layout is parallel (row, col, value) arrays sorted
lexicographically by (row, col), which is the entry order of a CSR matrix.
The kernels are the masked residual P_omega(U V^T - D) and the products
S @ X and S^T @ X of the matrix S that holds given values on the observed
pattern (the gradients R V and R^T U).  Each picks one of two paths from the
shape and |omega| alone; both products multiply by ``_operator``'s S:

* dense, when m * n <= max(3 |omega|, 2**16): the values are scattered
  into an m x n array and the products are BLAS matrix products (the
  residual reads the observed entries of U V^T).  Both the scatter and the
  residual's gather address the array by the flat index row * n + col,
  computed on first use, so sets on the sparse path never hold it;
* sparse, otherwise: the products are scipy's compiled CSR products over
  the set's own arrays, ``col_idx`` and the row pointers
  ``SparseObservations.indptr`` (computed on first use); scipy 1.17 keeps
  these int64 arrays without a copy.  scipy is imported by the first
  sparse product, so a process that only takes the dense path never loads
  it.  The residual gathers the rows of U and V with ``np.take`` for one
  block of ``_BLOCK`` entries at a time, so its (block, d) temporaries stay
  in cache and never grow to |omega| x d.

The first term takes the dense path at density 1/3 and above, where the
array's 8 m n bytes are no more than the 24 bytes per entry the coordinate
arrays hold and m n d stays within 3 |omega| d multiply-adds.  The second
takes it on every set of at most 2**16 cells (see ``_DENSE_CELLS``); the
cap keeps the array within 512 KB, so below density 1/3 no large
allocation appears.

The sparse path gives the bits of a plain per-column ``np.bincount``
scatter over the (row, col) order and of one unblocked gather.  scipy's
CSR product and its transpose (a CSC product over the same arrays) add
each output element's terms values[e] * x[j, k] in entry order, starting
from 0.0, which is the order ``np.bincount`` adds in, so every output
element is the same sum.  Each entry's residual is the same ``einsum``
reduction over its d terms in any block.  ``np.take`` copies factor rows
into new C-contiguous arrays, and scipy reads a factor through its C-order
ravel, whatever the factors' layout (Fortran order, strided views,
read-only), so every output keeps its bits.

``masked_residual`` is the one checked kernel: it checks its factors (2-D,
finite, shapes matching the set) and returns the residual as its nnz values
in entry order, the one form every caller passes on.  ``sp_dot`` and
``sp_tdot`` check nothing and are not exported from the package root; they
serve callers that hold checked float64 arrays, such as the solver, which
checks its inputs once and then calls them and the unchecked ``_residual``
on iterates it made itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_count, _as_real, as_matrix
from .rng import philox_rng

# Multiply-add counter for the residual kernel (testing instrumentation).
_madd_count = 0


def kernel_madd_count() -> int:
    """Multiply-adds of public ``masked_residual`` calls since import: nnz * d
    per call, read as a difference of two counts.  ``solve`` takes its
    starting residual through ``masked_residual``, so each solve adds one;
    ``step`` and the solver's other residuals (``_residual``) are not
    counted."""
    return _madd_count


@dataclass(frozen=True, eq=False)
class SparseObservations:
    """Observed entries of an m x n matrix, sorted by (row, col)."""

    m: int
    n: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        rows, cols = np.asarray(self.row_idx), np.asarray(self.col_idx)
        for name, idx in (("row_idx", rows), ("col_idx", cols)):
            # a float or bool index would be truncated or read as 0/1
            if idx.size and idx.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {idx.dtype}")
        rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
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

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    @functools.cached_property
    def flat_idx(self) -> np.ndarray:
        """Row-major positions row * n + col of the entries in an m x n array."""
        return self.row_idx * self.n + self.col_idx

    @functools.cached_property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: the entries are row-sorted, so row i owns
        entries indptr[i]:indptr[i + 1]."""
        return np.searchsorted(self.row_idx, np.arange(self.m + 1))

    @property
    def row_counts(self) -> np.ndarray:
        """Entries per row."""
        return np.diff(self.indptr)

    def dense(self) -> np.ndarray:
        """Materialize P_omega(D) (zeros off the observed set)."""
        return _scatter(self, self.values)


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


# cells of the largest m x n buffer (512 KB) the rule adds below density 1/3.
# It keeps the 100 x 100 criterion-7 shape (2000 entries, density 0.2) on
# BLAS: forcing the CSR products there took the lam-5 FN solves from
# 0.59-0.80 s to 1.20-1.30 s.  A set that moves changes its output bits, so
# re-tuning the cap is a declared behaviour change of its own
_DENSE_CELLS = 2**16


def _dense_path(obs: SparseObservations) -> bool:
    """Path rule of the kernels (see the module docstring)."""
    return obs.m * obs.n <= max(3 * obs.nnz, _DENSE_CELLS)


# entries per block of the sparse-path residual.  On the ratings shape
# (500k entries, one BLAS thread, medians of 5 sweeps) with the take
# gathers, 2048-65536 measured 13.6-14.9 ms at d = 10 and 19.1-22.8 ms at
# d = 20; 4096 was fastest at both d, but only 6% ahead at d = 10, short of
# the 10% at both d that a change of size needs
_BLOCK = 8192


def _residual(u: np.ndarray, v: np.ndarray, obs: SparseObservations) -> np.ndarray:
    """Values of U V^T - D on the observed set, for checked float64 factors."""
    if _dense_path(obs):
        # at d = 1, `@` runs numpy's own loop and np.dot stays on BLAS; each
        # entry is one product either way, so both give the same bits
        product = np.dot if u.shape[1] == 1 else np.matmul
        pred = product(u, v.T).ravel().take(obs.flat_idx)
        return pred - obs.values
    # blocks of _BLOCK entries keep both (block, d) row gathers in cache; each
    # entry's dot product is the same einsum reduction in any block.  np.take
    # first copies a source that is not C-contiguous whole, so that copy is
    # made once here, not once per block (the solver's factors need none)
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    rows, cols, values = obs.row_idx, obs.col_idx, obs.values
    out = np.empty(obs.nnz)
    for start in range(0, obs.nnz, _BLOCK):
        blk = slice(start, start + _BLOCK)
        np.einsum("ij,ij->i", u.take(rows[blk], axis=0), v.take(cols[blk], axis=0), out=out[blk])
        out[blk] -= values[blk]
    return out


def masked_residual(u, v, obs: SparseObservations) -> np.ndarray:
    """Values of P_omega(U V^T) - P_omega(D) on the observed set: a float64
    array of length nnz in the set's entry order."""
    global _madd_count
    u, v = _check_pair(u, v, obs)
    values = _residual(u, v, obs)
    _madd_count += obs.nnz * u.shape[1]
    return values


def _operator(obs: SparseObservations, values: np.ndarray):
    """S, the m x n matrix holding `values` on the obs pattern: an array on
    the dense path, else a scipy CSR array that shares the set's index arrays."""
    if _dense_path(obs):
        return _scatter(obs, values)
    # imported here, so that only sparse-path products pay for the import
    from scipy.sparse import csr_array

    return csr_array((values, obs.col_idx, obs.indptr), shape=(obs.m, obs.n))


def sp_dot(obs: SparseObservations, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the sparse matrix S with `values` on the obs pattern; x is n x d.

    With the residual values R, R @ V is the gradient of the masked
    half-squared loss in U.  Unchecked: ``values`` must be float64 of length
    nnz and ``x`` a finite float64 n x d array.
    """
    return _operator(obs, values) @ x


def sp_tdot(obs: SparseObservations, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^T @ x; x is m x d, result n x d.

    With the residual values R, R^T @ U is the gradient of the masked
    half-squared loss in V.  Unchecked, as ``sp_dot``.
    """
    return _operator(obs, values).T @ x


def _stable_order(keys: np.ndarray, total: int) -> np.ndarray:
    """Stable argsort of int64 keys in [0, total): a least-significant-digit
    radix sort over 16-bit digits, one stable uint16 argsort per digit.

    numpy radix-sorts 16-bit keys and timsorts wider ones; on 131072 draws
    below 2**18 (one thread) the two digit passes took 3.7 ms, against
    11.6 ms for one stable argsort of the same keys as uint32 or int64.
    """
    order = np.arange(keys.size)
    for shift in range(0, max((total - 1).bit_length(), 1), 16):
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def _partial_fisher_yates(total: int, k: int, rng) -> np.ndarray:
    # Durstenfeld's shuffle of range(total) stopped after k swaps, without a
    # per-draw loop.  Step t swaps positions t and draws[t] >= t and outputs
    # what position draws[t] held: src[prev[t]] for the latest earlier step
    # prev[t] with that target, else draws[t].  src[p], what position p held
    # when step p read it, is likewise src[L[p]] for the latest step L[p] < p
    # that targeted p, else p; pointer doubling resolves these chains.
    # One vectorized draw gives the same stream as k scalar integers(t, total)
    draws = rng.integers(np.arange(k), total)
    # steps grouped by target, in step order within each group
    order = _stable_order(draws, total)
    targets = draws[order]
    same = targets[1:] == targets[:-1]
    # every assignment below writes distinct indices, so no write order matters
    prev = np.full(k, -1)
    prev[order[1:][same]] = order[:-1][same]
    # L[p] is the last step of group p < k.  When that step is p itself, src[p]
    # stays p, which nothing reads: every later step targets a position above p
    last = np.ones(k, dtype=bool)
    last[:-1] = ~same
    early = last & (targets < k)
    src = np.arange(k)
    src[targets[early]] = order[early]
    # each pass halves every chain: ceil(log2(longest chain)) passes, plus one
    # that finds nothing left to resolve
    while True:
        resolved = src[src]
        if np.array_equal(resolved, src):
            break
        src = resolved
    return np.where(prev < 0, draws, src[prev])


def sample_mask(m: int, n: int, sr: float, seed: int):
    """floor(sr * m * n) distinct positions, uniform without replacement.

    The positions are the first k of a Fisher-Yates shuffle of range(m * n)
    drawn from ``philox_rng(seed)``, which ``_partial_fisher_yates`` resolves
    with whole-array numpy passes (a sort of the k draws and pointer
    doubling), giving the positions of the one-swap-per-draw loop.
    Deterministic per seed.  Returns (rows, cols) index arrays sorted
    lexicographically by (row, col).  m and n must be positive integers.
    """
    m, n = _as_count(m, "m"), _as_count(n, "n")
    _as_real(sr, "sampling ratio", "in (0, 1]")
    total = m * n
    # the 1e-9 nudge guards against float undershoot of exact products
    k = int(math.floor(sr * total + 1e-9))
    rng = philox_rng(seed)
    if sr == 1.0:
        lin = np.arange(total, dtype=np.int64)
    else:
        lin = np.sort(_partial_fisher_yates(total, k, rng))
    return np.divmod(lin, n)
