import io
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenmc import sparse_obs
from schattenmc.data import GrayImage, corrupt_image, gen_synthetic, parse_movielens
from schattenmc.linalg import thin_svd
from schattenmc.palm import SolverConfig, solve
from schattenmc.quasinorm import FactorPair, Regularizer
from schattenmc.sparse_obs import (
    SparseObservations,
    kernel_madd_count,
    masked_residual,
    sample_mask,
    sp_dot,
    sp_tdot,
)

from conftest import philox


def _scatter_rows(idx, weights, rows, d):
    # reference: the per-column scatter over a gathered (nnz, d) block that
    # the sparse kernel path must reproduce bit for bit
    out = np.empty((rows, d))
    for k in range(d):
        out[:, k] = np.bincount(idx, weights=weights[:, k], minlength=rows)
    return out


def reference_sp_dot(obs, values, x):
    return _scatter_rows(obs.row_idx, values[:, None] * x[obs.col_idx], obs.m, x.shape[1])


def reference_sp_tdot(obs, values, x):
    return _scatter_rows(obs.col_idx, values[:, None] * x[obs.row_idx], obs.n, x.shape[1])


def reference_partial_fisher_yates(total, k, rng):
    # reference: one scalar draw per position
    swapped = {}
    out = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = int(rng.integers(i, total))
        out[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    return out


def random_instance(seed, m=10, n=8, d=2, sr=0.25):
    rng = philox(seed)
    u = rng.standard_normal((m, d))
    v = rng.standard_normal((n, d))
    dense = rng.standard_normal((m, n))
    rows, cols = sample_mask(m, n, sr, seed + 1)
    obs = SparseObservations(m, n, rows, cols, dense[rows, cols])
    return u, v, dense, obs


class TestSparseObservations:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseObservations(3, 3, [0, 0], [1, 1], [1.0, 2.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SparseObservations(3, 3, [1, 0], [0, 0], [1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseObservations(3, 3, [0], [3], [1.0])

    @pytest.mark.parametrize("m, n", [(-1, 5), (5, -1), (0, 0), (0, 4), (2.5, 3), (3, 3.0), (True, 3)])
    def test_rejects_bad_dimensions(self, m, n):
        with pytest.raises(ValueError, match="positive integer"):
            SparseObservations(m, n, [], [], [])

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([0.7, 1.9], [1.2, 0.0]),  # would truncate to rows [0, 1], cols [1, 0]
            ([0, 1], [1.0, 0.0]),
            ([False, True], [1, 0]),
            (np.array([0, 1], dtype=object), [1, 0]),
        ],
    )
    def test_rejects_non_integer_indices(self, rows, cols):
        with pytest.raises(ValueError, match="must hold integers"):
            SparseObservations(2, 2, rows, cols, [1.0, 2.0])

    def test_integer_indices_of_any_width(self):
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            obs = SparseObservations(2, 2, np.array([0, 1], dtype), np.array([1, 0], dtype), [1.0, 2.0])
            assert obs.row_idx.dtype == obs.col_idx.dtype == np.int64
            assert obs.row_idx.tolist() == [0, 1] and obs.col_idx.tolist() == [1, 0]
        empty = SparseObservations(2, 2, [], [], [])
        assert empty.nnz == 0 and empty.row_idx.dtype == np.int64
        # int64 arrays, such as a split's, are kept, not copied
        rows, cols = np.array([0, 1], np.int64), np.array([1, 0], np.int64)
        obs = SparseObservations(2, 2, rows, cols, [1.0, 2.0])
        assert obs.row_idx is rows and obs.col_idx is cols

    def test_numpy_integer_dimensions(self):
        obs = SparseObservations(np.int64(2), np.int32(3), [1], [2], [1.0])
        assert (obs.m, obs.n) == (2, 3) and type(obs.m) is int and type(obs.n) is int

    def test_row_counts(self):
        obs = SparseObservations(4, 3, [0, 0, 2, 3], [0, 2, 1, 1], [1.0, 2.0, 3.0, 4.0])
        assert obs.row_counts.tolist() == [2, 0, 1, 1]
        assert "row_counts" not in repr(obs)

    def test_dense_roundtrip(self):
        obs = SparseObservations(2, 2, [0, 1], [1, 0], [3.0, 4.0])
        assert obs.dense().tolist() == [[0.0, 3.0], [4.0, 0.0]]

    def test_flat_index_is_computed_on_first_use(self):
        obs = SparseObservations(3, 4, [0, 1, 2], [3, 0, 2], [1.0, 2.0, 3.0])
        assert "flat_idx" not in vars(obs)
        assert obs.flat_idx.tolist() == [3, 4, 10]
        assert "flat_idx" in vars(obs)

    def test_dense_path_holds_no_row_pointers(self):
        u, v, _, obs = random_instance(8)
        assert sparse_obs._dense_path(obs)
        r = masked_residual(u, v, obs)
        sp_dot(obs, r, v)
        sp_tdot(obs, r, u)
        solve(obs, SolverConfig(reg=Regularizer.BIN, lam=1.0, d=2, max_iters=3))
        assert "indptr" not in vars(obs)

    @pytest.mark.parametrize("first", ["sp_dot", "sp_tdot"])
    def test_row_pointers_are_built_by_the_first_sparse_product(self, first):
        u, v, _, obs = random_instance(10, m=300, n=300, d=3, sr=0.01)
        assert not sparse_obs._dense_path(obs)
        r = masked_residual(u, v, obs)
        assert "indptr" not in vars(obs)
        sp_dot(obs, r, v) if first == "sp_dot" else sp_tdot(obs, r, u)
        assert "indptr" in vars(obs)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([], []),
            ([2], [1]),
            ([0, 0, 0, 1, 3, 3], [0, 1, 3, 2, 0, 2]),
            ([1, 1, 1, 1, 2, 4], [0, 1, 2, 3, 2, 1]),
            ([0, 1, 2, 3, 4], [3, 3, 3, 3, 3]),  # one column; columns 0-2 empty
        ],
    )
    def test_row_pointers(self, rows, cols):
        _check_row_pointers(SparseObservations(5, 4, rows, cols, np.arange(len(rows), dtype=float)))

    def test_row_pointers_of_large_sets(self):
        for lin in _LAYOUT_SETS.values():
            _check_row_pointers(_instance(300, 250, lin, 1, 14)[0])

    def test_sparse_path_holds_no_flat_index(self):
        # 300 x 300 at 1% observed is above 2**16 cells and below density 1/3
        u, v, _, obs = random_instance(9, m=300, n=300, d=3, sr=0.01)
        assert not sparse_obs._dense_path(obs)
        r = masked_residual(u, v, obs)
        sp_dot(obs, r, v)
        sp_tdot(obs, r, u)
        assert "flat_idx" not in vars(obs)


_LAZY_SCIPY = textwrap.dedent(
    """
    import sys

    import numpy as np

    import schattenmc
    from schattenmc.cli import main
    from schattenmc.sparse_obs import _dense_path, sp_dot

    inst = schattenmc.gen_synthetic(30, 30, 2, 0.1, 0.5, 1)
    assert _dense_path(inst.observations)
    schattenmc.solve(
        inst.observations, schattenmc.SolverConfig(reg=schattenmc.Regularizer.FN, lam=1.0, d=3)
    )
    args = ["synth", "--m", "20", "--n", "20", "--rank", "2", "--sr", "0.5"]
    assert main(args + ["--max-iters", "5", "--out", sys.argv[1]]) == 0
    assert "scipy" not in sys.modules, "a dense-path run imported scipy"

    rows, cols = schattenmc.sample_mask(300, 300, 0.01, 1)
    obs = schattenmc.SparseObservations(300, 300, rows, cols, np.ones(rows.size))
    assert not _dense_path(obs)
    sp_dot(obs, obs.values, np.ones((300, 2)))
    assert "scipy" in sys.modules, "a sparse-path product ran without scipy"
    """
)


def test_scipy_is_imported_by_the_first_sparse_product(tmp_path):
    # importing scipy.sparse takes ~0.1 s, which a process that only takes
    # the dense path must not pay; a fresh interpreter shows what is loaded
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY, str(tmp_path / "synth")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _check_row_pointers(obs):
    indptr = obs.indptr
    assert indptr.dtype == np.int64 and indptr.shape == (obs.m + 1,)
    assert indptr[0] == 0 and indptr[-1] == obs.nnz
    # row i owns entries indptr[i]:indptr[i + 1], and no others
    assert np.array_equal(np.repeat(np.arange(obs.m), np.diff(indptr)), obs.row_idx)
    assert np.array_equal(obs.row_counts, np.bincount(obs.row_idx, minlength=obs.m))


def _diagonal_set():
    return SparseObservations(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])


# each builds a new instance of a frozen dataclass with array fields, equal in
# every field to the one the previous call built
ARRAY_DATACLASSES = {
    "SparseObservations": _diagonal_set,
    "FactorPair": lambda: FactorPair(np.ones((3, 2)), np.ones((3, 2))),
    "ThinSVD": lambda: thin_svd(np.eye(3)),
    "SolveReport": lambda: solve(
        _diagonal_set(), SolverConfig(reg=Regularizer.FN, lam=1.0, d=2, max_iters=2)
    ),
    "RatingSet": lambda: parse_movielens(io.StringIO("1::2::3\n2::1::4\n3::3::5\n")),
    "SyntheticInstance": lambda: gen_synthetic(4, 3, 1, 0.0, 1.0, 0),
    "GrayImage": lambda: GrayImage(np.zeros((2, 2), dtype=np.uint8)),
    "Corruption": lambda: corrupt_image(
        GrayImage(np.zeros((4, 4), dtype=np.uint8)), 0.5, 1.0, 0
    )[1],
}


@pytest.mark.parametrize("name", list(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_and_hash_by_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestMaskedResidual:
    def test_zero_factors_give_negated_values(self):
        _, _, dense, obs = random_instance(1)
        r = masked_residual(np.zeros((10, 2)), np.zeros((8, 2)), obs)
        assert r.shape == (obs.nnz,) and r.dtype == np.float64
        assert np.array_equal(r, -obs.values)

    def test_exact_fit_is_zero(self):
        rng = philox(2)
        u = rng.standard_normal((3, 1))
        v = rng.standard_normal((3, 1))
        dense = u @ v.T
        rows, cols = np.divmod(np.arange(9), 3)
        obs = SparseObservations(3, 3, rows, cols, dense[rows, cols])
        r = masked_residual(u, v, obs)
        assert np.abs(r).max() < 1e-12

    def test_matches_dense_oracle(self):
        u, v, dense, obs = random_instance(3)
        r = masked_residual(u, v, obs)
        mask = np.zeros((10, 8))
        mask[obs.row_idx, obs.col_idx] = 1.0
        expected = (u @ v.T - dense) * mask
        assert np.abs(r - expected[obs.row_idx, obs.col_idx]).max() < 1e-12
        assert float(r @ r) == pytest.approx(np.sum(expected**2), rel=1e-12)

    def test_dimension_mismatch(self):
        _, _, _, obs = random_instance(4)
        with pytest.raises(ValueError):
            masked_residual(np.zeros((9, 2)), np.zeros((8, 2)), obs)

    def test_madd_counter(self):
        u, v, _, obs = random_instance(5)
        start = kernel_madd_count()
        masked_residual(u, v, obs)
        assert kernel_madd_count() - start == obs.nnz * 2


class TestBoundaryChecks:
    """masked_residual rejects non-finite factors and mismatched shapes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["u", "v"])
    def test_masked_residual_rejects_non_finite(self, which, bad):
        u, v, _, obs = random_instance(21)
        (u if which == "u" else v)[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            masked_residual(u, v, obs)

    def test_shape_mismatches(self):
        u, v, _, obs = random_instance(23)
        for bad_u, bad_v in [
            (u[:-1], v), (u, v[:-1]), (u, v[:, :1]), (u[:, 0], v), (u, v[None])
        ]:
            with pytest.raises(ValueError):
                masked_residual(bad_u, bad_v, obs)


class TestGradients:
    """sp_dot(obs, r, v) and sp_tdot(obs, r, u) are the loss gradients R V
    and R^T U at the residual values r."""

    def test_zero_residual_zero_gradient(self):
        _, v, _, obs = random_instance(6)
        assert np.all(sp_dot(obs, np.zeros(obs.nnz), v) == 0.0)

    def test_single_entry_expansion(self):
        obs = SparseObservations(2, 2, [0], [0], [0.0])
        v = np.array([[3.0, 1.0], [0.0, 0.0]])
        g = sp_dot(obs, np.array([2.0]), v)
        assert g[0].tolist() == [6.0, 2.0]
        assert np.all(g[1] == 0.0)

    def test_single_entry_grad_v(self):
        obs = SparseObservations(2, 2, [0], [1], [0.0])
        u = np.array([[1.0, 4.0], [0.0, 0.0]])
        g = sp_tdot(obs, np.array([2.0]), u)
        assert g[1].tolist() == [2.0, 8.0]
        assert np.all(g[0] == 0.0)

    def test_matches_dense_oracle(self):
        u, v, dense, obs = random_instance(7)
        r = masked_residual(u, v, obs)
        mask = np.zeros((10, 8))
        mask[obs.row_idx, obs.col_idx] = 1.0
        rd = (u @ v.T - dense) * mask
        assert np.abs(sp_dot(obs, r, v) - rd @ v).max() < 1e-12
        assert np.abs(sp_tdot(obs, r, u) - rd.T @ u).max() < 1e-12

    def test_finite_difference_oracle(self):
        for seed in range(5):
            u, v, dense, obs = random_instance(100 + seed)

            def loss(uu, vv):
                r = masked_residual(uu, vv, obs)
                return 0.5 * float(r @ r)

            r = masked_residual(u, v, obs)
            gu = sp_dot(obs, r, v)
            gv = sp_tdot(obs, r, u)
            h = 1e-6
            fd_u = np.zeros_like(u)
            for i in range(u.shape[0]):
                for j in range(u.shape[1]):
                    up, um = u.copy(), u.copy()
                    up[i, j] += h
                    um[i, j] -= h
                    fd_u[i, j] = (loss(up, v) - loss(um, v)) / (2 * h)
            fd_v = np.zeros_like(v)
            for i in range(v.shape[0]):
                for j in range(v.shape[1]):
                    vp, vm = v.copy(), v.copy()
                    vp[i, j] += h
                    vm[i, j] -= h
                    fd_v[i, j] = (loss(u, vp) - loss(u, vm)) / (2 * h)
            assert np.linalg.norm(fd_u - gu) / np.linalg.norm(gu) < 1e-5
            assert np.linalg.norm(fd_v - gv) / np.linalg.norm(gv) < 1e-5


class TestSampleMask:
    def test_full_sampling(self):
        rows, cols = sample_mask(3, 4, 1.0, 0)
        assert rows.size == 12
        assert len(set(zip(rows.tolist(), cols.tolist()))) == 12

    def test_exact_count(self):
        rows, _ = sample_mask(100, 100, 0.2, 1)
        assert rows.size == 2000

    def test_distinct_and_in_range(self):
        rows, cols = sample_mask(15, 11, 0.4, 2)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        assert rows.min() >= 0 and rows.max() < 15
        assert cols.min() >= 0 and cols.max() < 11

    def test_deterministic_per_seed(self):
        a = sample_mask(20, 20, 0.3, 7)
        b = sample_mask(20, 20, 0.3, 7)
        c = sample_mask(20, 20, 0.3, 8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))

    def test_sorted_output(self):
        rows, cols = sample_mask(9, 9, 0.5, 3)
        key = rows * 9 + cols
        assert np.all(np.diff(key) > 0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            sample_mask(4, 4, 0.0, 0)
        with pytest.raises(ValueError):
            sample_mask(4, 4, 1.5, 0)

    def test_floor_of_inexact_product(self):
        rows, _ = sample_mask(10, 10, 0.29, 5)
        assert rows.size == 29

    @pytest.mark.parametrize(
        "m, n, sr, seed",
        [
            (20, 20, 0.3, 7),
            (256, 256, 0.5, 1),
            (100, 37, 0.99, 4),
            (1, 1000, 0.01, 0),
            (2**16, 2**16, 1e-7, 3),  # total = 2**32
            (100_000, 50_000, 1e-7, 9),  # total above 2**32
            (1, 3, 0.3, 0),  # k = 0
            (20, 20, 0.9975, 2),  # k = total - 1
            (512, 512, 0.5, 6),  # two 16-bit sort digits, many repeated targets
            (2**31, 2**31, 2e-18, 5),  # total = 2**62, k = 9: no int64 overflow
        ],
    )
    def test_matches_scalar_draw_loop(self, m, n, sr, seed):
        total = m * n
        k = int(math.floor(sr * total + 1e-9))
        lin = np.sort(reference_partial_fisher_yates(total, k, philox(seed)))
        rows, cols = sample_mask(m, n, sr, seed)
        assert np.array_equal(rows, lin // n) and np.array_equal(cols, lin % n)

    @settings(max_examples=300, deadline=None)
    @given(total=st.integers(1, 400), frac=st.floats(0, 1), seed=st.integers(0, 2**64 - 1))
    def test_partial_shuffle_matches_scalar_draw_loop(self, total, frac, seed):
        k = int(frac * total)  # 0 <= k <= total
        out = sparse_obs._partial_fisher_yates(total, k, philox(seed))
        assert out.dtype == np.int64
        assert np.array_equal(out, reference_partial_fisher_yates(total, k, philox(seed)))

    @settings(max_examples=200, deadline=None)
    @given(digits=st.lists(st.tuples(*[st.integers(0, 2)] * 4), max_size=40))
    def test_stable_order_sorts_every_digit(self, digits):
        # keys that share low 16-bit digits and differ only above them
        keys = np.array([a + (b << 16) + (c << 32) + (d << 48) for a, b, c, d in digits], dtype=np.int64)
        order = sparse_obs._stable_order(keys, 2**62)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize(
        "m, n, name",
        [(4.0, 4, "m"), (True, 4, "m"), (0, 4, "m"), (-2, 4, "m"), (4, 2.0, "n"), (4, 0, "n")],
    )
    def test_rejects_sizes_that_are_not_positive_integers(self, m, n, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            sample_mask(m, n, 0.5, 1)


def _instance(m, n, lin, d, seed):
    rng = philox(seed)
    lin = np.sort(np.asarray(lin, dtype=np.int64))
    obs = SparseObservations(m, n, lin // n, lin % n, rng.uniform(-10, 10, lin.size))
    u = rng.uniform(-10, 10, (m, d))
    v = rng.uniform(-10, 10, (n, d))
    return obs, u, v


def _check_kernels(obs, u, v, dense):
    """Kernels against a dense oracle; bit-exact against the reference on the sparse path."""
    assert sparse_obs._dense_path(obs) == dense
    mask = np.zeros((obs.m, obs.n))
    mask[obs.row_idx, obs.col_idx] = 1.0
    r_dense = (u @ v.T - obs.dense()) * mask
    start = kernel_madd_count()
    r = masked_residual(u, v, obs)
    assert kernel_madd_count() - start == obs.nnz * u.shape[1]
    products = [
        (sp_dot(obs, r, v), r_dense @ v, reference_sp_dot(obs, r, v)),
        (sp_tdot(obs, r, u), r_dense.T @ u, reference_sp_tdot(obs, r, u)),
    ]
    tol = dict(rtol=1e-12, atol=1e-9)
    assert np.allclose(r, r_dense[obs.row_idx, obs.col_idx], **tol)
    for got, oracle, reference in products:
        assert got.shape == oracle.shape and got.dtype == np.float64
        assert np.allclose(got, oracle, **tol)
        if not dense:
            assert np.array_equal(got, reference)
    if not dense:
        pred = np.einsum("ij,ij->i", u[obs.row_idx], v[obs.col_idx])
        assert np.array_equal(r, pred - obs.values)


def _min_dense_nnz(m, n):
    # the kernels take the dense path exactly when m * n <= max(3 * nnz, 2**16);
    # this is the least such nnz
    total = m * n
    return 0 if total <= 2**16 else -(-total // 3)


@st.composite
def kernel_instances(draw, dense):
    if dense:
        # small shapes, always dense, and shapes around the 2**16 cap
        dims = st.integers(min_value=1, max_value=40) | st.integers(min_value=250, max_value=300)
        m, n = draw(dims), draw(dims)
    else:
        # only sets of more than 2**16 cells reach the sparse path: from
        # 1 x (2**16 + 1) to 300 x 219
        m = draw(st.integers(min_value=1, max_value=300))
        n = draw(st.integers(min_value=2**16 // m + 1, max_value=2**16 // m + 300))
    d = draw(st.integers(min_value=1, max_value=12))
    total = m * n
    cut = _min_dense_nnz(m, n)
    lo, hi = (cut, total) if dense else (0, cut - 1)
    nnz = draw(st.integers(min_value=lo, max_value=hi))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    lin = philox(seed + 1).choice(total, nnz, replace=False)
    return _instance(m, n, lin, d, seed)


class TestKernelPaths:
    @settings(max_examples=60, deadline=None)
    @given(inst=kernel_instances(dense=True))
    def test_dense_path_matches_oracle(self, inst):
        _check_kernels(*inst, dense=True)

    @settings(max_examples=60, deadline=None)
    @given(inst=kernel_instances(dense=False))
    def test_sparse_path_matches_oracle_and_reference(self, inst):
        _check_kernels(*inst, dense=False)

    @pytest.mark.parametrize(
        "m, n, lin, d, dense",
        [
            (1, 1, [0], 1, True),  # nnz = 1, d = 1
            (2, 2, [3], 3, True),  # nnz = 1; at most 2**16 cells is dense at any density
            (4, 1, [], 1, True),  # no observations at all
            (3, 4, [0, 1, 2, 3], 2, True),  # m * n == 3 * nnz; rows 1, 2 empty
            (3, 4, [0, 1, 2], 1, True),  # below density 1/3
            (6, 5, [0, 5, 10, 15, 20, 25], 2, True),  # only column 0 observed
            (5, 6, [0, 1, 2, 3, 4, 5, 24, 25, 26, 27], 4, True),  # empty middle rows
            (10, 10, range(0, 100, 5), 5, True),  # m * n == nnz * d, 3 * nnz < m * n
            (10, 10, range(0, 95, 5), 5, True),  # one entry fewer: d does not decide
            (10, 10, range(33), 1, True),  # d = 1 just below density 1/3
            (256, 256, range(0, 2**16, 4), 4, True),  # m * n == 2**16, density 1/4
            (1, 2**16 + 1, range(0, 2**16 + 1, 4), 4, False),  # nnz * d >= m * n above the cap
            (100, 100, range(0, 10**4, 5), 6, True),  # the synthetic protocol: 2000 entries, d = 6
            # sparse corners, all above 2**16 cells
            (300, 250, [], 3, False),  # no observations at all
            (300, 250, [74_999], 3, False),  # nnz = 1, the last cell
            (300, 250, range(24_999), 4, False),  # one entry short of density 1/3
            (300, 250, range(25_000), 4, True),  # m * n == 3 * nnz
            (300, 250, range(0, 75_000, 250), 2, False),  # only column 0 observed
            # rows 0-99 and 200-299 and every odd column empty
            (300, 250, [r * 250 + c for r in range(100, 200) for c in range(0, 250, 2)], 5, False),
            (2**16 + 1, 1, range(0, 2**16 + 1, 4), 1, False),  # a single column, d = 1
        ],
    )
    def test_corner_cases(self, m, n, lin, d, dense):
        _check_kernels(*_instance(m, n, lin, d, 5), dense=dense)

    def test_dense_residual_at_d1_is_the_outer_product(self):
        obs, u, v = _instance(100, 100, range(0, 10**4, 2), 1, 7)
        assert sparse_obs._dense_path(obs)
        r = masked_residual(u, v, obs)
        outer = np.outer(u[:, 0], v[:, 0])[obs.row_idx, obs.col_idx]
        assert np.array_equal(r, outer - obs.values)
        # zero data and signed-zero factors: the residual is the product's own
        # bits, which must be those of `@` (0.0 + u v, never -0.0)
        zero = SparseObservations(obs.m, obs.n, obs.row_idx, obs.col_idx, np.zeros(obs.nnz))
        u[::3] = -0.0
        got = masked_residual(u, v, zero)
        assert got.tobytes() == (u @ v.T)[zero.row_idx, zero.col_idx].tobytes()

    @pytest.mark.parametrize(
        "m, n, nnz, dense",
        [
            (100, 100, 2000, True),  # synth-protocol
            (256, 256, 32_768, True),  # image-256: half the pixels kept
            (6040, 3706, 500_000, False),  # ratings-1m: the training half
        ],
    )
    def test_benchmark_shapes_keep_their_path(self, m, n, nnz, dense):
        lin = np.arange(nnz) * (m * n // nnz)
        obs = SparseObservations(m, n, lin // n, lin % n, np.zeros(nnz))
        assert sparse_obs._dense_path(obs) == dense


# flat positions of the entries of 300 x 250 sets, all on the sparse path
_BLOCK_SETS = {
    # 5 entries in each of rows 0-99: every block size below splits some rows
    "rows straddle block edges": [r * 250 + c for r in range(100) for c in range(0, 250, 50)],
    # rows 0-99 and 200-299 and every odd column empty
    "empty rows": [r * 250 + c for r in range(100, 200) for c in range(0, 250, 2)],
    # row 150 holds 240 of the 289 entries, every sixth other row one entry
    "one row holds most entries": sorted(
        [150 * 250 + c for c in range(240)]
        + [r * 250 + r % 250 for r in range(0, 300, 6) if r != 150]
    ),
    "single-entry rows": [r * 250 + (7 * r) % 250 for r in range(300)],
}


@pytest.mark.parametrize("name", list(_BLOCK_SETS))
@pytest.mark.parametrize(
    "block",
    [lambda nnz: 1, lambda nnz: 7, lambda nnz: nnz - 1, lambda nnz: nnz],
    ids=["1", "7", "nnz-1", "nnz"],
)
def test_blocked_residual_is_bit_identical(monkeypatch, name, block):
    # _check_kernels requires the residual to equal the unblocked einsum and
    # sp_dot / sp_tdot the reference scatter, bit for bit
    obs, u, v = _instance(300, 250, _BLOCK_SETS[name], 6, 11)
    monkeypatch.setattr(sparse_obs, "_BLOCK", block(obs.nnz))
    assert obs.nnz >= sparse_obs._BLOCK
    _check_kernels(obs, u, v, dense=False)


def test_sparse_residual_allocates_no_nnz_by_d_block():
    # 1000 x 1000 at 10% observed, d = 20: one (nnz, d) float64 block is 16 MB
    d, nnz = 20, 100_000
    lin = philox(12).choice(10**6, nnz, replace=False)
    obs, u, v = _instance(1000, 1000, lin, d, 12)
    assert not sparse_obs._dense_path(obs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        masked_residual(u, v, obs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the nnz result, plus two (block, d) gathers and their index slices
    assert peak <= 8 * 2 * nnz + 8 * 3 * sparse_obs._BLOCK * d
    assert peak < 8 * nnz * d


def _with_layout(x, layout):
    """A copy of x (1-D or 2-D) with the same values in the given memory layout."""
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "column-strided":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    x = np.array(x, order="C")
    if layout == "read-only":
        x.flags.writeable = False
    return x


_LAYOUT_SETS = {
    "rows straddle block edges": _BLOCK_SETS["rows straddle block edges"],
    # rows 0 and 299 empty, so the row pointers start and end with empty rows
    "first and last rows empty": [
        r * 250 + c for r in range(1, 299) for c in range(r % 4, 250, 4)
    ],
    # columns 0-9 and 240-249 empty, so sp_tdot's first and last output rows
    # get no terms
    "first and last columns empty": [
        r * 250 + c for r in range(300) for c in range(10 + r % 5, 240, 5)
    ],
    # column 125 holds 300 of the 349 entries, every fifth other column one
    "one column holds most entries": sorted(
        [r * 250 + 125 for r in range(300)]
        + [(c % 300) * 250 + c for c in range(0, 250, 5) if c != 125]
    ),
}


def _kernel_outputs(obs, u, v, values):
    return [masked_residual(u, v, obs), sp_dot(obs, values, v), sp_tdot(obs, values, u)]


@pytest.mark.parametrize("layout", ["fortran", "column-strided", "read-only"])
@pytest.mark.parametrize("d", [1, 6])
@pytest.mark.parametrize("name", list(_LAYOUT_SETS))
def test_sparse_kernels_give_the_same_bits_for_any_factor_layout(name, d, layout):
    # np.take copies factor rows into new C-contiguous arrays and scipy reads
    # factors through their C-order ravel, so the products and sums see the
    # same operands; _check_kernels holds sp_dot and sp_tdot to the
    # reference scatter
    obs, u, v = _instance(300, 250, _LAYOUT_SETS[name], d, 13)
    assert not sparse_obs._dense_path(obs)
    _check_kernels(obs, u, v, dense=False)
    values = masked_residual(u, v, obs)
    reference = _kernel_outputs(obs, u, v, values)
    got = _kernel_outputs(
        obs, _with_layout(u, layout), _with_layout(v, layout), _with_layout(values, layout)
    )
    for g, ref in zip(got, reference):
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()
