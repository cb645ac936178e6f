import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenmc import sparse_obs
from schattenmc.sparse_obs import (
    SparseObservations,
    SparseResidual,
    grad_u,
    grad_v,
    kernel_madd_count,
    masked_residual,
    reset_kernel_madd_count,
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

    def test_sparse_path_holds_no_flat_index(self):
        # 300 x 300 at 1% observed is above 2**16 cells and below density 1/3
        u, v, _, obs = random_instance(9, m=300, n=300, d=3, sr=0.01)
        assert not sparse_obs._dense_path(obs)
        r = masked_residual(u, v, obs)
        grad_u(r, v)
        grad_v(r, u)
        assert "flat_idx" not in vars(obs)


class TestMaskedResidual:
    def test_zero_factors_give_negated_values(self):
        _, _, dense, obs = random_instance(1)
        r = masked_residual(np.zeros((10, 2)), np.zeros((8, 2)), obs)
        assert np.array_equal(r.values, -obs.values)

    def test_exact_fit_is_zero(self):
        rng = philox(2)
        u = rng.standard_normal((3, 1))
        v = rng.standard_normal((3, 1))
        dense = u @ v.T
        rows, cols = np.divmod(np.arange(9), 3)
        obs = SparseObservations(3, 3, rows, cols, dense[rows, cols])
        r = masked_residual(u, v, obs)
        assert np.abs(r.values).max() < 1e-12

    def test_matches_dense_oracle(self):
        u, v, dense, obs = random_instance(3)
        r = masked_residual(u, v, obs)
        mask = np.zeros((10, 8))
        mask[obs.row_idx, obs.col_idx] = 1.0
        expected = (u @ v.T - dense) * mask
        assert np.abs(r.values - expected[obs.row_idx, obs.col_idx]).max() < 1e-12
        assert r.sq_norm() == pytest.approx(np.sum(expected**2), rel=1e-12)

    def test_dimension_mismatch(self):
        _, _, _, obs = random_instance(4)
        with pytest.raises(ValueError):
            masked_residual(np.zeros((9, 2)), np.zeros((8, 2)), obs)

    def test_madd_counter(self):
        u, v, _, obs = random_instance(5)
        reset_kernel_madd_count()
        masked_residual(u, v, obs)
        assert kernel_madd_count() == obs.nnz * 2


class TestBoundaryChecks:
    """The public kernels reject non-finite factors and mismatched shapes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["u", "v"])
    def test_masked_residual_rejects_non_finite(self, which, bad):
        u, v, _, obs = random_instance(21)
        (u if which == "u" else v)[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            masked_residual(u, v, obs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gradients_reject_non_finite(self, bad):
        u, v, _, obs = random_instance(22)
        r = masked_residual(u, v, obs)
        u[0, 1] = bad
        v[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            grad_u(r, v)
        with pytest.raises(ValueError, match="non-finite"):
            grad_v(r, u)

    def test_shape_mismatches(self):
        u, v, _, obs = random_instance(23)
        for bad_u, bad_v in [
            (u[:-1], v), (u, v[:-1]), (u, v[:, :1]), (u[:, 0], v), (u, v[None])
        ]:
            with pytest.raises(ValueError):
                masked_residual(bad_u, bad_v, obs)
        r = masked_residual(u, v, obs)
        for bad in (v[:-1], v[:, 0], v[None]):
            with pytest.raises(ValueError):
                grad_u(r, bad)
        for bad in (u[:-1], u[:, 0], u[None]):
            with pytest.raises(ValueError):
                grad_v(r, bad)


class TestGradients:
    def test_zero_residual_zero_gradient(self):
        _, v, _, obs = random_instance(6)
        r = SparseResidual(obs, np.zeros(obs.nnz))
        assert np.all(grad_u(r, v) == 0.0)

    def test_single_entry_expansion(self):
        obs = SparseObservations(2, 2, [0], [0], [0.0])
        r = SparseResidual(obs, np.array([2.0]))
        v = np.array([[3.0, 1.0], [0.0, 0.0]])
        g = grad_u(r, v)
        assert g[0].tolist() == [6.0, 2.0]
        assert np.all(g[1] == 0.0)

    def test_single_entry_grad_v(self):
        obs = SparseObservations(2, 2, [0], [1], [0.0])
        r = SparseResidual(obs, np.array([2.0]))
        u = np.array([[1.0, 4.0], [0.0, 0.0]])
        g = grad_v(r, u)
        assert g[1].tolist() == [2.0, 8.0]
        assert np.all(g[0] == 0.0)

    def test_matches_dense_oracle(self):
        u, v, dense, obs = random_instance(7)
        r = masked_residual(u, v, obs)
        mask = np.zeros((10, 8))
        mask[obs.row_idx, obs.col_idx] = 1.0
        rd = (u @ v.T - dense) * mask
        assert np.abs(grad_u(r, v) - rd @ v).max() < 1e-12
        assert np.abs(grad_v(r, u) - rd.T @ u).max() < 1e-12

    def test_finite_difference_oracle(self):
        for seed in range(5):
            u, v, dense, obs = random_instance(100 + seed)

            def loss(uu, vv):
                return 0.5 * masked_residual(uu, vv, obs).sq_norm()

            r = masked_residual(u, v, obs)
            gu = grad_u(r, v)
            gv = grad_v(r, u)
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
        ],
    )
    def test_matches_scalar_draw_loop(self, m, n, sr, seed):
        total = m * n
        k = int(math.floor(sr * total + 1e-9))
        lin = np.sort(reference_partial_fisher_yates(total, k, philox(seed)))
        rows, cols = sample_mask(m, n, sr, seed)
        assert np.array_equal(rows, lin // n) and np.array_equal(cols, lin % n)


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
        (sp_dot(obs, r.values, v), r_dense @ v, reference_sp_dot(obs, r.values, v)),
        (sp_tdot(obs, r.values, u), r_dense.T @ u, reference_sp_tdot(obs, r.values, u)),
        (grad_u(r, v), r_dense @ v, reference_sp_dot(obs, r.values, v)),
        (grad_v(r, u), r_dense.T @ u, reference_sp_tdot(obs, r.values, u)),
    ]
    tol = dict(rtol=1e-12, atol=1e-9)
    assert np.allclose(r.values, r_dense[obs.row_idx, obs.col_idx], **tol)
    for got, oracle, reference in products:
        assert got.shape == oracle.shape and got.dtype == np.float64
        assert np.allclose(got, oracle, **tol)
        if not dense:
            assert np.array_equal(got, reference)
    if not dense:
        pred = np.einsum("ij,ij->i", u[obs.row_idx], v[obs.col_idx])
        assert np.array_equal(r.values, pred - obs.values)


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
        r = masked_residual(u, v, obs).values
        outer = np.outer(u[:, 0], v[:, 0])[obs.row_idx, obs.col_idx]
        assert np.array_equal(r, outer - obs.values)
        # zero data and signed-zero factors: the residual is the product's own
        # bits, which must be those of `@` (0.0 + u v, never -0.0)
        zero = SparseObservations(obs.m, obs.n, obs.row_idx, obs.col_idx, np.zeros(obs.nnz))
        u[::3] = -0.0
        got = masked_residual(u, v, zero).values
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
