import numpy as np
import pytest

from schattenmc.sparse_obs import (
    SparseObservations,
    SparseResidual,
    grad_u,
    grad_v,
    kernel_madd_count,
    masked_residual,
    reset_kernel_madd_count,
    sample_mask,
)

from conftest import philox


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

    def test_from_entries_sorts(self):
        obs = SparseObservations.from_entries(3, 3, [2, 0], [1, 2], [5.0, 7.0])
        assert obs.row_idx.tolist() == [0, 2]
        assert obs.values.tolist() == [7.0, 5.0]

    def test_dense_roundtrip(self):
        obs = SparseObservations(2, 2, [0, 1], [1, 0], [3.0, 4.0])
        assert obs.dense().tolist() == [[0.0, 3.0], [4.0, 0.0]]


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
