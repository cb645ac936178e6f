import io
import math

import numpy as np
import pytest

from schattenmc.data import gen_synthetic, parse_movielens
from schattenmc.metrics import bound_terms, psnr, rmse, rse
from schattenmc.palm import SolverConfig, optimality_residual, solve
from schattenmc.quasinorm import FactorPair, Regularizer
from schattenmc.sparse_obs import SparseObservations, _dense_path, sample_mask

from conftest import philox


class TestRse:
    def test_identical(self):
        z = philox(1).standard_normal((4, 4))
        assert rse(z, z) == 0.0

    def test_double(self):
        z = philox(2).standard_normal((4, 4))
        assert rse(2 * z, z) == pytest.approx(1.0, rel=1e-12)

    def test_zero_estimate(self):
        z = philox(3).standard_normal((4, 4))
        assert rse(np.zeros_like(z), z) == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = philox(4)
        x, z = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        for a in (-3.0, 0.25):
            assert rse(a * x, a * z) == pytest.approx(rse(x, z), rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            rse(np.ones((2, 2)), np.zeros((2, 2)))


class TestRmse:
    def fixture(self):
        return parse_movielens(
            io.StringIO("1::1::3.0\n1::2::4.0\n2::1::2.0\n2::2::5.0\n3::1::1.0\n")
        )

    def test_perfect_predictions(self):
        test = self.fixture()
        u = np.zeros((3, 2))
        v = np.zeros((2, 2))
        # build factors reproducing the ratings exactly on test pairs
        dense = np.array([[3.0, 4.0], [2.0, 5.0], [1.0, 0.0]])
        w, s, vt = np.linalg.svd(dense, full_matrices=False)
        fp = FactorPair(w * s, vt.T)
        assert rmse(fp, test) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_off_by_two(self):
        test = parse_movielens(io.StringIO("1::1::3.0\n"))
        fp = FactorPair(np.array([[5.0]]), np.array([[1.0]]))
        assert rmse(fp, test) == pytest.approx(2.0)

    def test_hand_computed_fixture(self):
        test = self.fixture()
        fp = FactorPair(np.ones((3, 1)), np.ones((2, 1)))  # predicts 1 everywhere
        expected = math.sqrt((4.0 + 9.0 + 1.0 + 16.0 + 0.0) / 5.0)
        assert rmse(fp, test) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self):
        lines = ["1::1::3.0", "1::2::4.0", "2::1::2.0"]
        fp = FactorPair(philox(5).standard_normal((2, 2)), philox(6).standard_normal((2, 2)))
        a = rmse(fp, parse_movielens(io.StringIO("\n".join(lines))))
        b = rmse(fp, parse_movielens(io.StringIO("\n".join(reversed(lines)))))
        assert a == pytest.approx(b, rel=1e-12)

    @staticmethod
    def gather_einsum_rmse(fp, test):
        # the formula rmse used before it went through masked_residual
        pred = np.einsum("ij,ij->i", fp.u[test.row_idx], fp.v[test.col_idx])
        err = pred - test.values
        return math.sqrt(float(err @ err) / err.size)

    @pytest.mark.parametrize("m, n, sr, dense", [(300, 250, 0.02, False), (30, 20, 0.8, True)])
    def test_matches_gather_einsum(self, m, n, sr, dense):
        rng = philox(10)
        rows, cols = sample_mask(m, n, sr, 11)
        test = SparseObservations(m, n, rows, cols, rng.uniform(1, 5, rows.size))
        fp = FactorPair(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
        assert _dense_path(test) == dense
        expected = self.gather_einsum_rmse(fp, test)
        if dense:
            assert rmse(fp, test) == pytest.approx(expected, rel=1e-12)
        else:
            assert rmse(fp, test) == expected

    def test_empty_test_set(self):
        fp = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="empty test set"):
            rmse(fp, SparseObservations(2, 2, [], [], []))


class TestPsnr:
    def test_uniform_offset_16(self):
        z = np.zeros((8, 8))
        x = z + 16.0
        assert psnr(x, z) == pytest.approx(10 * math.log10(255**2 / 256), rel=1e-12)
        assert psnr(x, z) == pytest.approx(24.0484, abs=1e-3)

    def test_uniform_offset_1(self):
        z = np.zeros((4, 4))
        assert psnr(z + 1.0, z) == pytest.approx(10 * math.log10(255**2), rel=1e-12)
        assert psnr(z + 1.0, z) == pytest.approx(48.1308, abs=1e-3)

    def test_identical_inputs_infinite(self):
        z = philox(7).standard_normal((3, 3))
        assert math.isinf(psnr(z, z))

    def test_hand_computed(self):
        x = np.array([[10.0, 20.0]])
        z = np.array([[13.0, 16.0]])
        mse = (9.0 + 16.0) / 2.0
        assert psnr(x, z) == pytest.approx(10 * math.log10(255**2 / mse), rel=1e-9)

    @pytest.mark.parametrize("max_value", [0.0, -255.0, math.nan, math.inf, -math.inf])
    def test_rejects_max_value_outside_the_positive_reals(self, max_value):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="max_value must be finite and positive"):
            psnr(z + 1.0, z, max_value)


class TestBoundTerms:
    def test_beta_constant_observations(self):
        obs = SparseObservations(2, 2, [0, 1], [0, 1], [3.0, 3.0])
        fp = FactorPair(np.zeros((2, 1)), np.zeros((2, 1)))
        assert bound_terms(obs, fp, 1.0, 1).beta == 3.0

    def test_sample_term_formula(self):
        m, n, d = 50, 40, 4
        rng = philox(8)
        rows = np.repeat(np.arange(m), 2)
        cols = np.tile(np.arange(2), m)
        obs = SparseObservations(m, n, rows, cols, rng.standard_normal(rows.size))
        fp = FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
        bt = bound_terms(obs, fp, 2.0, d)
        expected = (m * d * math.log(m) / obs.nnz) ** 0.25
        assert bt.sample_term == pytest.approx(expected, rel=1e-12)

    def test_sample_term_unity(self):
        # |omega| == m * d * log(m) makes the term exactly 1
        m, d = 64, 3
        nnz = m * d * math.log(m)
        assert (m * d * math.log(m) / nnz) ** 0.25 == pytest.approx(1.0)

    def test_degenerate_zero_residual(self):
        rng = philox(9)
        u = rng.standard_normal((3, 1))
        v = rng.standard_normal((3, 1))
        dense = u @ v.T
        rows, cols = np.divmod(np.arange(9), 3)
        obs = SparseObservations(3, 3, rows, cols, dense[rows, cols])
        bt = bound_terms(obs, FactorPair(u, v), 1.0, 1)
        assert bt.degenerate
        assert math.isinf(bt.c2)

    def test_c2_lower_formula(self):
        obs = SparseObservations(2, 2, [0, 1], [0, 1], [3.0, 4.0])
        fp = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
        bt = bound_terms(obs, fp, 6.0, 1)
        assert bt.c2_lower == pytest.approx((2 * 6.0 / 3) / 5.0, rel=1e-12)

    def test_matches_fn_solve_optimality(self):
        inst = gen_synthetic(30, 25, 2, 0.1, 0.5, 17)
        cfg = SolverConfig(Regularizer.FN, 5.0, 3, max_iters=50)
        report = solve(inst.observations, cfg)
        bt = bound_terms(inst.observations, report.factors, cfg.lam, cfg.d)
        opt = report.optimality
        assert (bt.c2, bt.c2_lower, bt.degenerate) == (opt.c2, opt.c2_lower, opt.degenerate)
        # the solve's own diagnostics stand in for a second optimality pass
        assert bound_terms(inst.observations, report.factors, cfg.lam, cfg.d, opt) == bt

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_rejects_lam_outside_the_finite_non_negatives(self, lam):
        # with or without the optimality report, which was taken at lam 1
        obs = SparseObservations(2, 2, [0, 1], [0, 1], [3.0, 4.0])
        fp = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
        opt = optimality_residual(fp, obs, SolverConfig(Regularizer.FN, 1.0, 1))
        for report in (None, opt):
            with pytest.raises(ValueError, match="lam must be finite and >= 0"):
                bound_terms(obs, fp, lam, 1, report)

    @pytest.mark.parametrize("d", [-1, 2.5, True, 0])
    def test_rejects_d_that_is_not_a_positive_integer(self, d):
        # checked also when the optimality report is passed in
        obs = SparseObservations(2, 2, [0, 1], [0, 1], [3.0, 4.0])
        fp = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
        opt = optimality_residual(fp, obs, SolverConfig(Regularizer.FN, 1.0, 1))
        with pytest.raises(ValueError, match="d must be a positive integer"):
            bound_terms(obs, fp, 1.0, d, opt)
