import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenmc import palm, sparse_obs
from schattenmc.data import gen_synthetic
from schattenmc.linalg import NumericalError, frobenius_norm, nuclear_norm
from schattenmc.metrics import rse
from schattenmc.palm import (
    InitStrategy,
    SolveFailure,
    SolverConfig,
    frob_prox,
    initial_factors,
    lipschitz_g,
    lipschitz_h,
    objective,
    optimality_residual,
    solve,
    step,
    svt_prox,
)
from schattenmc.quasinorm import FactorPair, Regularizer, optimal_factor_pair
from schattenmc.sparse_obs import SparseObservations, masked_residual, sample_mask

from conftest import low_rank, philox


def small_instance(seed, m=10, n=8, d=2, sr=0.4):
    rng = philox(seed)
    dense = rng.standard_normal((m, n))
    rows, cols = sample_mask(m, n, sr, seed + 13)
    obs = SparseObservations(m, n, rows, cols, dense[rows, cols])
    fp = FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
    return fp, obs, dense


class TestSvtProx:
    def test_tau_zero_is_identity(self):
        a = philox(1).standard_normal((5, 3))
        out = svt_prox(a, 0.0)
        assert np.array_equal(out, a)

    def test_diagonal_shrinkage(self):
        out = svt_prox(np.diag([3.0, 1.0]), 2.0)
        assert np.array_equal(out, np.diag([1.0, 0.0]))

    def test_diagonal_matches_scalar_soft_threshold(self):
        for tau in (0.0, 0.5, 1.0, 2.5, 10.0):
            vals = np.array([5.0, 3.0, 0.5])
            out = svt_prox(np.diag(vals), tau)
            assert np.array_equal(out, np.diag(np.maximum(vals - tau, 0.0)))

    def test_local_minimality_probe(self):
        rng = philox(2)
        a = rng.standard_normal((8, 3))
        tau = 0.7

        def fval(z):
            return tau * nuclear_norm(z) + 0.5 * frobenius_norm(z - a) ** 2

        z0 = svt_prox(a, tau)
        base = fval(z0)
        for _ in range(1000):
            pert = rng.standard_normal(z0.shape)
            pert *= 1e-2 / np.linalg.norm(pert)
            assert fval(z0 + pert) >= base - 1e-12

    def test_idempotence_via_tau_zero(self):
        a = philox(3).standard_normal((6, 4))
        z = svt_prox(a, 0.9)
        assert np.array_equal(svt_prox(z, 0.0), z)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            svt_prox(np.eye(2), -1.0)


class TestFrobProx:
    def test_vanishing_regularization(self):
        b = philox(4).standard_normal((4, 3))
        assert np.allclose(frob_prox(b, 2.0, 1e-12), b, atol=1e-9)

    def test_closed_form_factor(self):
        out = frob_prox(np.ones((2, 2)), 2.0, 3.0)
        assert np.array_equal(out, 0.5 * np.ones((2, 2)))

    def test_stationarity(self):
        rng = philox(5)
        for _ in range(100):
            b = rng.standard_normal((5, 4))
            l, lam = 1.7, 5.0
            v = frob_prox(b, l, lam)
            grad = (2.0 * lam / 3.0) * v + l * (v - b)
            assert frobenius_norm(grad) < 1e-10

    def test_rejects_nonpositive_l(self):
        with pytest.raises(ValueError):
            frob_prox(np.eye(2), 0.0, 1.0)


class TestLipschitz:
    def test_diagonal(self):
        assert lipschitz_g(np.diag([3.0, 1.0])) == pytest.approx(9.0)

    def test_zero(self):
        assert lipschitz_g(np.zeros((4, 2))) == 0.0
        assert lipschitz_h(np.zeros((4, 2))) == 0.0

    def test_gradient_lipschitz_inequality(self):
        rng = philox(6)
        _, obs, _ = small_instance(60)
        v = rng.standard_normal((8, 2))
        lg = lipschitz_g(v)
        for _ in range(20):
            u1 = rng.standard_normal((10, 2))
            u2 = rng.standard_normal((10, 2))
            g1 = palm.grad_u(masked_residual(u1, v, obs), v)
            g2 = palm.grad_u(masked_residual(u2, v, obs), v)
            lhs = frobenius_norm(g1 - g2)
            rhs = lg * frobenius_norm(u1 - u2)
            assert lhs <= rhs * (1 + 1e-10)


class TestBoundaryChecks:
    """The public proximal maps and ``step`` reject non-finite input and
    mismatched shapes with ValueError."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_prox_maps_reject_non_finite(self, bad):
        a = philox(16).standard_normal((5, 3))
        a[2, 1] = bad
        for tau in (0.0, 0.5):
            with pytest.raises(ValueError, match="non-finite"):
                svt_prox(a, tau)
        with pytest.raises(ValueError, match="non-finite"):
            frob_prox(a, 1.0, 1.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 5, 3), (0, 3)])
    def test_prox_maps_reject_bad_shapes(self, shape):
        a = np.ones(shape)
        with pytest.raises(ValueError):
            svt_prox(a, 0.5)
        if len(shape) != 2:
            with pytest.raises(ValueError):
                frob_prox(a, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["u", "v"])
    def test_step_rejects_non_finite(self, which, bad):
        fp, obs, _ = small_instance(17)
        # FactorPair checks on construction, so corrupt the array afterwards
        getattr(fp, which)[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            step(fp, obs, SolverConfig(reg=Regularizer.BIN, lam=1.0, d=2))

    def test_step_rejects_shape_mismatch(self):
        fp, obs, _ = small_instance(18)
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=2)
        for pair in (FactorPair(fp.u[:-1], fp.v), FactorPair(fp.u, fp.v[:-1])):
            with pytest.raises(ValueError, match="rows"):
                step(pair, obs, cfg)


class TestObjective:
    def test_zero_factors(self):
        fp, obs, _ = small_instance(7)
        zero = FactorPair(np.zeros((10, 2)), np.zeros((8, 2)))
        cfg = SolverConfig(reg=Regularizer.FN, lam=2.0, d=2)
        expected = 0.5 * float(obs.values @ obs.values)
        assert objective(zero, obs, cfg) == pytest.approx(expected, rel=1e-12)

    def test_zero_lambda_exact_fit(self):
        rng = philox(8)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((5, 2))
        dense = u @ v.T
        rows, cols = sample_mask(6, 5, 0.5, 3)
        obs = SparseObservations(6, 5, rows, cols, dense[rows, cols])
        cfg = SolverConfig(reg=Regularizer.BIN, lam=0.0, d=2)
        assert objective(FactorPair(u, v), obs, cfg) == pytest.approx(0.0, abs=1e-20)

    def test_matches_dense_oracle(self):
        fp, obs, dense = small_instance(9)
        mask = np.zeros((10, 8))
        mask[obs.row_idx, obs.col_idx] = 1.0
        for reg in Regularizer:
            cfg = SolverConfig(reg=reg, lam=1.3, d=2)
            resid = (fp.u @ fp.v.T - dense) * mask
            s = np.linalg.svd(fp.u, compute_uv=False)
            sv = np.linalg.svd(fp.v, compute_uv=False)
            if reg is Regularizer.FN:
                pen = 1.3 * (2.0 * s.sum() + (fp.v**2).sum()) / 3.0
            else:
                pen = 1.3 * (s.sum() + sv.sum()) / 2.0
            expected = pen + 0.5 * np.sum(resid**2)
            assert objective(fp, obs, cfg) == pytest.approx(expected, rel=1e-10)


class TestStep:
    def test_zero_lambda_is_gradient_descent(self):
        fp, obs, dense = small_instance(10)
        cfg = SolverConfig(reg=Regularizer.FN, lam=0.0, d=2)
        out, l_g, l_h = step(fp, obs, cfg)
        mask = np.zeros((10, 8))
        mask[obs.row_idx, obs.col_idx] = 1.0
        gu = ((fp.u @ fp.v.T - dense) * mask) @ fp.v
        u1 = fp.u - gu / l_g
        gv = ((u1 @ fp.v.T - dense) * mask).T @ u1
        v1 = fp.v - gv / l_h
        assert np.abs(out.u - u1).max() < 1e-12
        assert np.abs(out.v - v1).max() < 1e-12

    def test_objective_never_increases(self):
        count = 0
        for seed in range(100):
            fp, obs, _ = small_instance(200 + seed)
            for reg in Regularizer:
                cfg = SolverConfig(reg=reg, lam=0.8, d=2)
                before = objective(fp, obs, cfg)
                after = objective(step(fp, obs, cfg)[0], obs, cfg)
                assert after <= before + 1e-12
                count += 1
        assert count == 200

    def test_near_fixed_point_at_optimum(self):
        rng = philox(11)
        x = low_rank(rng, 9, 7, 2)
        rows, cols = np.divmod(np.arange(63), 7)
        obs = SparseObservations(9, 7, rows, cols, x[rows, cols])
        for reg in Regularizer:
            cfg = SolverConfig(reg=reg, lam=1e-8, d=2)
            fp = optimal_factor_pair(x, reg, 2)
            for _ in range(10):
                fp, _, _ = step(fp, obs, cfg)
            assert frobenius_norm(fp.product() - x) < 1e-6

    def test_fresh_lipschitz_each_call(self):
        fp, obs, _ = small_instance(12)
        cfg = SolverConfig(reg=Regularizer.FN, lam=0.5, d=2)
        _, l_g, l_h = step(fp, obs, cfg)
        assert l_g == pytest.approx(lipschitz_g(fp.v))
        assert l_g > 0 and l_h > 0


def dense_palm(u, v, dense, mask, reg, lam, iters):
    """The paper's FN / BiN alternation on full m x n arrays with a 0/1 mask,
    written without the package's kernels: (U, V, l_g, l_h, objective) after
    each of ``iters`` steps from (u, v)."""

    def shrink(a, tau):
        left, s, right_t = np.linalg.svd(a, full_matrices=False)
        return (left * np.maximum(s - tau, 0.0)) @ right_t

    def nuclear(a):
        return np.linalg.svd(a, compute_uv=False).sum()

    fn = reg is Regularizer.FN
    coeff = 2.0 * lam / 3.0 if fn else lam / 2.0
    out = []
    for _ in range(iters):
        l_g = max(np.linalg.norm(v, 2) ** 2, palm.LIPSCHITZ_FLOOR)
        u = shrink(u - (mask * (u @ v.T - dense)) @ v / l_g, coeff / l_g)
        l_h = max(np.linalg.norm(u, 2) ** 2, palm.LIPSCHITZ_FLOOR)
        b = v - (mask * (u @ v.T - dense)).T @ u / l_h
        if fn:
            v = l_h / (l_h + 2.0 * lam / 3.0) * b
            penalty = lam * (2.0 * nuclear(u) + np.sum(v * v)) / 3.0
        else:
            v = shrink(b, coeff / l_h)
            penalty = lam * (nuclear(u) + nuclear(v)) / 2.0
        loss = 0.5 * np.sum((mask * (u @ v.T - dense)) ** 2)
        out.append((u, v, l_g, l_h, penalty + loss))
    return out


# (m, n, rank, data scale, d, sampling ratio, kernel path): at most 2**16
# cells on the dense path, 257 x 256 = 65792 cells at density 0.1 on the
# sparse one, and d above min(m, n) with data large enough that lam = 5
# leaves U nonzero
TRAJECTORY_CASES = {
    "dense-30x20": (30, 20, 2, 1.0, 4, 0.5, True),
    "sparse-257x256": (257, 256, 2, 1.0, 4, 0.1, False),
    "dense-d-above-dims": (8, 6, 2, 4.0, 8, 0.7, True),
}


class TestReferenceTrajectory:
    """Iterated ``step`` follows the dense reference PALM to 1e-10 relative."""

    ITERS = 20
    RTOL = 1e-10

    def close(self, got, want):
        assert np.linalg.norm(got - want) <= self.RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
    def test_step_matches_dense_reference(self, case, reg, lam):
        m, n, rank, scale, d, sr, dense_path = TRAJECTORY_CASES[case]
        rng = philox(31)
        dense = scale * low_rank(rng, m, n, rank)
        rows, cols = sample_mask(m, n, sr, 32)
        # row 0, row m - 1 and column 1 are left unobserved
        keep = (rows != 0) & (rows != m - 1) & (cols != 1)
        rows, cols = rows[keep], cols[keep]
        obs = SparseObservations(m, n, rows, cols, dense[rows, cols])
        assert sparse_obs._dense_path(obs) is dense_path
        mask = np.zeros((m, n))
        mask[rows, cols] = 1.0
        dense = dense * mask
        fp = FactorPair(0.5 * rng.standard_normal((m, d)), 0.5 * rng.standard_normal((n, d)))
        cfg = SolverConfig(reg=reg, lam=lam, d=d)
        reference = dense_palm(fp.u, fp.v, dense, mask, reg, lam, self.ITERS)
        for u, v, l_g, l_h, obj in reference:
            fp, got_g, got_h = step(fp, obs, cfg)
            self.close(fp.u, u)
            self.close(fp.v, v)
            assert got_g == pytest.approx(l_g, rel=self.RTOL)
            assert got_h == pytest.approx(l_h, rel=self.RTOL)
            assert objective(fp, obs, cfg) == pytest.approx(obj, rel=self.RTOL)


class TestSolve:
    def test_exact_recovery_rank1(self):
        inst = gen_synthetic(10, 10, 1, 0.0, 1.0, 11)
        cfg = SolverConfig(
            reg=Regularizer.FN, lam=1e-6, d=2, epsilon=1e-8, max_iters=2000, seed=1
        )
        rep = solve(inst.observations, cfg)
        assert rep.converged
        assert rse(rep.factors.product(), inst.ground_truth) < 1e-4

    def test_all_zero_data(self):
        obs = SparseObservations(5, 5, np.arange(5), np.arange(5), np.zeros(5))
        for reg in Regularizer:
            rep = solve(obs, SolverConfig(reg=reg, lam=1.0, d=2, seed=0))
            assert rep.converged
            assert rep.iterations <= 2
            assert np.all(rep.factors.u == 0.0)
            assert np.all(rep.factors.v == 0.0)

    def test_trace_monotone_and_shapes(self):
        inst = gen_synthetic(40, 30, 3, 0.1, 0.3, 21)
        cfg = SolverConfig(reg=Regularizer.BIN, lam=2.0, d=4, max_iters=300, seed=2)
        rep = solve(inst.observations, cfg)
        tr = rep.objective_trace
        assert tr.shape == (rep.iterations + 1,)
        assert np.all(np.diff(tr) <= 1e-12)
        assert rep.lipschitz_trace.shape == (rep.iterations, 2)
        assert np.all(rep.lipschitz_trace > 0)

    def test_trace_matches_objective(self):
        inst = gen_synthetic(30, 25, 2, 0.05, 0.4, 31)
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.5, d=3, max_iters=50, seed=3)
        rep = solve(inst.observations, cfg)
        final = objective(rep.factors, inst.observations, cfg)
        assert rep.objective_trace[-1] == pytest.approx(final, rel=1e-9)

    def test_convergence_flag_soundness(self):
        inst = gen_synthetic(30, 25, 2, 0.05, 0.4, 41)
        cfg = SolverConfig(
            reg=Regularizer.FN, lam=2.0, d=3, epsilon=1e-3, max_iters=400, seed=4
        )
        rep = solve(inst.observations, cfg)
        assert rep.converged
        # replay the same deterministic iteration and check the firing step
        fp = initial_factors(inst.observations, cfg)
        for k in range(rep.iterations):
            nxt, _, _ = step(fp, inst.observations, cfg)
            du = frobenius_norm(nxt.u - fp.u)
            dv = frobenius_norm(nxt.v - fp.v)
            fp = nxt
        assert max(du, dv) < cfg.epsilon
        assert np.abs(fp.u - rep.factors.u).max() < 1e-12

    def test_iterate_boundedness(self):
        inst = gen_synthetic(30, 30, 3, 0.1, 0.4, 51)
        for reg in Regularizer:
            cfg = SolverConfig(reg=reg, lam=1.0, d=4, max_iters=1, seed=5)
            fp = initial_factors(inst.observations, cfg)
            scale = (
                frobenius_norm(fp.u)
                + frobenius_norm(fp.v)
                + math.sqrt(float(inst.observations.values @ inst.observations.values))
            )
            for _ in range(50):
                fp, _, _ = step(fp, inst.observations, cfg)
                assert frobenius_norm(fp.u) < 10 * scale
                assert frobenius_norm(fp.v) < 10 * scale

    def test_deterministic(self):
        inst = gen_synthetic(25, 20, 2, 0.1, 0.4, 61)
        cfg = SolverConfig(reg=Regularizer.BIN, lam=1.0, d=3, max_iters=60, seed=6)
        r1 = solve(inst.observations, cfg)
        r2 = solve(inst.observations, cfg)
        assert np.array_equal(r1.objective_trace, r2.objective_trace)
        assert np.array_equal(r1.factors.u, r2.factors.u)

    def test_bin_converges_within_2000_iterations(self):
        # regression: the nuclear-nuclear penalty settles more slowly than
        # the nuclear-Frobenius one at the same stopping threshold
        inst = gen_synthetic(100, 100, 5, 0.1, 0.3, 1003)
        cfg = SolverConfig(
            reg=Regularizer.BIN, lam=5.0, d=6, epsilon=1e-4, max_iters=2000, seed=3
        )
        rep = solve(inst.observations, cfg)
        assert rep.converged
        assert rep.iterations <= 2000

    def test_failure_carries_partial_trace(self, monkeypatch):
        inst = gen_synthetic(20, 20, 2, 0.1, 0.5, 71)
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=3, max_iters=50, seed=7)
        calls = {"n": 0}
        original = palm._step_core

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise NumericalError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(palm, "_step_core", flaky)
        with pytest.raises(SolveFailure) as exc_info:
            solve(inst.observations, cfg)
        assert exc_info.value.objective_trace.size == 4  # init + 3 steps

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize(
        "scale, trace_len",
        [(1e300, 1), (1e307, 0)],
        ids=["step-overflow", "init-overflow"],
    )
    def test_overflow_is_numerical_failure(self, reg, scale, trace_len):
        o = gen_synthetic(30, 30, 3, 0.1, 0.5, 1).observations
        big = SparseObservations(o.m, o.n, o.row_idx, o.col_idx, o.values * scale)
        with pytest.raises(SolveFailure, match="non-finite") as exc_info:
            solve(big, SolverConfig(reg=reg, lam=1.0, d=3))
        assert exc_info.value.objective_trace.size == trace_len

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "reg, scale, block",
        [
            (Regularizer.FN, 1e200, "V step"),
            (Regularizer.FN, 1e290, "U step"),
            (Regularizer.BIN, 1e290, "U step"),
            (Regularizer.FN, 1e305, "U step"),
            (Regularizer.BIN, 1e305, "U step"),
        ],
    )
    def test_overflow_in_the_loop_is_solve_failure(self, reg, scale, block):
        # the loop trusts its own iterates; the step-block checks still turn
        # an overflow into SolveFailure, not ValueError
        o = gen_synthetic(30, 30, 3, 0.1, 0.5, 1).observations
        big = SparseObservations(o.m, o.n, o.row_idx, o.col_idx, o.values * scale)
        with pytest.raises(SolveFailure, match=f"{block} has non-finite") as exc_info:
            solve(big, SolverConfig(reg=reg, lam=1.0, d=3, max_iters=50))
        assert exc_info.value.objective_trace.size == 1


@st.composite
def solve_cases(draw):
    m = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=40))
    rank = draw(st.integers(min_value=1, max_value=min(m, n)))
    # raised where needed so that at least one entry is observed
    sr = max(draw(st.floats(min_value=0.05, max_value=1.0)), 1.0 / (m * n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    x = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)) * low_rank(
        philox(seed), m, n, rank
    )
    rows, cols = sample_mask(m, n, sr, seed)
    cfg = SolverConfig(
        reg=draw(st.sampled_from(Regularizer)),
        lam=draw(st.sampled_from([0.0, 1e-3, 1.0, 5.0, 50.0])),
        d=draw(st.integers(min_value=1, max_value=min(m, n) + 3)),
        max_iters=draw(st.integers(min_value=1, max_value=60)),
        init=draw(st.sampled_from(InitStrategy)),
        seed=seed,
    )
    return SparseObservations(m, n, rows, cols, x[rows, cols]), cfg


class TestSolveInvariants:
    @settings(max_examples=300, deadline=None)
    @given(case=solve_cases())
    def test_finite_monotone_and_bounded(self, case):
        obs, cfg = case
        rep = solve(obs, cfg)
        tr = rep.objective_trace
        assert np.isfinite(tr).all()
        assert np.isfinite(rep.factors.u).all() and np.isfinite(rep.factors.v).all()
        assert np.all(np.diff(tr) <= 1e-12 * max(1.0, abs(tr[0])))
        assert rep.iterations <= cfg.max_iters
        assert tr.shape == (rep.iterations + 1,)


class TestRegTermConsistency:
    def test_penalty_equals_power_sum_at_optimal_pair(self):
        rng = philox(13)
        x = low_rank(rng, 12, 10, 4)
        s = np.linalg.svd(x, compute_uv=False)[:4]
        lam = 2.5
        fn_pair = optimal_factor_pair(x, Regularizer.FN, 4)
        fn_pen = lam * (2 * nuclear_norm(fn_pair.u) + frobenius_norm(fn_pair.v) ** 2) / 3
        assert fn_pen == pytest.approx(lam * np.sum(s ** (2.0 / 3.0)), rel=1e-8)
        bin_pair = optimal_factor_pair(x, Regularizer.BIN, 4)
        bin_pen = lam * (nuclear_norm(bin_pair.u) + nuclear_norm(bin_pair.v)) / 2
        assert bin_pen == pytest.approx(lam * np.sum(np.sqrt(s)), rel=1e-8)


class TestOptimality:
    def test_zero_lambda_overfit(self):
        rng = philox(14)
        x = low_rank(rng, 8, 6, 2)
        rows, cols = np.divmod(np.arange(48), 6)
        obs = SparseObservations(8, 6, rows, cols, x[rows, cols])
        cfg = SolverConfig(reg=Regularizer.FN, lam=0.0, d=2)
        fp = optimal_factor_pair(x, Regularizer.FN, 2)
        opt = optimality_residual(fp, obs, cfg)
        assert opt.q_spectral < 1e-8

    def test_degenerate_zero_residual(self):
        rng = philox(15)
        x = low_rank(rng, 6, 5, 1)
        rows, cols = np.divmod(np.arange(30), 5)
        obs = SparseObservations(6, 5, rows, cols, x[rows, cols])
        fp = optimal_factor_pair(x, Regularizer.FN, 1)
        # make the fit exact by construction
        exact = FactorPair(fp.u, fp.v)
        r = masked_residual(exact.u, exact.v, obs)
        if r.sq_norm() != 0.0:
            obs = SparseObservations(6, 5, rows, cols, (exact.u @ exact.v.T)[rows, cols])
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=1)
        opt = optimality_residual(exact, obs, cfg)
        assert opt.degenerate
        assert math.isinf(opt.c2)


class TestConfigAndInit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(reg=Regularizer.FN, lam=-1.0, d=2)
        with pytest.raises(ValueError):
            SolverConfig(reg=Regularizer.FN, lam=1.0, d=0)
        with pytest.raises(ValueError):
            SolverConfig(reg=Regularizer.FN, lam=1.0, d=2, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(reg=Regularizer.FN, lam=1.0, d=2, max_iters=0)
        non_finite = [(math.inf, 1e-4), (math.nan, 1e-4), (1.0, math.inf), (1.0, math.nan)]
        for lam, epsilon in non_finite:
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(reg=Regularizer.FN, lam=lam, d=2, epsilon=epsilon)

    def test_spectral_init_shapes_and_determinism(self):
        inst = gen_synthetic(20, 15, 2, 0.0, 0.5, 81)
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=4, seed=9)
        a = initial_factors(inst.observations, cfg)
        b = initial_factors(inst.observations, cfg)
        assert a.u.shape == (20, 4) and a.v.shape == (15, 4)
        assert np.array_equal(a.u, b.u)

    def test_gaussian_init(self):
        inst = gen_synthetic(20, 15, 2, 0.0, 0.5, 91)
        cfg = SolverConfig(
            reg=Regularizer.FN, lam=1.0, d=3, seed=9, init=InitStrategy.GAUSSIAN_SCALED
        )
        fp = initial_factors(inst.observations, cfg)
        assert fp.u.shape == (20, 3)
        assert 0.1 < np.std(fp.u) < 2.0

    def test_d_can_exceed_dims(self):
        # rank-1 data with k = min(d, m, n) = 5: the initializer's subspace
        # blocks are rank-deficient
        inst = gen_synthetic(6, 5, 1, 0.0, 1.0, 95)
        cfg = SolverConfig(reg=Regularizer.BIN, lam=0.1, d=8, seed=1, max_iters=30)
        rep = solve(inst.observations, cfg)
        assert rep.factors.u.shape == (6, 8)
        assert np.isfinite(rep.factors.u).all() and np.isfinite(rep.factors.v).all()
        assert np.all(np.diff(rep.objective_trace) <= 1e-12)
