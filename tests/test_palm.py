import dataclasses
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenmc import palm, sigma_max, sparse_obs
from schattenmc.data import gen_synthetic
from schattenmc.linalg import SIGMA_TRIM_REL, NumericalError, frobenius_norm, nuclear_norm
from schattenmc.metrics import rse
from schattenmc.palm import (
    InitStrategy,
    SolveFailure,
    SolverConfig,
    frob_prox,
    initial_factors,
    objective,
    optimality_residual,
    solve,
    step,
    svt_prox,
)
from schattenmc.quasinorm import FactorPair, Regularizer, optimal_factor_pair
from schattenmc.sparse_obs import SparseObservations, masked_residual, sample_mask, sp_dot

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


def orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@st.composite
def gram_blocks(draw):
    """(block, tau): tall or wide blocks with Gaussian, zero, rank-deficient,
    clustered or ill-conditioned spectra, at scales 1e-3 to 1e3, and tau
    from 0 up to twice the block's top singular value."""
    m = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        m, n = n, m
    k = min(m, n)
    rng = philox(draw(st.integers(min_value=0, max_value=2**31)))
    kind = draw(st.sampled_from(["gaussian", "zero", "rank-deficient", "clustered", "ill-conditioned"]))
    if kind == "gaussian":
        a = rng.standard_normal((m, n))
    else:
        if kind == "rank-deficient":
            sig = np.where(np.arange(k) < draw(st.integers(0, k - 1)), 1.0, 0.0)
        elif kind == "clustered":
            sig = np.sort(1.0 + 1e-10 * rng.standard_normal(k))[::-1]
        elif kind == "ill-conditioned":
            sig = np.logspace(0.0, -12.0, k)
        else:
            sig = np.zeros(k)
        a = (orthonormal(rng, m, k) * sig) @ orthonormal(rng, n, k).T
    a *= 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    tau = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(min_value=-16.0, max_value=0.3))
    return a, tau * (sigma_max(a) or 1.0)


def lapack_svt(a, tau):
    """``palm._svt`` on the LAPACK route: ``svt_prox`` and the shrunk spectrum."""
    shrunk = np.maximum(np.linalg.svd(a, compute_uv=False) - tau, 0.0)
    return (a if tau == 0.0 else svt_prox(a, tau)), shrunk


class TestGramRoute:
    """The loop's shrinkage and spectral norm, from LAPACK ``eigh`` of the
    block's d x d Gram, d = min(m, n), agree with the LAPACK-SVD oracles
    ``svt_prox`` and ``sigma_max`` to the Gram's resolution sqrt(d eps)
    sigma_1 (Golub & Van Loan, 8.6).

    The shrunk spectrum gets sqrt((m + n) eps) sigma_1: a zero singular
    value comes back as the square root of the Gram's rounding, which also
    grows with the length m + n - d of its sums.  A 120 x 2 rank-1 block
    reached 1.2 sqrt(2 eps) sigma_1 there, while its shrunk block and
    spectral norm stay at a few eps sigma_1.
    """

    def assert_matches_lapack(self, a, tau):
        # errors are measured in units of sigma_1, so that no norm of a
        # block near 1e300 overflows; a zero block must come back exactly
        sigma_1 = sigma_max(a)
        unit = sigma_1 or 1.0
        eps = np.finfo(float).eps if sigma_1 else 0.0
        bound = math.sqrt(min(a.shape) * eps)
        out, spectrum = palm._svt(a, tau)
        want, want_spectrum = lapack_svt(a, tau)
        assert np.isfinite(out).all()
        assert np.linalg.norm((out - want) / unit) <= bound
        assert abs(palm._singular_values(a)[0] - sigma_1) / unit <= bound
        assert spectrum.shape == want_spectrum.shape
        assert np.all(np.diff(spectrum) <= 0.0)
        assert np.abs(spectrum - want_spectrum).max() / unit <= math.sqrt(sum(a.shape) * eps)
        if tau == 0.0:
            assert out is a

    @settings(max_examples=400, deadline=None)
    @given(case=gram_blocks())
    def test_matches_the_lapack_oracles(self, case):
        self.assert_matches_lapack(*case)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    @pytest.mark.parametrize("shape", [(30, 6), (6, 30)])
    def test_blocks_at_extreme_scales(self, scale, shape):
        # the Gram of such a block underflows to zero or overflows unless
        # the block is first scaled by a power of two
        a = scale * low_rank(philox(21), *shape, 4)
        for tau in (0.0, 1e-3 * sigma_max(a), 0.5 * sigma_max(a)):
            self.assert_matches_lapack(a, tau)
        assert palm._singular_values(a)[0] == pytest.approx(sigma_max(a), rel=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    def test_solves_at_extreme_scales_match_the_lapack_route(self, monkeypatch, reg, lam, scale):
        o = gen_synthetic(30, 30, 3, 0.1, 0.5, 1).observations
        obs = SparseObservations(o.m, o.n, o.row_idx, o.col_idx, o.values * scale)
        cfg = SolverConfig(reg=reg, lam=lam, d=3, epsilon=1e-300, max_iters=30)

        def outcome():
            try:
                return solve(obs, cfg)
            except SolveFailure as exc:
                return exc

        gram = outcome()
        monkeypatch.setattr(palm, "_svt", lapack_svt)
        monkeypatch.setattr(palm, "_singular_values", lambda a: np.linalg.svd(a, compute_uv=False))
        lapack = outcome()
        assert type(gram) is type(lapack)
        # from ~1e155 on the squared residual norm of the start overflows
        assert isinstance(lapack, SolveFailure) is (scale >= 1e160)
        if isinstance(lapack, SolveFailure):
            assert str(gram) == str(lapack)
            assert np.array_equal(gram.objective_trace, lapack.objective_trace)
            return
        assert (gram.iterations, gram.restarts, gram.converged) == (
            lapack.iterations, lapack.restarts, lapack.converged
        )
        np.testing.assert_allclose(gram.objective_trace, lapack.objective_trace, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(gram.lipschitz_trace, lapack.lipschitz_trace, rtol=1e-9, atol=0.0)
        for got, want in ((gram.factors.u, lapack.factors.u), (gram.factors.v, lapack.factors.v)):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("routine", ["eigh", "eigvalsh"])
    def test_eigh_failure_is_numerical_error(self, monkeypatch, routine):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, no_convergence)
        a = philox(22).standard_normal((8, 3))
        with pytest.raises(NumericalError, match="eigh did not converge"):
            palm._svt(a, 0.5) if routine == "eigh" else palm._singular_values(a)

    def test_eigh_failure_in_the_loop_is_solve_failure(self, monkeypatch):
        # FN makes one eigh call per step (its U-step shrinkage); the fourth
        # fails, after the start and three accepted steps
        inst = gen_synthetic(20, 20, 2, 0.1, 0.5, 61)
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=3, max_iters=50, seed=7)
        full = solve(inst.observations, cfg)
        original, calls = np.linalg.eigh, {"n": 0}

        def flaky(a, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 4:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
        with pytest.raises(SolveFailure, match="eigh did not converge") as exc_info:
            solve(inst.observations, cfg)
        assert np.array_equal(exc_info.value.objective_trace, full.objective_trace[:4])


class TestLipschitz:
    """``step``'s l_g is ||V||_2^2 at the iterate it steps from."""

    def test_diagonal(self):
        fp, obs, _ = small_instance(61)
        v = np.zeros((8, 2))
        v[0, 0], v[1, 1] = 3.0, 1.0
        _, l_g, _ = step(FactorPair(fp.u, v), obs, SolverConfig(reg=Regularizer.FN, lam=1.0, d=2))
        assert l_g == pytest.approx(9.0)

    def test_zero(self):
        fp, obs, _ = small_instance(62)
        zero = FactorPair(fp.u, np.zeros((8, 2)))
        for reg in Regularizer:
            _, l_g, _ = step(zero, obs, SolverConfig(reg=reg, lam=1.0, d=2))
            assert l_g == palm.LIPSCHITZ_FLOOR

    def test_gradient_lipschitz_inequality(self):
        rng = philox(6)
        _, obs, _ = small_instance(60)
        v = rng.standard_normal((8, 2))
        lg = sigma_max(v) ** 2
        for _ in range(20):
            u1 = rng.standard_normal((10, 2))
            u2 = rng.standard_normal((10, 2))
            g1 = sp_dot(obs, masked_residual(u1, v, obs), v)
            g2 = sp_dot(obs, masked_residual(u2, v, obs), v)
            lhs = frobenius_norm(g1 - g2)
            rhs = lg * frobenius_norm(u1 - u2)
            assert lhs <= rhs * (1 + 1e-10)


class TestBoundaryChecks:
    """The public proximal maps and ``step`` reject non-finite input and
    mismatched shapes with ValueError."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_prox_maps_reject_non_finite(self, bad):
        a = philox(16).standard_normal((5, 3))
        for call in (
            lambda: svt_prox(a, bad),
            lambda: frob_prox(a, bad, 1.0),
            lambda: frob_prox(a, 1.0, bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()
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

    def test_step_rejects_zero_columns(self):
        _, obs, _ = small_instance(63)
        empty = FactorPair(np.zeros((10, 0)), np.zeros((8, 0)))
        with pytest.raises(ValueError, match="at least one column, got 0"):
            step(empty, obs, SolverConfig(reg=Regularizer.FN, lam=1.0, d=2))

    @pytest.mark.parametrize("reg", list(Regularizer))
    def test_optimality_of_zero_columns(self, reg):
        # Q = P_omega(D) V is m x 0: no spectrum, and no inner product
        _, obs, _ = small_instance(63)
        empty = FactorPair(np.zeros((10, 0)), np.zeros((8, 0)))
        opt = optimality_residual(empty, obs, SolverConfig(reg=reg, lam=1.0, d=2))
        assert (opt.q_spectral, opt.duality_gap, opt.c2, opt.degenerate) == (0.0, 0.0, 0.0, False)
        gamma = float(np.sum(obs.values**2))
        assert opt.c2_lower == pytest.approx(reg.shrink_coeff(1.0) / math.sqrt(gamma), rel=1e-14)

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
        assert l_g == pytest.approx(sigma_max(fp.v) ** 2)
        assert l_g > 0 and l_h > 0


def dense_objective(u, v, dense, mask, reg, lam):
    """The FN / BiN objective on full m x n arrays with a 0/1 mask."""

    def nuclear(a):
        return np.linalg.svd(a, compute_uv=False).sum()

    if reg is Regularizer.FN:
        penalty = lam * (2.0 * nuclear(u) + np.sum(v * v)) / 3.0
    else:
        penalty = lam * (nuclear(u) + nuclear(v)) / 2.0
    return penalty + 0.5 * np.sum((mask * (u @ v.T - dense)) ** 2)


def dense_step(u, v, dense, mask, reg, lam, beta=0.0, u_prev=None, v_prev=None):
    """The paper's FN / BiN alternation on full m x n arrays with a 0/1 mask,
    written without the package's kernels, plus the heavy-ball terms
    beta (u - u_prev) and beta (v - v_prev) in the blocks when beta > 0:
    (U, V, l_g, l_h, objective, zeroed) after one step from (u, v), where
    ``zeroed`` tells whether the U step's shrinkage zeroed a singular value."""

    def shrink(a, tau):
        left, s, right_t = np.linalg.svd(a, full_matrices=False)
        shrunk = np.maximum(s - tau, 0.0)
        return (left * shrunk) @ right_t, bool(shrunk[-1] == 0.0)

    fn = reg is Regularizer.FN
    coeff = 2.0 * lam / 3.0 if fn else lam / 2.0
    l_g = max(np.linalg.norm(v, 2) ** 2, palm.LIPSCHITZ_FLOOR)
    a = u - (mask * (u @ v.T - dense)) @ v / l_g
    if beta > 0.0:
        a = a + beta * (u - u_prev)
    u1, zeroed = shrink(a, coeff / l_g)
    l_h = max(np.linalg.norm(u1, 2) ** 2, palm.LIPSCHITZ_FLOOR)
    b = v - (mask * (u1 @ v.T - dense)).T @ u1 / l_h
    if beta > 0.0:
        b = b + beta * (v - v_prev)
    v1 = l_h / (l_h + 2.0 * lam / 3.0) * b if fn else shrink(b, coeff / l_h)[0]
    return u1, v1, l_g, l_h, dense_objective(u1, v1, dense, mask, reg, lam), zeroed


def dense_palm(u, v, dense, mask, reg, lam, iters):
    """``iters`` plain steps from (u, v): the output of each ``dense_step``."""
    out = []
    for _ in range(iters):
        out.append(dense_step(u, v, dense, mask, reg, lam))
        u, v = out[-1][:2]
    return out


def dense_resplit(u, v, u_prev, v_prev, reg):
    """The optimal split of X = u v^T and the momentum pair mapped alike:
    (left s^a, right s^(1-a), u_prev A_u, v_prev A_v), padded with zero
    columns to d, for the SVD X = left diag(s) right^T over the values above
    1e-12 s_1, with A_u = v^T right s^(a-1) and A_v = u^T left s^(-a): then
    u A_u = X right s^(a-1) = left s^a, and v A_v = right s^(1-a) alike.
    The singular vectors come from QRs of u and v and the SVD of their R
    factors' product, which fixes the signs the solver's split has."""
    q_u, r_u = np.linalg.qr(u)
    q_v, r_v = np.linalg.qr(v)
    w, s, z_t = np.linalg.svd(r_u @ r_v.T)
    k = int(np.count_nonzero(s > 1e-12 * s[0]))
    left, right, s = (q_u @ w)[:, :k], (q_v @ z_t.T)[:, :k], s[:k]
    pow_u, pow_v = reg.split
    d = u.shape[1]

    def padded(a):
        return np.hstack([a, np.zeros((a.shape[0], d - k))])

    a_u, a_v = padded(v.T @ right * s**-pow_v), padded(u.T @ left * s**-pow_u)
    return padded(left * s**pow_u), padded(right * s**pow_v), u_prev @ a_u, v_prev @ a_v


def dense_iterates(u, v, dense, mask, reg, lam):
    """Monotone heavy-ball PALM from (u, v) on the dense arrays, with the
    solver's gated re-split.  Yields, for each accepted step, the iterate it
    started from, (U0, V0, objective0), and the step, (U, V, l_g, l_h,
    objective, restarted).

    Step k takes beta_k = min((t_k - 1) / t_{k+1}, 0.9) with FISTA's
    t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2.  A step that raises the
    objective above the last accepted one is replaced by the plain step
    (``restarted``), and t starts over at 1.  When lam > 0, the step count is
    a multiple of the solver's re-split period, the U step zeroed a singular
    value, and another step is asked for, that step starts from the optimal
    split of U V^T instead, with the momentum pair mapped alike, unless the
    split's objective is higher.
    """
    obj = dense_objective(u, v, dense, mask, reg, lam)
    u_prev, v_prev, t, k = u, v, 1.0, 0
    while True:
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = min((t - 1.0) / t_next, 0.9)
        u1, v1, l_g, l_h, obj1, zeroed = dense_step(
            u, v, dense, mask, reg, lam, beta, u_prev, v_prev
        )
        restarted = beta > 0.0 and obj1 > obj
        if restarted:
            u1, v1, l_g, l_h, obj1, zeroed = dense_step(u, v, dense, mask, reg, lam)
            t_next = 1.0
        yield (u, v, obj), (u1, v1, l_g, l_h, obj1, restarted)
        u_prev, v_prev, u, v, t, obj = u, v, u1, v1, t_next, obj1
        k += 1
        if lam and zeroed and k % palm._RESPLIT_PERIOD == 0:
            split = dense_resplit(u, v, u_prev, v_prev, reg)
            split_obj = dense_objective(*split[:2], dense, mask, reg, lam)
            if split_obj <= obj:
                u, v, u_prev, v_prev = split
                obj = split_obj


def dense_solve(u, v, dense, mask, reg, lam, epsilon, max_iters):
    """``dense_iterates`` until a step moves both factors less than epsilon
    in Frobenius norm or max_iters steps: (U, V, objective trace, Lipschitz
    pairs, restarts, converged).  Trace entry k is the objective of the
    iterate step k + 1 starts from."""
    trace = []
    lips, restarts = [], 0
    steps = dense_iterates(u, v, dense, mask, reg, lam)
    for (u0, v0, obj0), (u, v, l_g, l_h, obj, restarted) in islice(steps, max_iters):
        trace[-1:] = [obj0, obj]
        lips.append((l_g, l_h))
        restarts += restarted
        if max(np.linalg.norm(u - u0), np.linalg.norm(v - v0)) < epsilon:
            return u, v, np.array(trace), np.array(lips), restarts, True
    return u, v, np.array(trace), np.array(lips), restarts, False


def spy_resplits(monkeypatch):
    """A list to which each re-split ``solve`` tries appends whether it was
    kept: its objective is not above the iterate's."""
    tried, transform = [], palm._transform

    def spy(it, *args):
        out = transform(it, *args)
        tried.append(out[0].objective <= it.objective)
        return out

    monkeypatch.setattr(palm, "_transform", spy)
    return tried


def with_column_signs_of(fp, u, v):
    """fp's factors with the signs of their column pairs flipped to agree
    with (u, v).  A re-split picks each column pair's sign from the QR of a
    factor whose unobserved rows hold rounding noise, and the loop is
    equivariant under such flips, so a solve and its dense reference agree
    up to them."""
    signs = np.where(np.sum(fp.u * u, axis=0) + np.sum(fp.v * v, axis=0) < 0.0, -1.0, 1.0)
    return fp.u * signs, fp.v * signs


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
    """Iterated ``step`` follows the dense reference PALM, and ``solve`` the
    dense monotone heavy-ball loop, to 1e-10 relative."""

    ITERS = 20
    RTOL = 1e-10

    def close(self, got, want):
        assert np.linalg.norm(got - want) <= self.RTOL * np.linalg.norm(want)

    def instance(self, case):
        """(observations, masked dense data, 0/1 mask, d, rng) of ``case``."""
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
        return obs, dense * mask, mask, d, rng

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
    def test_step_matches_dense_reference(self, case, reg, lam):
        obs, dense, mask, d, rng = self.instance(case)
        m, n = mask.shape
        fp = FactorPair(0.5 * rng.standard_normal((m, d)), 0.5 * rng.standard_normal((n, d)))
        cfg = SolverConfig(reg=reg, lam=lam, d=d)
        reference = dense_palm(fp.u, fp.v, dense, mask, reg, lam, self.ITERS)
        for u, v, l_g, l_h, obj, _ in reference:
            fp, got_g, got_h = step(fp, obs, cfg)
            self.close(fp.u, u)
            self.close(fp.v, v)
            assert got_g == pytest.approx(l_g, rel=self.RTOL)
            assert got_h == pytest.approx(l_h, rel=self.RTOL)
            assert objective(fp, obs, cfg) == pytest.approx(obj, rel=self.RTOL)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
    def test_solve_matches_dense_reference(self, case, reg, lam):
        # up to 200 steps from the spectral start: some runs converge, some
        # hit the cap, and restarts fire on both kernel paths
        obs, dense, mask, d, _ = self.instance(case)
        cfg = SolverConfig(reg=reg, lam=lam, d=d, max_iters=200, seed=5)
        fp0 = initial_factors(obs, cfg)
        u, v, trace, lips, restarts, converged = dense_solve(
            fp0.u, fp0.v, dense, mask, reg, lam, cfg.epsilon, cfg.max_iters
        )
        rep = solve(obs, cfg)
        assert rep.iterations == len(lips)
        assert rep.restarts == restarts
        assert rep.converged is converged
        self.close(rep.objective_trace, trace)
        self.close(rep.lipschitz_trace, lips)
        got_u, got_v = with_column_signs_of(rep.factors, u, v)
        self.close(got_u, u)
        self.close(got_v, v)

    @pytest.mark.parametrize("case", ["dense-30x20", "sparse-257x256"])
    def test_reference_runs_include_restarts(self, case):
        # BiN at lam 5 rejects inertial steps on both kernel paths, so the
        # comparison above covers the restart branch
        obs, _, _, d, _ = self.instance(case)
        rep = solve(obs, SolverConfig(reg=Regularizer.BIN, lam=5.0, d=d, max_iters=200, seed=5))
        assert rep.restarts > 0

    @pytest.mark.parametrize("case", ["dense-30x20", "sparse-257x256"])
    def test_reference_runs_include_resplits(self, monkeypatch, case):
        # FN at lam 1 keeps re-splits on both kernel paths, so the comparison
        # above covers the re-split and its map of the momentum pair
        obs, _, _, d, _ = self.instance(case)
        tried = spy_resplits(monkeypatch)
        solve(obs, SolverConfig(reg=Regularizer.FN, lam=1.0, d=d, max_iters=200, seed=5))
        assert any(tried)

    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
    def test_solve_stopping_at_the_period_is_the_loop_without_resplit(
        self, monkeypatch, case, reg
    ):
        # bit for bit: the short solves of a workload meet no re-split
        obs, _, _, d, _ = self.instance(case)
        cfg = SolverConfig(reg=reg, lam=1.0, d=d, max_iters=palm._RESPLIT_PERIOD, seed=5)
        rep = solve(obs, cfg)
        monkeypatch.setattr(palm, "_RESPLIT_PERIOD", 10**9)
        plain = solve(obs, cfg)
        for got, want in (
            (rep.objective_trace, plain.objective_trace),
            (rep.lipschitz_trace, plain.lipschitz_trace),
            (rep.factors.u, plain.factors.u),
            (rep.factors.v, plain.factors.v),
        ):
            assert np.array_equal(got, want)

    def test_resplit_needs_a_following_step(self, monkeypatch):
        # this solve re-splits after step 25 when a 26th step follows, and
        # the trace entry of step 25 is then the re-split's lower objective
        obs, _, _, d, _ = self.instance("dense-30x20")
        tried = spy_resplits(monkeypatch)
        period = palm._RESPLIT_PERIOD
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=d, max_iters=period, seed=5)
        rep = solve(obs, cfg)
        assert tried == []
        longer = solve(obs, dataclasses.replace(cfg, max_iters=period + 1))
        assert tried == [True]
        assert np.array_equal(longer.objective_trace[:period], rep.objective_trace[:period])
        assert longer.objective_trace[period] < rep.objective_trace[period]

    def test_resplit_that_raises_the_objective_is_dropped(self, monkeypatch):
        # maps onto the zero pair, whose objective 0.5 ||P_omega(D)||_F^2 is
        # above every iterate's here: the solve is the one without re-split
        obs, _, _, d, _ = self.instance("dense-30x20")
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=d, max_iters=200, seed=5)
        zero = (np.zeros((d, d)), np.zeros((d, d)), np.zeros(d), np.zeros(d))
        monkeypatch.setattr(palm, "_split_maps", lambda u, v, reg: zero)
        tried = spy_resplits(monkeypatch)
        rep = solve(obs, cfg)
        assert tried and not any(tried)
        monkeypatch.setattr(palm, "_RESPLIT_PERIOD", 10**9)
        plain = solve(obs, cfg)
        assert np.array_equal(rep.objective_trace, plain.objective_trace)
        assert np.array_equal(rep.factors.u, plain.factors.u)

    def test_no_resplit_without_a_penalty(self, monkeypatch):
        # at lam 0, d above min(m, n) leaves an exact zero in U's spectrum
        # after every step (its padded columns), but a re-split would lower
        # no penalty
        obs, _, _, d, _ = self.instance("dense-d-above-dims")
        tried, advance, zeroed = spy_resplits(monkeypatch), palm._advance, []

        def spy(*args):
            out = advance(*args)
            zeroed.append(out[0].su[-1] == 0.0)
            return out

        monkeypatch.setattr(palm, "_advance", spy)
        rep = solve(obs, SolverConfig(reg=Regularizer.FN, lam=0.0, d=d, max_iters=200, seed=5))
        assert rep.iterations > palm._RESPLIT_PERIOD
        assert all(zeroed) and tried == []

    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
    def test_one_iteration_solve_is_one_step(self, case, reg):
        obs, _, _, d, _ = self.instance(case)
        cfg = SolverConfig(reg=reg, lam=1.0, d=d, max_iters=1, seed=5)
        rep = solve(obs, cfg)
        fp, l_g, l_h = step(initial_factors(obs, cfg), obs, cfg)
        assert np.array_equal(rep.factors.u, fp.u)
        assert np.array_equal(rep.factors.v, fp.v)
        assert rep.lipschitz_trace.tolist() == [[l_g, l_h]]
        assert rep.restarts == 0


class TestResplit:
    """``_split_maps`` and ``_transform``: the re-split keeps U V^T to
    rounding, brings the penalty down to the quasi-norm's p-th power, and
    maps the momentum pair by the same right factors as the iterate."""

    # (m, n, d, rank of U): tall factors, d above m or n, and a zero U
    SHAPES = {
        "tall": (30, 20, 4, 3),
        "d-above-m": (5, 9, 7, 4),
        "d-above-n": (9, 5, 7, 4),
        "zero-u": (12, 10, 3, 0),
    }

    def case(self, shape, reg, lam):
        """(observations, config, iterate at a rank-deficient U and a full V,
        momentum pair) of ``shape``."""
        m, n, d, rank = self.SHAPES[shape]
        rng = philox(71)
        u = low_rank(rng, m, d, rank) if rank else np.zeros((m, d))
        v = rng.standard_normal((n, d))
        rows, cols = sample_mask(m, n, 0.6, 72)
        obs = SparseObservations(m, n, rows, cols, rng.standard_normal(rows.size))
        cfg = SolverConfig(reg=reg, lam=lam, d=d)
        it = palm._start(u, v, masked_residual(u, v, obs), cfg)
        return obs, cfg, it, (rng.standard_normal((m, d)), rng.standard_normal((n, d)))

    @staticmethod
    def penalty(u, v, reg):
        """The penalty at lam 1, its norms by LAPACK's SVD."""
        v_term = frobenius_norm(v) ** 2 if reg is Regularizer.FN else nuclear_norm(v)
        return reg.penalty(1.0, nuclear_norm(u), v_term)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_split(self, shape, reg, lam):
        obs, cfg, it, prev = self.case(shape, reg, lam)
        a_u, a_v, su, sv = palm._split_maps(it.u, it.v, reg)
        split, moved_prev = palm._transform(it, prev, a_u, a_v, su, sv, obs, cfg)
        assert np.array_equal(split.u, it.u @ a_u) and np.array_equal(split.v, it.v @ a_v)
        assert np.array_equal(moved_prev[0], prev[0] @ a_u)
        assert np.array_equal(moved_prev[1], prev[1] @ a_v)

        x = it.u @ it.v.T
        scale = np.linalg.norm(it.u) * np.linalg.norm(it.v)
        assert np.linalg.norm(split.u @ split.v.T - x) <= 100 * np.finfo(float).eps * scale
        s = np.linalg.svd(x, compute_uv=False)
        quasi = float(np.sum(s[s > SIGMA_TRIM_REL * s[0]] ** reg.p)) if s[0] else 0.0
        assert self.penalty(split.u, split.v, reg) == pytest.approx(quasi, rel=1e-10, abs=0.0)
        assert self.penalty(split.u, split.v, reg) <= self.penalty(it.u, it.v, reg)

        # the new iterate's spectra and objective
        for got, factor in ((su, split.u), (sv, split.v)):
            want = np.linalg.svd(factor, compute_uv=False)[: got.size]
            assert np.abs(got - want).max() <= 1e-12 * max(want[0], 1.0)
        want = objective(FactorPair(split.u, split.v), obs, cfg)
        assert split.objective == pytest.approx(want, rel=1e-12)
        if shape == "zero-u":
            assert not split.u.any() and not split.v.any()


class TestStepMetamorphic:
    """``step`` commutes, to rounding, with an orthogonal rotation of both
    factors and with a permutation of the observed rows or columns."""

    ITERS = 20
    RTOL = 1e-11

    def close(self, got, want):
        assert np.linalg.norm(got - want) <= self.RTOL * np.linalg.norm(want)

    def instance(self, case, reg, lam):
        m, n, rank, scale, d, sr, dense_path = TRAJECTORY_CASES[case]
        rng = philox(41)
        dense = scale * low_rank(rng, m, n, rank)
        rows, cols = sample_mask(m, n, sr, 42)
        obs = SparseObservations(m, n, rows, cols, dense[rows, cols])
        assert sparse_obs._dense_path(obs) is dense_path
        fp = FactorPair(0.5 * rng.standard_normal((m, d)), 0.5 * rng.standard_normal((n, d)))
        return obs, fp, SolverConfig(reg=reg, lam=lam, d=d), rng

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", ["dense-30x20", "sparse-257x256"])
    def test_rotation(self, case, reg, lam):
        obs, fp, cfg, rng = self.instance(case, reg, lam)
        rot = np.linalg.qr(rng.standard_normal((fp.d, fp.d)))[0]
        rotated = FactorPair(fp.u @ rot, fp.v @ rot)
        for _ in range(self.ITERS):
            fp = step(fp, obs, cfg)[0]
            rotated = step(rotated, obs, cfg)[0]
            self.close(rotated.u, fp.u @ rot)
            self.close(rotated.v, fp.v @ rot)

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", ["dense-30x20", "sparse-257x256"])
    def test_permutation(self, case, reg, lam, axis):
        obs, fp, cfg, rng = self.instance(case, reg, lam)
        # row i of the permuted set is row row_perm[i] of the original
        row_perm, col_perm = np.arange(obs.m), np.arange(obs.n)
        if axis == "rows":
            row_perm = rng.permutation(obs.m)
        else:
            col_perm = rng.permutation(obs.n)
        rows = np.argsort(row_perm)[obs.row_idx]
        cols = np.argsort(col_perm)[obs.col_idx]
        order = np.lexsort((cols, rows))
        permuted_obs = SparseObservations(
            obs.m, obs.n, rows[order], cols[order], obs.values[order]
        )
        permuted = FactorPair(fp.u[row_perm], fp.v[col_perm])
        for _ in range(self.ITERS):
            fp = step(fp, obs, cfg)[0]
            permuted = step(permuted, permuted_obs, cfg)[0]
            self.close(permuted.u, fp.u[row_perm])
            self.close(permuted.v, fp.v[col_perm])


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
        obs = inst.observations
        cfg = SolverConfig(
            reg=Regularizer.FN, lam=2.0, d=3, epsilon=1e-3, max_iters=400, seed=4
        )
        rep = solve(obs, cfg)
        assert rep.converged
        # replay the same deterministic iteration through the dense reference
        # loop and check the firing step
        mask = np.zeros((obs.m, obs.n))
        mask[obs.row_idx, obs.col_idx] = 1.0
        dense = np.zeros((obs.m, obs.n))
        dense[obs.row_idx, obs.col_idx] = obs.values
        fp = initial_factors(obs, cfg)
        steps = dense_iterates(fp.u, fp.v, dense, mask, cfg.reg, cfg.lam)
        for (u0, v0, _), (u, v, *_) in islice(steps, rep.iterations):
            du = frobenius_norm(u - u0)
            dv = frobenius_norm(v - v0)
        assert max(du, dv) < cfg.epsilon
        assert np.abs(with_column_signs_of(rep.factors, u, v)[0] - u).max() < 1e-12

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

    @pytest.mark.parametrize("reg", list(Regularizer))
    def test_restarts_on_the_protocol_instance(self, reg):
        # the criterion-7 protocol: 100 x 100, rank 5, 20% observed, nf 0.1,
        # lam 5, d 6; the first step is plain, so it is never a restart
        inst = gen_synthetic(100, 100, 5, 0.1, 0.2, 1003)
        rep = solve(inst.observations, SolverConfig(reg=reg, lam=5.0, d=6, seed=3))
        assert rep.converged
        assert 0 < rep.restarts <= rep.iterations - 1

    def test_failure_carries_partial_trace(self, monkeypatch):
        # this run rejects an inertial step within its first three
        # iterations, so it makes more steps than it accepts
        inst = gen_synthetic(20, 20, 2, 0.1, 0.5, 60)
        cfg = SolverConfig(reg=Regularizer.FN, lam=5.0, d=3, max_iters=50, seed=7)
        full = solve(inst.observations, cfg).objective_trace
        calls = {"n": 0}
        original = palm._advance

        def flaky(it, *args, **kwargs):
            if it.objective == full[3]:  # a step from the fourth accepted iterate
                raise NumericalError("synthetic failure")
            calls["n"] += 1
            return original(it, *args, **kwargs)

        monkeypatch.setattr(palm, "_advance", flaky)
        with pytest.raises(SolveFailure) as exc_info:
            solve(inst.observations, cfg)
        assert calls["n"] > 3
        assert np.array_equal(exc_info.value.objective_trace, full[:4])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize(
        "scale, message",
        [
            (1e160, "objective is non-finite"),
            (1e300, "objective is non-finite"),
            (3e306, "objective is non-finite"),
            (1e307, "initializer block has non-finite"),
        ],
        ids=["loss-overflow", "loss-overflow-1e300", "loss-overflow-3e306", "init-overflow"],
    )
    def test_overflow_is_numerical_failure(self, reg, scale, message):
        # from ~1e155 on, the blocks stay finite but the squared residual norm
        # of the start overflows.  At 3e306 the initializer's products fit
        # only because its Gaussian block is scaled to columns of norm about
        # 1, as an orthonormal block has
        o = gen_synthetic(30, 30, 3, 0.1, 0.5, 1).observations
        big = SparseObservations(o.m, o.n, o.row_idx, o.col_idx, o.values * scale)
        with pytest.raises(SolveFailure, match=message) as exc_info:
            solve(big, SolverConfig(reg=reg, lam=1.0, d=3))
        assert exc_info.value.objective_trace.size == 0

    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("kernel, block", [("sp_dot", "U step"), ("sp_tdot", "V step")])
    def test_overflow_in_the_loop_is_solve_failure(self, monkeypatch, reg, kernel, block):
        # the loop trusts its own iterates; the step-block checks still turn
        # an overflow into SolveFailure, not ValueError.  A Gaussian start
        # makes no product, so the first call of each kernel is in the first
        # step; it returns an overflowed gradient there
        o = gen_synthetic(30, 30, 3, 0.1, 0.5, 1).observations
        real = getattr(palm, kernel)
        monkeypatch.setattr(palm, kernel, lambda *args: real(*args) * math.inf)
        cfg = SolverConfig(reg=reg, lam=1.0, d=3, max_iters=50, init=InitStrategy.GAUSSIAN_SCALED)
        with pytest.raises(SolveFailure, match=f"{block} has non-finite") as exc_info:
            solve(o, cfg)
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
        assert 0 <= rep.restarts <= max(rep.iterations - 1, 0)
        assert tr.shape == (rep.iterations + 1,)


class TestStartAndReportOracles:
    """``solve`` reads the spectra of its first objective and of its
    optimality report from the Gram route; ``objective``, ``sigma_max`` and
    ``nuclear_norm`` on LAPACK's SVD are their oracles.

    A spectral norm agrees within TestGramRoute's sqrt(k eps) sigma_1, k
    the block's smaller side.  A nuclear norm sums k values, each within
    that class's sqrt((m + n) eps) sigma_1 of its SVD value, and the oracle
    zeroes values at or below SIGMA_TRIM_REL sigma_1 that the Gram route
    keeps, so it agrees within k (sqrt((m + n) eps) + SIGMA_TRIM_REL)
    sigma_1.
    """

    @staticmethod
    def nuclear_bound(a):
        eps = np.finfo(float).eps
        per_value = math.sqrt(sum(a.shape) * eps) + SIGMA_TRIM_REL
        return min(a.shape) * per_value * sigma_max(a)

    @settings(max_examples=200, deadline=None)
    @given(case=solve_cases())
    def test_match_the_lapack_oracles(self, case):
        obs, cfg = case
        rep = solve(obs, cfg)
        coeff = cfg.reg.shrink_coeff(cfg.lam)
        eps = np.finfo(float).eps

        # coeff weighs ||U||_* in the penalty, and ||V||_* too for BiN; the
        # loss and FN's ||V||_F^2 are the oracle's own bits
        fp0 = initial_factors(obs, cfg)
        bound = self.nuclear_bound(fp0.u)
        if cfg.reg is Regularizer.BIN:
            bound += self.nuclear_bound(fp0.v)
        want = objective(fp0, obs, cfg)
        assert abs(rep.objective_trace[0] - want) <= coeff * bound + 4 * eps * abs(want)

        u, v = rep.factors.u, rep.factors.v
        r = masked_residual(u, v, obs)
        q = -sp_dot(obs, r, v)
        opt = rep.optimality
        sig_q = sigma_max(q)
        assert abs(opt.q_spectral - sig_q) <= math.sqrt(min(q.shape) * eps) * sig_q
        gap = abs(float(np.sum(q * u)) - coeff * nuclear_norm(u))
        assert abs(opt.duality_gap - gap) <= coeff * self.nuclear_bound(u)
        rnorm = float(np.linalg.norm(r))
        assert opt.degenerate == (rnorm == 0.0)
        if rnorm:
            assert opt.c2 == pytest.approx(np.linalg.norm(q) / rnorm, rel=1e-12)
        assert opt.c2_lower == pytest.approx(coeff / np.linalg.norm(obs.values), rel=1e-12)


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
        if float(r @ r) != 0.0:
            obs = SparseObservations(6, 5, rows, cols, (exact.u @ exact.v.T)[rows, cols])
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=1)
        opt = optimality_residual(exact, obs, cfg)
        assert opt.degenerate
        assert math.isinf(opt.c2)

    # (lam, max_iters, a check of the kind of run) on both trajectory cases
    SOLVE_KINDS = {
        "converges": (50.0, 100, lambda rep: rep.converged),
        "hits max_iters": (1.0, 5, lambda rep: not rep.converged and rep.iterations == 5),
        "restarts": (20.0, 100, lambda rep: rep.restarts > 0),
    }

    @pytest.mark.parametrize("kind", list(SOLVE_KINDS))
    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", ["dense-30x20", "sparse-257x256"])
    def test_solve_report_is_the_optimality_residual_of_its_factors(self, case, reg, kind):
        # solve builds its report from its final residual; the bits are those
        # of a fresh masked_residual, and the solve makes one public
        # residual call, which is what perfbench's madds check counts
        obs, _, _, d, _ = TestReferenceTrajectory().instance(case)
        lam, max_iters, is_kind = self.SOLVE_KINDS[kind]
        cfg = SolverConfig(reg=reg, lam=lam, d=d, max_iters=max_iters, seed=5)
        start = sparse_obs.kernel_madd_count()
        rep = solve(obs, cfg)
        assert sparse_obs.kernel_madd_count() - start == obs.nnz * d
        assert is_kind(rep)
        assert rep.optimality == optimality_residual(rep.factors, obs, cfg)

    @pytest.mark.parametrize("case", ["dense-30x20", "sparse-257x256"])
    def test_step_makes_no_counted_residual_call(self, case):
        # step starts from the private residual; only a solve's starting
        # residual moves the counter
        obs, _, _, d, _ = TestReferenceTrajectory().instance(case)
        cfg = SolverConfig(reg=Regularizer.FN, lam=1.0, d=d, seed=5)
        fp = initial_factors(obs, cfg)
        start = sparse_obs.kernel_madd_count()
        step(fp, obs, cfg)
        assert sparse_obs.kernel_madd_count() == start


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
        for d, max_iters in [(2.5, 10), (True, 10), (2, 2.5), (2, True)]:
            with pytest.raises(ValueError, match="positive integer"):
                SolverConfig(reg=Regularizer.FN, lam=1.0, d=d, max_iters=max_iters)
        for seed in (-1, 2.5, True, False, "1", None):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                SolverConfig(reg=Regularizer.FN, lam=1.0, d=2, seed=seed)
        assert SolverConfig(reg=Regularizer.FN, lam=1.0, d=2, seed=np.uint32(7)).seed == 7
        non_finite = [(math.inf, 1e-4), (math.nan, 1e-4), (1.0, math.inf), (1.0, math.nan)]
        for lam, epsilon in non_finite:
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(reg=Regularizer.FN, lam=lam, d=2, epsilon=epsilon)
        for reg in ("fn", None, Regularizer.FN.value):
            with pytest.raises(ValueError, match="reg must be a member of Regularizer"):
                SolverConfig(reg=reg, lam=1.0, d=2)
        for init in ("gaussian", None, InitStrategy.SPECTRAL_SCALED.value):
            with pytest.raises(ValueError, match="init must be a member of InitStrategy"):
                SolverConfig(reg=Regularizer.FN, lam=1.0, d=2, init=init)

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


def exact_low_rank_set(m, n, block_rows, block_cols, sigma, seed):
    """Observations of every cell of a random block_rows x block_cols block
    of an m x n matrix, holding a matrix with the singular values ``sigma``:
    the set, zeros elsewhere, has exactly those nonzero singular values."""
    rng = philox(seed)
    rows = np.sort(rng.choice(m, block_rows, replace=False))
    cols = np.sort(rng.choice(n, block_cols, replace=False))
    left = np.linalg.qr(rng.standard_normal((block_rows, len(sigma))))[0]
    right = np.linalg.qr(rng.standard_normal((block_cols, len(sigma))))[0]
    block = (left * sigma) @ right.T
    r, c = np.meshgrid(rows, cols, indexing="ij")
    return SparseObservations(m, n, r.ravel(), c.ravel(), block.ravel())


class TestSpectralInitOracle:
    """The initializer's truncated SVD against LAPACK's SVD of the scaled
    dense matrix.  Its errors on these sets are about 5e-16, far inside
    RTOL."""

    RTOL = 1e-8

    # (m, n, block rows, block cols, kernel path): 1200 cells on the dense
    # path, 75000 cells at density 0.084 on the sparse one
    CASES = {"dense-40x30": (40, 30, 20, 15, True), "sparse-300x250": (300, 250, 90, 70, False)}

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_dense_svd(self, case, k):
        m, n, block_rows, block_cols, dense_path = self.CASES[case]
        # rank 3 with gaps between all singular values and at sigma_3
        obs = exact_low_rank_set(m, n, block_rows, block_cols, np.array([9.0, 4.0, 1.0]), 5)
        assert sparse_obs._dense_path(obs) is dense_path
        scaled = obs.values * (m * n / obs.nnz)
        want_left, want_sigma, want_right_t = np.linalg.svd(sparse_obs._scatter(obs, scaled))
        want_left, want_right = want_left[:, :k], want_right_t[:k].T
        f = palm._truncated_sparse_svd(obs, scaled, k, philox(7))
        left, sigma, right = f.left, f.singular_values, f.right
        assert left.shape == (m, k) and sigma.shape == (k,) and right.shape == (n, k)
        assert np.all(np.abs(sigma - want_sigma[:k]) <= self.RTOL * want_sigma[:k])
        signs = np.sign(np.sum(left * want_left, axis=0))
        assert np.abs(left * signs - want_left).max() <= self.RTOL
        assert np.abs(right * signs - want_right).max() <= self.RTOL

    # one power step: sp_dot, sp_tdot, then sp_dot for the final SVD
    ONE_STEP = ["sp_dot", "sp_tdot", "sp_dot"]

    @pytest.mark.parametrize(
        "case, init, expected",
        [
            ("dense-40x30", InitStrategy.SPECTRAL_SCALED, ONE_STEP),
            ("sparse-300x250", InitStrategy.SPECTRAL_SCALED, ONE_STEP),
            ("dense-40x30", InitStrategy.GAUSSIAN_SCALED, []),
            ("empty", InitStrategy.SPECTRAL_SCALED, []),
        ],
    )
    def test_start_costs_three_products(self, monkeypatch, case, init, expected):
        if case == "empty":
            none = np.zeros(0, dtype=np.int64)
            obs = SparseObservations(40, 30, none, none, np.zeros(0))
        else:
            m, n, block_rows, block_cols, dense_path = self.CASES[case]
            obs = exact_low_rank_set(m, n, block_rows, block_cols, np.array([9.0, 4.0, 1.0]), 5)
            assert sparse_obs._dense_path(obs) is dense_path
        calls = []
        for name in ("sp_dot", "sp_tdot"):
            kernel = getattr(palm, name)
            monkeypatch.setattr(
                palm, name, lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a)
            )
        initial_factors(obs, SolverConfig(reg=Regularizer.FN, lam=1.0, d=3, init=init, seed=2))
        assert calls == expected

    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize(
        "case, init, expected",
        [
            ("dense-40x30", InitStrategy.SPECTRAL_SCALED, (1, 2)),
            ("sparse-300x250", InitStrategy.SPECTRAL_SCALED, (1, 2)),
            ("dense-40x30", InitStrategy.GAUSSIAN_SCALED, (0, 0)),
        ],
    )
    def test_solve_lapack_budget(self, monkeypatch, reg, case, init, expected):
        # the initializer's one thin SVD and the QRs of its two power-step
        # blocks; the start, the loop and the report take every spectrum
        # from d x d Gram eigendecompositions
        calls, rep = self.counted_solve(monkeypatch, ("svd", "qr"), case, reg, init)
        assert rep.iterations > 0
        assert (calls["svd"], calls["qr"]) == expected

    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("init", list(InitStrategy))
    @pytest.mark.parametrize("case", list(CASES))
    def test_solve_gram_budget(self, monkeypatch, reg, init, case):
        # s = iterations + restarts advances: FN shrinks U (one eigh) and
        # reads V's values (one eigvalsh) in each, BiN shrinks U and V (two
        # eigh); the start and the report read two spectra each
        calls, rep = self.counted_solve(monkeypatch, ("eigh", "eigvalsh"), case, reg, init)
        s = rep.iterations + rep.restarts
        assert rep.iterations > 0
        expected = (s, 4 + s) if reg is Regularizer.FN else (2 * s, 4)
        assert (calls["eigh"], calls["eigvalsh"]) == expected

    @pytest.mark.parametrize("reg", list(Regularizer))
    @pytest.mark.parametrize("case", list(CASES))
    def test_resplitting_solve_budget(self, monkeypatch, reg, case):
        # each re-split tried adds two QRs and one SVD of order at most d,
        # and no Gram eigendecomposition
        tried = spy_resplits(monkeypatch)
        names = ("svd", "qr", "eigh", "eigvalsh")
        init = InitStrategy.SPECTRAL_SCALED
        calls, rep = self.counted_solve(monkeypatch, names, case, reg, init, d=4, max_iters=60)
        r, s = len(tried), rep.iterations + rep.restarts
        assert r > 0
        gram = (s, 4 + s) if reg is Regularizer.FN else (2 * s, 4)
        assert tuple(calls[name] for name in names) == (1 + r, 2 + 2 * r, *gram)

    def counted_solve(self, monkeypatch, names, case, reg, init, d=3, max_iters=20):
        """The calls of each ``np.linalg`` routine in ``names`` made by a
        lam = 1 solve of the case's set, and its report."""
        m, n, block_rows, block_cols, dense_path = self.CASES[case]
        obs = exact_low_rank_set(m, n, block_rows, block_cols, np.array([9.0, 4.0, 1.0]), 5)
        assert sparse_obs._dense_path(obs) is dense_path
        calls = dict.fromkeys(names, 0)
        for name in names:
            routine = getattr(np.linalg, name)

            def counted(*args, name=name, routine=routine, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        cfg = SolverConfig(reg=reg, lam=1.0, d=d, max_iters=max_iters, init=init, seed=2)
        return calls, solve(obs, cfg)

    @pytest.mark.parametrize("reg", list(Regularizer))
    def test_block_width_clips_at_the_smaller_dimension(self, reg):
        # d = 8 on a 6 x 5 set: k = 5, and k + p columns clip to 5, whose
        # span is all of R^5, so the split reproduces the scaled matrix
        dense = philox(8).standard_normal((6, 5))
        rows, cols = np.divmod(np.arange(30), 5)
        obs = SparseObservations(6, 5, rows, cols, dense[rows, cols])
        fp = initial_factors(obs, SolverConfig(reg=reg, lam=1.0, d=8, seed=2))
        assert fp.u.shape == (6, 8) and fp.v.shape == (5, 8)
        assert np.isfinite(fp.u).all() and np.isfinite(fp.v).all()
        assert np.abs(fp.product() - dense).max() <= self.RTOL * np.abs(dense).max()
