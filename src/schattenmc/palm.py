"""Proximal alternating linearized minimization for factored completion.

Minimizes, over U (m x d) and V (n x d),

    lam * penalty(U, V) + 0.5 ||P_omega(U V^T - D)||_F^2

by alternating linearized proximal steps.  The penalty, a weighted mean of
||U||_* and ||V||_F^2 (FN) or of ||U||_* and ||V||_* (BIN), is
``quasinorm.Regularizer.penalty``.  Each half-step linearizes the
smooth loss at the current block, with step size 1 / l where l is the exact
Lipschitz constant of that block's gradient (the squared spectral norm of
the opposite factor), then applies the closed-form proximal map: singular
value shrinkage for nuclear terms, a plain rescaling for the squared
Frobenius term.  The V-step gradient is evaluated with the freshly updated
U.  Stopping: max(||U_{k+1}-U_k||_F, ||V_{k+1}-V_k||_F) < epsilon.

``step`` is one such plain step: one ``_advance`` of the iterate state
``_Iterate``.  ``solve`` advances the same state with heavy-ball inertia
(iPiano: Ochs, Chen, Brox & Pock, SIAM J. Imaging Sci. 2014): step k adds
beta_k (U_k - U_{k-1}) to the U block and beta_k (V_k - V_{k-1}) to the V
block before their proximal maps, with beta_k = min((t_k - 1) / t_{k+1},
0.9) on the FISTA sequence t_1 = 1, so the first step is plain.  The
gradients, Lipschitz constants and stopping rule are those of the plain
step at the current iterate, so an inertial step costs the same kernel
calls.  A step whose objective exceeds the last accepted one is discarded
for the plain step and t restarts at 1 (monotone restart: Li & Lin, NeurIPS
2015), so the objective never increases.

``solve`` also re-splits: the FN and BiN penalties of a fixed X = U V^T are
smallest at the split U = L S^a, V = R S^(1-a) of X's SVD, where they equal
the quasi-norm, so replacing (U, V) by that split keeps the loss and cannot
raise the penalty.  After every ``_RESPLIT_PERIOD``-th iteration whose U
step zeroed a singular value, at lam > 0 and with another iteration to
come, the loop continues from the split of its iterate (``_split_maps``,
``_transform``), with the momentum pair mapped by the same right factors,
unless the split's objective is higher.  This is LMaFit's rank-decreasing
step (Wen, Yin & Zhang, Math. Prog. Comp. 2012) made exact by the nuclear
prox.  Without the rank gate, the balanced split of a spurious direction
(d above the data's rank at a small lam) decays far more slowly under the
scalar steps than the unbalanced one the loop would keep.

Every spectrum a solve takes comes from the Gram route of ``linalg``
(LAPACK ``eigh`` of a block's small Gram) or from a re-split, never from
an SVD of a tall block: the initializer's last SVD ``_gram_svd``, the
loop's shrinkage ``_svt`` and the ``_singular_values`` of the start, of
FN's V step and of the optimality report; ``_iterate_at`` reads ||V||_2
and the penalty from them.  That resolves singular values to about
sqrt(d eps) sigma_1 only and moves iterates at rounding level.  A spectral
solve's initializer makes one QR and no LAPACK SVD, and each re-split one
SVD of order at most d and two thin QRs of the factors, so the re-split is
a solve's only SVD; the public ``svt_prox`` and ``objective`` stay on
LAPACK's SVD as the oracles.  Loss sums go through
``linalg._sum_of_squares``, never a BLAS dot, so their bits do not follow
the BLAS thread count.

``step`` checks its factors once on entry and ``solve`` starts from factors
it made; from there the iteration calls the unchecked kernels of
``sparse_obs`` and ``linalg``.  Three checks stay in the loop, each a
``NumericalError``: each Lipschitz constant and step block is tested for
overflow, every objective for being finite (the loss overflows long before
the blocks, from data near 1e155 on), and a LAPACK convergence failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import (
    NumericalError,
    ThinSVD,
    _as_count,
    _as_real,
    _frobenius_norm,
    _gram_svd,
    _pow2_scaled,
    _singular_values,
    _sum_of_squares,
    _svd,
    _svt,
    as_matrix,
    frobenius_norm,
    nuclear_norm,
    thin_svd,
)
from .quasinorm import FactorPair, Regularizer, factor_pair_from_svd
from .rng import philox_rng, spawn_seeds
from .sparse_obs import (
    SparseObservations,
    _check_pair,
    _operator,
    _residual,
    masked_residual,
    sp_dot,
    sp_tdot,
)

__all__ = [
    "InitStrategy",
    "SolverConfig",
    "OptimalityReport",
    "SolveReport",
    "SolveFailure",
    "svt_prox",
    "frob_prox",
    "objective",
    "step",
    "solve",
    "optimality_residual",
    "initial_factors",
]

# Substituted for a Lipschitz constant when a factor is exactly zero, so the
# first step away from a degenerate iterate stays finite.
LIPSCHITZ_FLOOR = 1e-12

# Power steps q and oversampling p of the spectral initializer's randomized
# range finder: the block has k + p columns, of which k are kept.  q = 1 makes
# three products with the observed matrix and one QR; over long solves its
# start did about as well as q = 4's nine products, while q = 0 cost ~17%
# more iterations at the criterion-7 protocol.  Each step rescales its first
# block instead of orthonormalizing it, which loses only directions below
# about sqrt(eps) sigma_1 per step (Halko et al. 2011, Alg. 4.3): at q = 1
# all of them lie under the 1e-7 trim of the split, but a larger q would
# need that QR back.
_INIT_POWER_ITERS = 1
_INIT_OVERSAMPLE = 10

# Cap on the heavy-ball weight beta_k = (t_k - 1) / t_{k+1} of ``solve``,
# where t follows the FISTA sequence t_1 = 1,
# t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2.
_MOMENTUM_CAP = 0.9

# Period, in iterations, of ``solve``'s re-split.  Over the criterion-7
# instances at lam 1, 2 and 5, periods from 10 to 100 all cut the summed
# iterations of both penalties by 35-41%; 25 cut them most.
_RESPLIT_PERIOD = 25


class InitStrategy(Enum):
    SPECTRAL_SCALED = "spectral"
    GAUSSIAN_SCALED = "gaussian"


@dataclass(frozen=True)
class SolverConfig:
    """Solver inputs: penalty choice (a ``Regularizer``), finite lam >= 0,
    rank bound d, stopping rule, and the initializer (an ``InitStrategy``)
    and its seed (an integer >= 0).

    ``epsilon`` is an absolute Frobenius threshold on factor changes.
    """

    reg: Regularizer
    lam: float
    d: int
    epsilon: float = 1e-4
    max_iters: int = 1000
    init: InitStrategy = InitStrategy.SPECTRAL_SCALED
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("reg", Regularizer), ("init", InitStrategy)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a member of {kind.__name__}, got {value!r}")
        _as_real(self.lam, "lam", "finite and >= 0")
        _as_real(self.epsilon, "epsilon", "finite and positive")
        for name in ("d", "max_iters"):
            _as_count(getattr(self, name), name)
        _as_count(self.seed, "seed", minimum=0)


@dataclass(frozen=True)
class OptimalityReport:
    """First-order diagnostics at a claimed critical point.

    q_spectral is ||P_omega(D - U V^T) V||_2, which cannot exceed the
    nuclear shrink coefficient at an exact critical point; duality_gap is
    |<Q, U> - coeff * ||U||_*|; c2 is ||Q||_F / ||P_omega(D - U V^T)||_F
    with lower bound coeff / sqrt(gamma), gamma = ||P_omega(D)||_F^2.
    ||Q||_2 and ||U||_* are read from the d x d Gram route, untrimmed, to
    about sqrt(d eps) times the top singular value.  Factors with no
    columns give q_spectral = duality_gap = 0.
    """

    q_spectral: float
    duality_gap: float
    c2: float
    c2_lower: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of ``solve``; ``optimality`` comes from the final iterate's
    residual and equals ``optimality_residual(factors, obs, config)``.
    Entry k of ``objective_trace`` is the objective of the iterate the loop
    continued from after k iterations: the re-split's, where one was kept."""

    factors: FactorPair
    objective_trace: np.ndarray
    lipschitz_trace: np.ndarray
    iterations: int
    restarts: int
    converged: bool
    optimality: OptimalityReport


class SolveFailure(NumericalError):
    """Numerical failure mid-run; carries the partial objective trace."""

    def __init__(self, message, objective_trace):
        super().__init__(message)
        self.objective_trace = np.asarray(objective_trace)


def svt_prox(a, tau: float) -> np.ndarray:
    """Singular value shrinkage: minimizer of tau ||X||_* + 0.5 ||X - a||_F^2,
    by LAPACK's thin SVD (the solver's loop shrinks by the Gram route).

    tau = 0 is the identity and returns a copy of ``a`` unchanged.
    """
    _as_real(tau, "tau", "finite and >= 0")
    a = as_matrix(a)
    if tau == 0.0:
        return a.copy()
    if 0 in a.shape:
        raise ValueError("svt_prox requires at least one row and one column")
    f = thin_svd(a)
    return (f.left * np.maximum(f.singular_values - tau, 0.0)) @ f.right.T


def frob_prox(b, l: float, lam: float) -> np.ndarray:
    """Minimizer of (lam/3)||V||_F^2 + (l/2)||V - b||_F^2: a rescaling of b."""
    _as_real(l, "l", "finite and positive")
    _as_real(lam, "lam", "finite and >= 0")
    return _frob_rescale(as_matrix(b), l, lam)


def _frob_rescale(b: np.ndarray, l: float, lam: float) -> np.ndarray:
    return (l / (l + 2.0 * lam / 3.0)) * b


def _finite(block: np.ndarray, name: str) -> np.ndarray:
    """Pass ``block`` through, or raise NumericalError if it overflowed."""
    if not np.isfinite(block).all():
        raise NumericalError(f"{name} has non-finite entries (overflow)")
    return block


def objective(fp: FactorPair, obs: SparseObservations, config: SolverConfig) -> float:
    """Penalty plus half the squared masked residual norm, the penalty's
    norms by LAPACK's SVD: the oracle of the solver's objective trace."""
    r = masked_residual(fp.u, fp.v, obs)
    reg_val = 0.0
    if config.lam:
        v_term = frobenius_norm(fp.v) ** 2 if config.reg is Regularizer.FN else nuclear_norm(fp.v)
        reg_val = config.reg.penalty(config.lam, nuclear_norm(fp.u), v_term)
    return reg_val + 0.5 * _sum_of_squares(r)


def _add_momentum(block: np.ndarray, x, x_prev, beta: float) -> None:
    """block += beta (x - x_prev), in place, through one temporary."""
    inertia = x - x_prev
    inertia *= beta
    block += inertia


class _Iterate(NamedTuple):
    """The solver state at the factors (u, v): su the singular values of u
    (after a U step, its shrunk spectrum), sig_v = ||v||_2, r the residual
    values there and the objective there."""

    u: np.ndarray
    v: np.ndarray
    su: np.ndarray
    sig_v: float
    r: np.ndarray
    objective: float


def _iterate_at(u, v, su, sv, r: np.ndarray, config: SolverConfig) -> _Iterate:
    """The iterate at (u, v), d >= 1, with singular values su and sv
    (non-increasing) and residual values r: ||V||_2 is sv[0], and the
    penalty comes from sum(su) and ||V||_F^2 (FN) or sum(sv) (BIN).
    Raises NumericalError if the objective overflows."""
    reg_val = 0.0
    if config.lam:
        v_term = _frobenius_norm(v) ** 2 if config.reg is Regularizer.FN else float(np.sum(sv))
        reg_val = config.reg.penalty(config.lam, float(np.sum(su)), v_term)
    value = reg_val + 0.5 * _sum_of_squares(r)
    if not math.isfinite(value):
        raise NumericalError(f"objective is non-finite ({value}) (overflow)")
    return _Iterate(u, v, su, float(sv[0]), r, value)


def _start(u, v, r: np.ndarray, config: SolverConfig) -> _Iterate:
    """The iterate at the checked factors (u, v), d >= 1, with residual
    values r there; its spectra come from the Gram route, as in the loop."""
    return _iterate_at(u, v, _singular_values(u), _singular_values(v), r, config)


def _lipschitz(sigma: float) -> float:
    """max(sigma^2, LIPSCHITZ_FLOOR), squared by ``**``: ``*`` can move the last bit."""
    try:
        return max(sigma**2, LIPSCHITZ_FLOOR)
    except OverflowError as exc:  # a Python float's square, past ~1.3e154
        raise NumericalError(f"Lipschitz constant overflows: {sigma!r} squared") from exc


def _advance(it: _Iterate, obs, config: SolverConfig, beta: float = 0.0, prev=None):
    """One alternation from ``it``; returns (next iterate, l_g, l_h).

    With beta > 0 the heavy-ball terms beta (u - u_prev) and beta (v - v_prev),
    where (u_prev, v_prev) = prev, are added to the U- and V-step blocks
    before their proximal maps; the gradients and Lipschitz constants are
    those of the plain step.  The shrunk spectra are the new factors'
    spectra, so the next Lipschitz constants and the penalty take no other
    spectrum than FN's values of V.
    """
    lam = config.lam
    coeff = config.reg.shrink_coeff(lam)
    u, v = it.u, it.v

    l_g = _lipschitz(it.sig_v)
    b_u = u - sp_dot(obs, it.r, v) / l_g
    if beta:
        _add_momentum(b_u, u, prev[0], beta)
    u1, su = _svt(_finite(b_u, "U step"), coeff / l_g)
    l_h = _lipschitz(float(su[0]))
    b_v = v - sp_tdot(obs, _residual(u1, v, obs), u1) / l_h
    if beta:
        _add_momentum(b_v, v, prev[1], beta)
    _finite(b_v, "V step")
    if config.reg is Regularizer.FN:
        v1 = _frob_rescale(b_v, l_h, lam)
        sv = _singular_values(v1)
    else:
        v1, sv = _svt(b_v, coeff / l_h)
    return _iterate_at(u1, v1, su, sv, _residual(u1, v1, obs), config), l_g, l_h


def _transform(it: _Iterate, prev, a_u, a_v, su, sv, obs, config: SolverConfig):
    """The iterate at (it.u a_u, it.v a_v), whose singular values are su and
    sv, and the momentum pair ``prev`` mapped by the same right factors."""
    u, v = it.u @ a_u, it.v @ a_v
    moved = _iterate_at(u, v, su, sv, _residual(u, v, obs), config)
    return moved, (prev[0] @ a_u, prev[1] @ a_v)


def _split_maps(u: np.ndarray, v: np.ndarray, reg: Regularizer):
    """Right factors (A_u, A_v), d x d, that take (u, v) to the optimal split
    of u v^T (``Regularizer.split``, exponents a and 1 - a), and the
    singular values of u A_u and v A_v.

    With the thin QRs u = Q_u R_u, v = Q_v R_v and the SVD
    R_u R_v^T = W diag(s) Z^T, u v^T = (Q_u W) diag(s) (Q_v Z)^T, so its
    split Q_u W s^a, Q_v Z s^(1-a) is u A_u, v A_v with A_u = R_v^T Z s^(a-1)
    and A_v = R_u^T W s^(-a).  Values at or below numpy's rank tolerance
    max(shape) eps s_1 of R_u R_v^T are dropped with their columns, which
    moves u v^T at rounding level only; the rest of the d columns are zero.
    """
    q_u, r_u = np.linalg.qr(u)
    q_v, r_v = np.linalg.qr(v)
    core = r_u @ r_v.T
    w, s, z_t = _svd(core, compute_uv=True)
    keep = int(np.count_nonzero(s > max(core.shape) * np.finfo(float).eps * s[0]))
    s[keep:] = 0.0
    pow_u, pow_v = reg.split
    a_u = np.zeros((u.shape[1],) * 2)
    a_v = np.zeros_like(a_u)
    a_u[:, :keep] = r_v.T @ (z_t[:keep].T * s[:keep] ** -pow_v)
    a_v[:, :keep] = r_u.T @ (w[:, :keep] * s[:keep] ** -pow_u)
    return a_u, a_v, s**pow_u, s**pow_v


def step(fp: FactorPair, obs: SparseObservations, config: SolverConfig):
    """One full plain (U, V) update, without inertia; returns (new pair,
    l_g, l_h).

    Lipschitz constants are recomputed fresh from the current iterate, and
    a zero factor's constant is LIPSCHITZ_FLOOR.  The factors need at least
    one column.
    """
    u, v = _check_pair(fp.u, fp.v, obs)
    if u.shape[1] == 0:
        raise ValueError(f"step needs factors with at least one column, got {u.shape[1]}")
    it, l_g, l_h = _advance(_start(u, v, _residual(u, v, obs), config), obs, config)
    return FactorPair(it.u, it.v), l_g, l_h


def solve(obs: SparseObservations, config: SolverConfig) -> SolveReport:
    """Iterate monotone heavy-ball PALM steps until the stopping rule or max_iters.

    Step k adds beta_k (U_k - U_{k-1}) and beta_k (V_k - V_{k-1}) to the
    plain step's blocks, beta_k = min((t_k - 1) / t_{k+1}, 0.9) on the FISTA
    sequence t_1 = 1, so the first step is plain.  A step that raises the
    objective above the last accepted value is replaced by the plain step
    from (U_k, V_k), and t restarts at 1.  After every ``_RESPLIT_PERIOD``-th
    iteration whose U step zeroed a singular value, when lam > 0 and another
    iteration follows, the loop continues from the optimal split of U_k V_k^T
    instead, its momentum pair mapped alike, unless that raises the
    objective; the stopping rule then measures the next step from the split.
    The objective trace never increases, but ``solve`` is not iterated
    ``step``.

    The report carries the full objective trace (one entry per iterate,
    starting at the initial point), the per-iteration Lipschitz pairs, the
    number of rejected inertial steps, the convergence flag, and first-order
    optimality diagnostics at the final iterate.  Deterministic for a fixed
    config and BLAS thread count; at d <= 10 the thread count has not moved
    a bit in any probe, but the Gram products of image-shaped blocks
    (d ~ 100) sum in a thread-dependent order, so their iterates move at
    rounding level with it.
    """
    trace, lips = [], []
    converged = False
    iterations = restarts = 0
    try:
        fp0 = initial_factors(obs, config)
        # the solve's one counted residual call (see kernel_madd_count)
        it = _start(fp0.u, fp0.v, masked_residual(fp0.u, fp0.v, obs), config)
        trace.append(it.objective)
        prev, t = (it.u, it.v), 1.0
        for k in range(config.max_iters):
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = min((t - 1.0) / t_next, _MOMENTUM_CAP)
            nxt, l_g, l_h = _advance(it, obs, config, beta, prev)
            if beta and not nxt.objective <= it.objective:
                # the inertial step raised the objective: free it, take the
                # plain step and restart the sequence
                del nxt
                nxt, l_g, l_h = _advance(it, obs, config)
                restarts += 1
                t_next = 1.0
            trace.append(nxt.objective)
            lips.append((l_g, l_h))
            du = _frobenius_norm(nxt.u - it.u)
            dv = _frobenius_norm(nxt.v - it.v)
            prev, it, t = (it.u, it.v), nxt, t_next
            iterations = k + 1
            if max(du, dv) < config.epsilon:
                converged = True
                break
            if (
                config.lam
                and it.su[-1] == 0.0
                and iterations % _RESPLIT_PERIOD == 0
                and iterations < config.max_iters
            ):
                maps = _split_maps(it.u, it.v, config.reg)
                split, split_prev = _transform(it, prev, *maps, obs, config)
                if split.objective <= it.objective:
                    it, prev = split, split_prev
                    trace[-1] = it.objective
    except NumericalError as exc:
        raise SolveFailure(str(exc), trace) from exc
    final = FactorPair(it.u, it.v)
    return SolveReport(
        factors=final,
        objective_trace=np.asarray(trace),
        lipschitz_trace=np.asarray(lips).reshape(-1, 2),
        iterations=iterations,
        restarts=restarts,
        converged=converged,
        optimality=_optimality(final, it.r, obs, config),
    )


def optimality_residual(
    fp: FactorPair, obs: SparseObservations, config: SolverConfig
) -> OptimalityReport:
    """First-order diagnostics at (U, V); see OptimalityReport.  A solve's
    report, built from its final iterate's residual, equals this at its
    factors field for field."""
    return _optimality(fp, masked_residual(fp.u, fp.v, obs), obs, config)


def _optimality(fp: FactorPair, r: np.ndarray, obs, config: SolverConfig) -> OptimalityReport:
    """``optimality_residual`` at (U, V) with residual values r there."""
    q = -sp_dot(obs, r, fp.v)  # P_omega(D - U V^T) V
    coeff = config.reg.shrink_coeff(config.lam)
    s = _singular_values(q)
    q_spectral = float(s[0]) if s.size else 0.0
    gap = abs(float(np.sum(q * fp.u)) - coeff * float(np.sum(_singular_values(fp.u))))
    rnorm = math.sqrt(_sum_of_squares(r))
    if rnorm == 0.0:
        c2 = math.inf
        degenerate = True
    else:
        c2 = _frobenius_norm(q) / rnorm
        degenerate = False
    gamma = _sum_of_squares(obs.values)
    c2_lower = coeff / math.sqrt(gamma) if gamma > 0.0 else math.inf
    return OptimalityReport(q_spectral, gap, c2, c2_lower, degenerate)


def _truncated_sparse_svd(obs: SparseObservations, values, k: int, rng) -> ThinSVD:
    """Leading-k singular triplets of the sparse matrix S by a randomized
    range finder (Halko, Martinsson & Tropp, SIAM Rev. 2011, Alg. 4.3 with
    a QR on each step's last block).

    S is built once (``sparse_obs._operator``) and a Gaussian block of
    w = min(k + p, m, n) columns takes q power steps, 2q + 1 products with
    S in all; the thin SVD of S times the final basis, by the Gram route
    (``linalg._gram_svd``), gives the leading k triplets, returned as a
    ``ThinSVD`` of k columns.  The p extra columns stand in for the
    spectral gap at sigma_k that the data need not have.  The Gaussian block
    is not orthonormalized, since its QR factor spans the same space; it is
    only scaled by 2^-e, e = floor(log2 n + 1) // 2, which brings its
    columns' expected norm sqrt(n) into [1/sqrt(2), sqrt(2)), so its
    product overflows no sooner than that of an orthonormal block.  Each
    power step's first block S q is not orthonormalized either, only
    rescaled exactly by the power of two that brings its max|.| into
    [0.5, 1), so the next product's entries stay below the absolute column
    sums of S at any data scale; rounding then loses only directions below
    about sqrt(eps) sigma_1.  The step's last block is orthonormalized by
    Householder QR, which also spans a rank-deficient block with w
    orthonormal columns, so the final basis is orthonormal as the right
    factor needs (hence q >= 1).  The Gram route resolves the values to
    about sqrt(w eps) sigma_1, the scale of the values nearest the split's
    1e-7 trim; its left vectors are zero where a value is 0.
    """
    w = min(k + _INIT_OVERSAMPLE, obs.m, obs.n)
    s = _operator(obs, values)
    q = np.ldexp(rng.standard_normal((obs.n, w)), -(obs.n.bit_length() // 2))
    for _ in range(_INIT_POWER_ITERS):
        y = _pow2_scaled(_finite(s @ q, "initializer block"))[0]
        q = np.linalg.qr(_finite(s.T @ y, "initializer block"))[0]
    f = _gram_svd(_finite(s @ q, "initializer block"), k)
    return ThinSVD(f.left, f.singular_values, q @ f.right)


def initial_factors(obs: SparseObservations, config: SolverConfig) -> FactorPair:
    """Starting factors.

    SPECTRAL_SCALED splits the rank-d truncated SVD of the inverse-sampling
    scaled observed matrix (m*n/|omega|) * P_omega(D), approximated by a
    seeded randomized range finder: a Gaussian block of d + 10 columns (at
    most min(m, n)), scaled by a power of two but not orthonormalized,
    takes one power step, three products with the observed matrix and one
    QR, and the leading min(d, m, n) triplets of the last product come from
    the eigendecomposition of its Gram matrix, with no LAPACK SVD.  Values
    are resolved to about sqrt(w eps) sigma_1, w the block's column count,
    so one near the trim may fall on either side of it where LAPACK's SVD
    would not.  The split is the penalty's optimal
    factorization, ``quasinorm.factor_pair_from_svd``, which also zeroes
    the triplets at or below the numerical-rank trim; a mismatched split
    leaves a factor-rebalancing transient that the alternation crosses only
    at O(lam) speed.  GAUSSIAN_SCALED draws i.i.d. normal entries with
    variance 1/sqrt(d) so (U V^T)_ij has unit variance.
    """
    m, n, d = obs.m, obs.n, config.d
    seed = spawn_seeds(config.seed, 1)[0]
    rng = philox_rng(seed)
    if config.init is InitStrategy.GAUSSIAN_SCALED:
        scale = d**-0.25
        return FactorPair(
            rng.standard_normal((m, d)) * scale,
            rng.standard_normal((n, d)) * scale,
        )
    if obs.nnz == 0:
        return FactorPair(np.zeros((m, d)), np.zeros((n, d)))
    scaled = obs.values * (m * n / obs.nnz)
    f = _truncated_sparse_svd(obs, scaled, min(d, m, n), rng)
    return factor_pair_from_svd(f, config.reg, d)
