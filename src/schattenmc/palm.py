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

The loop's shrinkage (``_svt``) and spectral norm (``_sigma_max``) take a
block's spectrum from LAPACK ``eigh`` of its d x d Gram matrix
(``linalg._gram_eigh``), never from an SVD of the tall block.  That
resolves singular values to about sqrt(d eps) sigma_1 only and moves
iterates at rounding level; the public ``svt_prox`` stays on LAPACK's SVD.

``step`` checks its factors once on entry and ``solve`` starts from factors
it made; from there the iteration calls the unchecked kernels of
``sparse_obs`` and ``linalg``.  Two checks stay in the loop: each step
block is tested for overflow (``NumericalError``), and a LAPACK convergence
failure is a ``NumericalError`` too.
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
    _frobenius_norm,
    _gram_eigh,
    as_matrix,
    frobenius_norm,
    nuclear_norm,
    sigma_max,
    thin_svd,
)
from .quasinorm import FactorPair, Regularizer, factor_pair_from_svd
from .rng import philox_rng, spawn_seeds
from .sparse_obs import (
    SparseObservations,
    _check_pair,
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
# three products with the observed matrix; over long solves its start did
# about as well as q = 4's nine products, while q = 0 cost ~17% more
# iterations at the criterion-7 protocol.
_INIT_POWER_ITERS = 1
_INIT_OVERSAMPLE = 10

# Cap on the heavy-ball weight beta_k = (t_k - 1) / t_{k+1} of ``solve``,
# where t follows the FISTA sequence t_1 = 1,
# t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2.
_MOMENTUM_CAP = 0.9


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
        # written so that nan fails too
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
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
    """

    q_spectral: float
    duality_gap: float
    c2: float
    c2_lower: float
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of ``solve``; ``optimality`` comes from the final iterate's
    residual and equals ``optimality_residual(factors, obs, config)``."""

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
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    a = as_matrix(a)
    if tau == 0.0:
        return a.copy()
    if 0 in a.shape:
        raise ValueError("svt_prox requires at least one row and one column")
    f = thin_svd(a)
    return (f.left * np.maximum(f.singular_values - tau, 0.0)) @ f.right.T


def _svt(a: np.ndarray, tau: float):
    """The loop's shrinkage of the nonempty finite float64 block ``a``
    (unchecked) by the Gram route, and the singular values of the result,
    non-increasing; tau = 0 returns ``a`` itself.

    With a^T a = R diag(s^2) R^T the result is a R diag(max(s - tau, 0) / s)
    R^T, or the same map applied from the left when ``a`` is wide.
    """
    if tau == 0.0:
        return a, _gram_eigh(a, vectors=False)[0][::-1]
    s, basis = _gram_eigh(a, vectors=True)
    shrunk = np.maximum(s - tau, 0.0)
    # tau > 0 here, so a zero s divides 0 by tau
    weights = (basis * (shrunk / np.maximum(s, tau))) @ basis.T
    out = a @ weights if a.shape[0] >= a.shape[1] else weights @ a
    return out, shrunk[::-1]


def _sigma_max(a: np.ndarray) -> float:
    """||a||_2 of the nonempty finite float64 block ``a`` (unchecked) by the
    Gram route: the square root of the Gram's top eigenvalue."""
    return float(_gram_eigh(a, vectors=False)[0][-1])


def frob_prox(b, l: float, lam: float) -> np.ndarray:
    """Minimizer of (lam/3)||V||_F^2 + (l/2)||V - b||_F^2: a rescaling of b."""
    if not 0.0 < l < math.inf:
        raise ValueError(f"l must be finite and positive, got {l}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    return _frob_rescale(as_matrix(b), l, lam)


def _frob_rescale(b: np.ndarray, l: float, lam: float) -> np.ndarray:
    return (l / (l + 2.0 * lam / 3.0)) * b


def _reg_term(u, v, config: SolverConfig) -> float:
    if config.lam == 0.0:
        return 0.0
    v_term = frobenius_norm(v) ** 2 if config.reg is Regularizer.FN else nuclear_norm(v)
    return config.reg.penalty(config.lam, nuclear_norm(u), v_term)


def _finite(block: np.ndarray, name: str) -> np.ndarray:
    """Pass ``block`` through, or raise NumericalError if it overflowed."""
    if not np.isfinite(block).all():
        raise NumericalError(f"{name} has non-finite entries (overflow)")
    return block


def objective(fp: FactorPair, obs: SparseObservations, config: SolverConfig) -> float:
    """Penalty plus half the squared masked residual norm."""
    r = masked_residual(fp.u, fp.v, obs)
    return _reg_term(fp.u, fp.v, config) + 0.5 * float(r @ r)


def _add_momentum(block: np.ndarray, x, x_prev, beta: float) -> None:
    """block += beta (x - x_prev), in place, through one temporary."""
    inertia = x - x_prev
    inertia *= beta
    block += inertia


class _Iterate(NamedTuple):
    """The solver state at the factors (u, v): sig_v = ||v||_2, r the
    residual values there and the objective there."""

    u: np.ndarray
    v: np.ndarray
    sig_v: float
    r: np.ndarray
    objective: float


def _start(u, v, r: np.ndarray, config: SolverConfig) -> _Iterate:
    """The iterate at the checked factors (u, v) with residual values r there."""
    return _Iterate(u, v, _sigma_max(v), r, _reg_term(u, v, config) + 0.5 * float(r @ r))


def _advance(it: _Iterate, obs, config: SolverConfig, beta: float = 0.0, prev=None):
    """One alternation from ``it``; returns (next iterate, l_g, l_h).

    With beta > 0 the heavy-ball terms beta (u - u_prev) and beta (v - v_prev),
    where (u_prev, v_prev) = prev, are added to the U- and V-step blocks
    before their proximal maps; the gradients and Lipschitz constants are
    those of the plain step.  The shrunk spectra are the new factors'
    spectra, so the next Lipschitz constants and the penalty cost no extra
    SVDs.
    """
    lam = config.lam
    coeff = config.reg.shrink_coeff(lam)
    u, v = it.u, it.v

    l_g = max(it.sig_v**2, LIPSCHITZ_FLOOR)
    b_u = u - sp_dot(obs, it.r, v) / l_g
    if beta:
        _add_momentum(b_u, u, prev[0], beta)
    u1, su = _svt(_finite(b_u, "U step"), coeff / l_g)
    l_h = max(float(su[0]) ** 2, LIPSCHITZ_FLOOR)
    b_v = v - sp_tdot(obs, _residual(u1, v, obs), u1) / l_h
    if beta:
        _add_momentum(b_v, v, prev[1], beta)
    _finite(b_v, "V step")
    if config.reg is Regularizer.FN:
        v1 = _frob_rescale(b_v, l_h, lam)
        sig_v1 = _sigma_max(v1)
        v_term = _frobenius_norm(v1) ** 2
    else:
        v1, sv = _svt(b_v, coeff / l_h)
        sig_v1 = float(sv[0])
        v_term = float(np.sum(sv))
    reg_val = config.reg.penalty(lam, float(np.sum(su)), v_term)

    r1 = _residual(u1, v1, obs)
    return _Iterate(u1, v1, sig_v1, r1, reg_val + 0.5 * float(r1 @ r1)), l_g, l_h


def step(fp: FactorPair, obs: SparseObservations, config: SolverConfig):
    """One full plain (U, V) update, without inertia; returns (new pair,
    l_g, l_h).

    Lipschitz constants are recomputed fresh from the current iterate, and
    a zero factor's constant is LIPSCHITZ_FLOOR.
    """
    u, v = _check_pair(fp.u, fp.v, obs)
    it, l_g, l_h = _advance(_start(u, v, _residual(u, v, obs), config), obs, config)
    return FactorPair(it.u, it.v), l_g, l_h


def solve(obs: SparseObservations, config: SolverConfig) -> SolveReport:
    """Iterate monotone heavy-ball PALM steps until the stopping rule or max_iters.

    Step k adds beta_k (U_k - U_{k-1}) and beta_k (V_k - V_{k-1}) to the
    plain step's blocks, beta_k = min((t_k - 1) / t_{k+1}, 0.9) on the FISTA
    sequence t_1 = 1, so the first step is plain.  A step that raises the
    objective above the last accepted value is replaced by the plain step
    from (U_k, V_k), and t restarts at 1.  The objective trace never
    increases, but ``solve`` is not iterated ``step``.

    The report carries the full objective trace (one entry per iterate,
    starting at the initial point), the per-iteration Lipschitz pairs, the
    number of rejected inertial steps, the convergence flag, and first-order
    optimality diagnostics at the final iterate.  Deterministic for a fixed
    config.
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
    q_spectral = sigma_max(q)
    gap = abs(float(np.sum(q * fp.u)) - coeff * nuclear_norm(fp.u))
    rnorm = math.sqrt(float(r @ r))
    if rnorm == 0.0:
        c2 = math.inf
        degenerate = True
    else:
        c2 = math.sqrt(float(np.sum(q * q))) / rnorm
        degenerate = False
    gamma = float(obs.values @ obs.values)
    c2_lower = coeff / math.sqrt(gamma) if gamma > 0.0 else math.inf
    return OptimalityReport(q_spectral, gap, c2, c2_lower, degenerate)


def _truncated_sparse_svd(obs: SparseObservations, values, k: int, rng) -> ThinSVD:
    """Leading-k singular triplets of the sparse matrix by a randomized range
    finder (Halko, Martinsson & Tropp, SIAM Rev. 2011, Alg. 4.4).

    A Gaussian block of w = min(k + p, m, n) columns takes q power steps,
    2q + 1 products with the matrix in all; the thin SVD of the matrix times
    the final basis is then truncated to its leading k triplets, returned as
    a ``ThinSVD`` of k columns.  The p extra columns stand in for the
    spectral gap at sigma_k that the data need not have.  Bases are
    orthonormalized by Householder QR, which also spans a rank-deficient
    block with w orthonormal columns.
    """
    w = min(k + _INIT_OVERSAMPLE, obs.m, obs.n)
    q = np.linalg.qr(rng.standard_normal((obs.n, w)))[0]
    for _ in range(_INIT_POWER_ITERS):
        left = np.linalg.qr(_finite(sp_dot(obs, values, q), "initializer block"))[0]
        q = np.linalg.qr(_finite(sp_tdot(obs, values, left), "initializer block"))[0]
    f = thin_svd(_finite(sp_dot(obs, values, q), "initializer block"))
    return ThinSVD(f.left[:, :k], f.singular_values[:k], q @ f.right[:, :k])


def initial_factors(obs: SparseObservations, config: SolverConfig) -> FactorPair:
    """Starting factors.

    SPECTRAL_SCALED splits the rank-d truncated SVD of the inverse-sampling
    scaled observed matrix (m*n/|omega|) * P_omega(D), approximated by a
    seeded randomized range finder: a block of d + 10 columns (at most
    min(m, n)) takes one power step, three products with the observed
    matrix, and its thin SVD is truncated to the leading min(d, m, n)
    triplets.  The split is the penalty's optimal factorization,
    ``quasinorm.factor_pair_from_svd``, which also zeroes the triplets at or
    below the numerical-rank trim; a mismatched split leaves a
    factor-rebalancing transient that the alternation crosses only at
    O(lam) speed.  GAUSSIAN_SCALED draws i.i.d. normal entries with
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
