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

import numpy as np

from .linalg import (
    NumericalError,
    _frobenius_norm,
    _sigma_max,
    _svd,
    as_matrix,
    frobenius_norm,
    nuclear_norm,
    sigma_max,
    thin_svd,
)
from .quasinorm import FactorPair, Regularizer
from .rng import philox_rng, spawn_seeds
from .sparse_obs import (
    SparseObservations,
    _check_pair,
    _residual,
    grad_u,
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
    "lipschitz_g",
    "lipschitz_h",
    "objective",
    "step",
    "solve",
    "optimality_residual",
    "initial_factors",
]

# Substituted for a Lipschitz constant when a factor is exactly zero, so the
# first step away from a degenerate iterate stays finite.
LIPSCHITZ_FLOOR = 1e-12

# Subspace-iteration depth for the spectral initializer.
_INIT_SUBSPACE_ITERS = 30


class InitStrategy(Enum):
    SPECTRAL_SCALED = "spectral"
    GAUSSIAN_SCALED = "gaussian"


@dataclass(frozen=True)
class SolverConfig:
    """Solver inputs: penalty choice, finite lam >= 0, rank bound d, stopping rule.

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
        # written so that nan fails too
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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


@dataclass(frozen=True)
class SolveReport:
    factors: FactorPair
    objective_trace: np.ndarray
    lipschitz_trace: np.ndarray
    iterations: int
    converged: bool
    optimality: OptimalityReport


class SolveFailure(NumericalError):
    """Numerical failure mid-run; carries the partial objective trace."""

    def __init__(self, message, objective_trace):
        super().__init__(message)
        self.objective_trace = np.asarray(objective_trace)


def svt_prox(a, tau: float) -> np.ndarray:
    """Singular value shrinkage: minimizer of tau ||X||_* + 0.5 ||X - a||_F^2.

    tau = 0 is the identity and returns a copy of ``a`` unchanged.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    a = as_matrix(a)
    if tau == 0.0:
        return a.copy()
    if 0 in a.shape:
        raise ValueError("svt_prox requires at least one row and one column")
    return _svt(a, tau)[0]


def _svt(a: np.ndarray, tau: float):
    """Shrinkage of the finite float64 matrix ``a`` (unchecked) and the
    singular values of the result; tau = 0 returns ``a`` itself."""
    if tau == 0.0:
        return a, _svd(a, compute_uv=False)
    left, sigma, right_t = _svd(a, compute_uv=True)
    shrunk = np.maximum(sigma - tau, 0.0)
    return (left * shrunk) @ right_t, shrunk


def frob_prox(b, l: float, lam: float) -> np.ndarray:
    """Minimizer of (lam/3)||V||_F^2 + (l/2)||V - b||_F^2: a rescaling of b."""
    if l <= 0:
        raise ValueError(f"l must be positive, got {l}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return _frob_rescale(as_matrix(b), l, lam)


def _frob_rescale(b: np.ndarray, l: float, lam: float) -> np.ndarray:
    return (l / (l + 2.0 * lam / 3.0)) * b


def lipschitz_g(v) -> float:
    """Lipschitz constant of the U-gradient: ||V||_2^2.

    Computed from LAPACK's singular values of V, which stay exact when the
    top singular values of an iterate cluster mid-run.
    """
    return sigma_max(v) ** 2


def lipschitz_h(u) -> float:
    """Lipschitz constant of the V-gradient: ||U||_2^2."""
    return sigma_max(u) ** 2


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
    return _reg_term(fp.u, fp.v, config) + 0.5 * r.sq_norm()


def _step_core(u, v, sig_v: float, r: np.ndarray, obs, config: SolverConfig):
    """One alternation from the checked factors (u, v), given
    sig_v = ||v||_2 and the residual values r at (u, v).

    Returns (u1, v1, sig_v1, l_g, l_h, r_next, reg_val): sig_v1 = ||v1||_2,
    r_next the residual values at (u1, v1), and reg_val the penalty there.
    The shrunk spectra are the new factors' spectra, so the next Lipschitz
    constants and the penalty cost no extra SVDs.
    """
    lam = config.lam
    coeff = config.reg.shrink_coeff(lam)

    l_g = max(sig_v**2, LIPSCHITZ_FLOOR)
    u1, su = _svt(_finite(u - sp_dot(obs, r, v) / l_g, "U step"), coeff / l_g)
    l_h = max(float(su[0]) ** 2, LIPSCHITZ_FLOOR)
    b_v = _finite(v - sp_tdot(obs, _residual(u1, v, obs), u1) / l_h, "V step")
    if config.reg is Regularizer.FN:
        v1 = _frob_rescale(b_v, l_h, lam)
        sig_v1 = _sigma_max(v1)
        v_term = _frobenius_norm(v1) ** 2
    else:
        v1, sv = _svt(b_v, coeff / l_h)
        sig_v1 = float(sv[0])
        v_term = float(np.sum(sv))
    reg_val = config.reg.penalty(lam, float(np.sum(su)), v_term)

    r_next = _residual(u1, v1, obs)
    return u1, v1, sig_v1, l_g, l_h, r_next, reg_val


def step(fp: FactorPair, obs: SparseObservations, config: SolverConfig):
    """One full (U, V) update; returns (new pair, l_g, l_h).

    Lipschitz constants are recomputed fresh from the current iterate.
    """
    u, v = _check_pair(fp.u, fp.v, obs)
    r = _residual(u, v, obs)
    u1, v1, _, l_g, l_h, _, _ = _step_core(u, v, _sigma_max(v), r, obs, config)
    return FactorPair(u1, v1), l_g, l_h


def _delta(a, b) -> float:
    d = a - b
    return math.sqrt(float(np.sum(d * d)))


def solve(obs: SparseObservations, config: SolverConfig) -> SolveReport:
    """Iterate alternating proximal steps until the stopping rule or max_iters.

    The report carries the full objective trace (one entry per iterate,
    starting at the initial point), the per-iteration Lipschitz pairs, the
    convergence flag, and first-order optimality diagnostics at the final
    iterate.  Deterministic for a fixed config.
    """
    trace, lips = [], []
    converged = False
    iterations = 0
    try:
        fp0 = initial_factors(obs, config)
        u, v = fp0.u, fp0.v
        r = _residual(u, v, obs)
        trace.append(_reg_term(u, v, config) + 0.5 * float(r @ r))
        sig_v = _sigma_max(v)
        for k in range(config.max_iters):
            u1, v1, sig_v, l_g, l_h, r_next, reg_val = _step_core(
                u, v, sig_v, r, obs, config
            )
            trace.append(reg_val + 0.5 * float(r_next @ r_next))
            lips.append((l_g, l_h))
            du = _delta(u1, u)
            dv = _delta(v1, v)
            u, v, r = u1, v1, r_next
            iterations = k + 1
            if max(du, dv) < config.epsilon:
                converged = True
                break
    except NumericalError as exc:
        raise SolveFailure(str(exc), trace) from exc
    final = FactorPair(u, v)
    return SolveReport(
        factors=final,
        objective_trace=np.asarray(trace),
        lipschitz_trace=np.asarray(lips).reshape(-1, 2),
        iterations=iterations,
        converged=converged,
        optimality=optimality_residual(final, obs, config),
    )


def optimality_residual(
    fp: FactorPair, obs: SparseObservations, config: SolverConfig
) -> OptimalityReport:
    """First-order diagnostics at (U, V); see OptimalityReport."""
    r = masked_residual(fp.u, fp.v, obs)
    q = -grad_u(r, fp.v)  # P_omega(D - U V^T) V
    coeff = config.reg.shrink_coeff(config.lam)
    q_spectral = sigma_max(q)
    gap = abs(float(np.sum(q * fp.u)) - coeff * nuclear_norm(fp.u))
    rnorm = math.sqrt(r.sq_norm())
    if rnorm == 0.0:
        c2 = math.inf
        degenerate = True
    else:
        c2 = math.sqrt(float(np.sum(q * q))) / rnorm
        degenerate = False
    gamma = float(obs.values @ obs.values)
    c2_lower = coeff / math.sqrt(gamma) if gamma > 0.0 else math.inf
    return OptimalityReport(q_spectral, gap, c2, c2_lower, degenerate)


def _truncated_sparse_svd(obs: SparseObservations, values, k: int, rng):
    """Leading-k singular triplets of the sparse matrix by subspace iteration.

    Bases are orthonormalized by Householder QR, which also spans a
    rank-deficient block with k orthonormal columns.
    """
    q = np.linalg.qr(rng.standard_normal((obs.n, k)))[0]
    for _ in range(_INIT_SUBSPACE_ITERS):
        left = np.linalg.qr(_finite(sp_dot(obs, values, q), "initializer block"))[0]
        q = np.linalg.qr(_finite(sp_tdot(obs, values, left), "initializer block"))[0]
    f = thin_svd(_finite(sp_dot(obs, values, q), "initializer block"))
    return f.left, f.singular_values, q @ f.right


def initial_factors(obs: SparseObservations, config: SolverConfig) -> FactorPair:
    """Starting factors.

    SPECTRAL_SCALED splits the rank-d truncated SVD of the inverse-sampling
    scaled observed matrix (m*n/|omega|) * P_omega(D), approximated by
    seeded subspace iteration.  The split matches the penalty's optimal
    factorization (``Regularizer.split``); a mismatched split leaves a
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
    k = min(d, m, n)
    scaled = obs.values * (m * n / obs.nnz)
    left, sigma, right = _truncated_sparse_svd(obs, scaled, k, rng)
    pow_u, pow_v = config.reg.split
    u = np.zeros((m, d))
    v = np.zeros((n, d))
    u[:, :k] = left * sigma**pow_u
    v[:, :k] = right * sigma**pow_v
    return FactorPair(u, v)
