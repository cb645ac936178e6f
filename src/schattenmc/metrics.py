"""Recovery metrics (RSE, RMSE, PSNR) and computable recovery-bound terms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_real, _sum_of_squares, as_matrix, frobenius_norm
from .palm import OptimalityReport, SolverConfig, optimality_residual
from .quasinorm import FactorPair, Regularizer
from .sparse_obs import SparseObservations, masked_residual

__all__ = ["BoundTerms", "rse", "rmse", "psnr", "bound_terms"]


@dataclass(frozen=True)
class BoundTerms:
    """Computable pieces of the critical-point recovery bound.

    beta = max |D_ij| over the observed set; c2, its lower bound c2_lower and
    the degenerate flag are those of ``palm.optimality_residual`` for the FN
    penalty; sample_term = (m d log(m) / |omega|)^(1/4).
    """

    beta: float
    c2: float
    c2_lower: float
    sample_term: float
    degenerate: bool = False


def rse(x, z) -> float:
    """Relative squared error ||x - z||_F / ||z||_F; z must be nonzero."""
    x = as_matrix(x, "x")
    z = as_matrix(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {z.shape}")
    zn = frobenius_norm(z)
    if zn == 0.0:
        raise ValueError("reference matrix is zero")
    return frobenius_norm(x - z) / zn


def rmse(fp: FactorPair, test: SparseObservations) -> float:
    """Root mean squared error of u_i . v_j against held-out ratings."""
    if test.nnz == 0:
        raise ValueError("empty test set")
    r = masked_residual(fp.u, fp.v, test)
    return math.sqrt(_sum_of_squares(r) / test.nnz)


def psnr(x, z, max_value: float = 255.0) -> float:
    """10 log10(max_value^2 / MSE) in dB; +inf for identical inputs."""
    _as_real(max_value, "max_value", "finite and positive")
    x = as_matrix(x, "x")
    z = as_matrix(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {z.shape}")
    mse = float(np.mean((x - z) ** 2))
    if mse == 0.0:
        return math.inf
    try:
        ratio = max_value**2 / mse
    except OverflowError:  # the square overflowed
        ratio = math.inf
    if 0.0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    # the square or the quotient left the float range
    return 20.0 * math.log10(max_value) - 10.0 * math.log10(mse)


def bound_terms(
    obs: SparseObservations,
    fp: FactorPair,
    lam: float,
    d: int,
    optimality: OptimalityReport | None = None,
) -> BoundTerms:
    """Bound terms at ``fp``.  ``optimality`` may pass in the FN diagnostics
    at (fp, lam), such as an FN solve's ``SolveReport.optimality``, in place
    of a second optimality pass.  lam and d take ``SolverConfig``'s checks
    either way: lam finite and >= 0, d a positive integer."""
    config = SolverConfig(Regularizer.FN, lam, d)
    opt = optimality
    if opt is None:
        opt = optimality_residual(fp, obs, config)
    beta = float(np.max(np.abs(obs.values))) if obs.nnz else 0.0
    if obs.nnz:
        sample_term = (obs.m * d * math.log(obs.m) / obs.nnz) ** 0.25
    else:
        sample_term = math.inf
    return BoundTerms(beta, opt.c2, opt.c2_lower, sample_term, opt.degenerate)
