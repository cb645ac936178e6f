"""Low-rank matrix completion with factored Schatten quasi-norm penalties.

Two alternating proximal solvers minimize the masked squared loss plus a
factored penalty that is provably equal to the Schatten-2/3 (nuclear +
squared-Frobenius split) or Schatten-1/2 (two nuclear norms) quasi-norm of
the product, together with the quasi-norm toolbox, data handling, metrics,
and a benchmark CLI.
"""

__version__ = "0.1.0"

from .data import (
    Corruption,
    DataFormatError,
    GrayImage,
    RatingSet,
    SyntheticInstance,
    corrupt_image,
    gen_synthetic,
    parse_movielens,
    read_pgm,
    split_train_test,
    write_pgm,
)
from .linalg import (
    NumericalError,
    ThinSVD,
    frobenius_norm,
    nuclear_norm,
    thin_svd,
)
# exported alias; linalg binds each function under one name only
from .linalg import sigma_max as spectral_norm
from .metrics import BoundTerms, EvalReport, bound_terms, psnr, rmse, rse
from .palm import (
    InitStrategy,
    OptimalityReport,
    SolveFailure,
    SolveReport,
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
from .quasinorm import (
    FactorPair,
    Regularizer,
    bin_quasi_norm,
    factor_surrogate_value,
    fn_quasi_norm,
    optimal_factor_pair,
    schatten_quasi_norm,
    trace_power,
)
from .sparse_obs import (
    SparseObservations,
    SparseResidual,
    grad_u,
    grad_v,
    masked_residual,
    sample_mask,
)
from .verify import PropertyResult, run_property_suite

__all__ = [
    "__version__",
    "Corruption",
    "DataFormatError",
    "GrayImage",
    "RatingSet",
    "SyntheticInstance",
    "corrupt_image",
    "gen_synthetic",
    "parse_movielens",
    "read_pgm",
    "split_train_test",
    "write_pgm",
    "NumericalError",
    "ThinSVD",
    "frobenius_norm",
    "nuclear_norm",
    "spectral_norm",
    "thin_svd",
    "BoundTerms",
    "EvalReport",
    "bound_terms",
    "psnr",
    "rmse",
    "rse",
    "InitStrategy",
    "OptimalityReport",
    "SolveFailure",
    "SolveReport",
    "SolverConfig",
    "frob_prox",
    "initial_factors",
    "lipschitz_g",
    "lipschitz_h",
    "objective",
    "optimality_residual",
    "solve",
    "step",
    "svt_prox",
    "FactorPair",
    "Regularizer",
    "bin_quasi_norm",
    "factor_surrogate_value",
    "fn_quasi_norm",
    "optimal_factor_pair",
    "schatten_quasi_norm",
    "trace_power",
    "SparseObservations",
    "SparseResidual",
    "grad_u",
    "grad_v",
    "masked_residual",
    "sample_mask",
    "PropertyResult",
    "run_property_suite",
]
