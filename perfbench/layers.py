"""Per-layer metrics derived from one traced pass.

Layers are the library's modules.  Times are span self times (``.self_s``:
the function's own time, children excluded) or inclusive times (``.s``).
Kernel traffic is a model computed from each call's nnz and d, not measured.
"""

from __future__ import annotations

import numpy as np

from tracer import WORK

LINALG = ("thin_svd", "singular_values", "sigma_max", "nuclear_norm",
          "singular_values_stack", "as_matrix")
SPARSE = ("masked_residual", "grad_u", "grad_v", "sp_dot", "sp_tdot", "sample_mask")
DATA = ("gen_synthetic", "parse_movielens", "split_train_test", "read_pgm", "corrupt_image")
METRICS = ("rse", "rmse", "psnr", "bound_terms")
QUASINORM = ("schatten_quasi_norm", "fn_quasi_norm", "bin_quasi_norm",
             "optimal_factor_pair", "factor_surrogate_value",
             "surrogate_values_batch", "trace_power")


def bytes_per_entry(d: int) -> int:
    """Modelled traffic of one observed entry in a leaf kernel: its row and
    column index and its value, plus one float64 d-vector read or written on
    each side of the product."""
    return 8 * (2 * d + 3)


def kernel_work():
    """Span work hooks: (nnz, d) of every leaf sparse kernel call.

    grad_u and grad_v delegate to sp_dot and sp_tdot, so they are not hooked.
    """
    return {
        "sparse_obs.masked_residual": lambda u, v, obs: (obs.nnz, np.shape(u)[1]),
        "sparse_obs.sp_dot": lambda obs, values, x: (obs.nnz, np.shape(x)[1]),
        "sparse_obs.sp_tdot": lambda obs, values, x: (obs.nnz, np.shape(x)[1]),
    }


def spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in LINALG:
        out += [(f"linalg.{fn}.calls", "count"), (f"linalg.{fn}.self_s", "s")]
    for fn in SPARSE:
        out += [(f"sparse_obs.{fn}.calls", "count"), (f"sparse_obs.{fn}.self_s", "s")]
    out += [("sparse_obs.madds", "count"), ("sparse_obs.bytes_computed", "B")]
    out += [
        ("palm.solve.self_s", "s"),
        ("palm.initial_factors.s", "s"),
        ("palm.optimality_residual.s", "s"),
        ("palm.iterations", "count"),
        ("palm.iter_ms", "ms"),
        ("palm.converged_frac", "ratio"),
    ]
    out += [(f"data.{fn}.s", "s") for fn in DATA]
    out += [("data.parse_movielens.mb_per_s", "MB/s")]
    out += [(f"metrics.{fn}.s", "s") for fn in METRICS]
    out += [("metrics.rse.value", "ratio"), ("metrics.rmse.value", "rating"),
            ("metrics.psnr.db", "dB")]
    for fn in QUASINORM:
        out += [(f"quasinorm.{fn}.calls", "count"), (f"quasinorm.{fn}.self_s", "s")]
    out += [("verify.run_property_suite.self_s", "s"), ("trace.overhead_frac", "ratio")]
    return out


def values(summary, spans, result, input_bytes: int) -> dict[str, float]:
    """Per-layer metric values of one traced pass (``trace.overhead_frac``
    needs untraced passes and is filled in by the caller)."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for layer, fns in (("linalg", LINALG), ("sparse_obs", SPARSE), ("quasinorm", QUASINORM)):
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = get(f"{layer}.{fn}", "calls")
            out[f"{layer}.{fn}.self_s"] = get(f"{layer}.{fn}", "self_s")
    work = [s[WORK] for s in spans if s[WORK] is not None]
    out["sparse_obs.madds"] = result["madds"]
    out["sparse_obs.bytes_computed"] = sum(nnz * bytes_per_entry(d) for nnz, d in work)

    solves = result["solves"]
    iters = sum(s["iterations"] for s in solves)
    init_s = get("palm.initial_factors", "s")
    opt_s = get("palm.optimality_residual", "s")
    out["palm.solve.self_s"] = get("palm.solve", "self_s")
    out["palm.initial_factors.s"] = init_s
    out["palm.optimality_residual.s"] = opt_s
    out["palm.iterations"] = iters
    loop_s = get("palm.solve", "s") - init_s - opt_s
    out["palm.iter_ms"] = 1e3 * loop_s / iters if iters else 0.0
    out["palm.converged_frac"] = (
        sum(s["converged"] for s in solves) / len(solves) if solves else 0.0
    )

    for fn in DATA:
        out[f"data.{fn}.s"] = get(f"data.{fn}", "s")
    parse_s = out["data.parse_movielens.s"]
    out["data.parse_movielens.mb_per_s"] = input_bytes / 1e6 / parse_s if parse_s else 0.0
    for fn in METRICS:
        out[f"metrics.{fn}.s"] = get(f"metrics.{fn}", "s")
    q = result["quality"]
    rses = [v for k, v in q.items() if k.startswith("rse_")]
    out["metrics.rse.value"] = float(np.mean(rses)) if rses else 0.0
    out["metrics.rmse.value"] = q.get("rmse", 0.0)
    out["metrics.psnr.db"] = q.get("psnr_db", 0.0)
    out["verify.run_property_suite.self_s"] = get("verify.run_property_suite", "self_s")
    return out
