"""Command-line front end: synthetic benchmarks, rating-file completion,
image recovery, and the quasi-norm verification suite.

Exit codes: 0 success, 1 verification-property failure, 2 usage or input
error, 3 numerical failure (partial outputs are kept).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    FORMATS,
    GrayImage,
    corrupt_image,
    gen_synthetic,
    parse_movielens,
    read_pgm,
    split_train_test,
    write_pgm,
)
from .linalg import NumericalError
from .metrics import bound_terms, psnr, rmse, rse
from .palm import InitStrategy, SolverConfig, solve
from .quasinorm import Regularizer
from .rng import spawn_seeds
from .verify import run_property_suite

SCHEMA = "schatten-mc/1"


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # degenerate flags mark these in the report
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


def _manifest(args: argparse.Namespace, outputs, wall_s: float) -> dict:
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command")
    }
    return {
        "schema": SCHEMA,
        "command": args.command,
        "config": config,
        "seed": args.seed,
        "version": __version__,
        "wall_time_s": wall_s,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
    }


def _write_report(args, path: Path, outputs, t_start: float, body: dict) -> None:
    """Write ``body`` and its manifest, timed from ``t_start`` to now, to ``path``."""
    wall_s = time.perf_counter() - t_start
    _write_json(path, {**body, "manifest": _manifest(args, outputs, wall_s)})


def _numerical_failure(args, path: Path, outputs, t_start, error: str, exc, body) -> int:
    """Write ``body`` with the error and the failed solve's partial trace; return 3."""
    body = {**body, "error": error, "objective_trace": getattr(exc, "objective_trace", [])}
    _write_report(args, path, outputs, t_start, body)
    print(f"schattenmc {args.command}: numerical failure: {error}", file=sys.stderr)
    return 3


def _solver_config(args, d: int, seed: int) -> SolverConfig:
    return SolverConfig(
        reg=Regularizer(args.reg),
        lam=args.lam,
        d=d,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        init=InitStrategy(args.init),
        seed=seed,
    )


def _optimality_dict(opt) -> dict:
    d = dataclasses.asdict(opt)
    d["c2_infinite"] = math.isinf(opt.c2)
    return d


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "runs.csv"
    summary_path = out / "summary.json"
    d = args.d if args.d is not None else int(math.floor(1.25 * args.rank))
    t_start = time.perf_counter()
    run_seeds = spawn_seeds(args.seed, args.runs)
    rows, rses, failure = [], [], None
    with open(csv_path, "w") as fh:
        fh.write("run,seed,iterations,converged,final_objective,rse,wall_ms\n")
        for i, run_seed in enumerate(run_seeds):
            inst = gen_synthetic(args.m, args.n, args.rank, args.nf, args.sr, run_seed)
            cfg = _solver_config(args, d, run_seed)
            t0 = time.perf_counter()
            try:
                report = solve(inst.observations, cfg)
            except NumericalError as exc:
                failure = exc
                break
            wall_ms = (time.perf_counter() - t0) * 1e3
            x = report.factors.product()
            run_rse = rse(x, inst.ground_truth)
            rses.append(run_rse)
            rows.append(i)
            fh.write(
                f"{i},{run_seed},{report.iterations},"
                f"{int(report.converged)},{float(report.objective_trace[-1])!r},"
                f"{run_rse!r},{wall_ms:.3f}\n"
            )
            fh.flush()
    outputs = [csv_path, summary_path]
    summary = {
        "d": d,
        "runs_completed": len(rows),
        "rse_mean": float(np.mean(rses)) if rses else None,
        "rse_std": float(np.std(rses)) if rses else None,
    }
    if failure is not None:
        error = f"run {len(rows)}: {failure}"
        return _numerical_failure(
            args, summary_path, outputs, t_start, error, failure, summary
        )
    _write_report(args, summary_path, outputs, t_start, summary)
    return 0


def _cmd_complete(args) -> int:
    t_start = time.perf_counter()
    # utf-8-sig drops a leading byte-order mark, also after the parser's rewind
    with open(args.input, "r", encoding="utf-8-sig") as fh:
        ratings = parse_movielens(fh, args.format)
    split_seed, solver_seed = spawn_seeds(args.seed, 2)
    train, test = split_train_test(ratings, args.train_frac, split_seed)
    cfg = _solver_config(args, args.d, solver_seed)
    # made once the input has been read, so an input error leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    try:
        report = solve(train, cfg)
    except NumericalError as exc:
        outputs = [report_path]
        return _numerical_failure(args, report_path, outputs, t_start, str(exc), exc, {})
    # an FN solve's own diagnostics are the FN ones the bound terms read
    fn_optimality = report.optimality if cfg.reg is Regularizer.FN else None
    terms = bound_terms(train, report.factors, args.lam, args.d, fn_optimality)
    body = {
        "dims": {"users": ratings.m, "items": ratings.n},
        "train_size": train.nnz,
        "test_size": test.nnz,
        "duplicates": ratings.duplicate_count,
        "rmse": rmse(report.factors, test),
        "iterations": report.iterations,
        "restarts": report.restarts,
        "converged": report.converged,
        "final_objective": float(report.objective_trace[-1]),
        "objective_trace": report.objective_trace,
        "optimality": _optimality_dict(report.optimality),
        "bound_terms": dataclasses.asdict(terms),
    }
    _write_report(args, report_path, [report_path], t_start, body)
    return 0


def _cmd_image(args) -> int:
    t_start = time.perf_counter()
    with open(args.input, "rb") as fh:
        img = read_pgm(fh)
    obs, corruption = corrupt_image(img, args.corrupt_frac, args.noise_sigma, args.seed)
    cfg = _solver_config(args, args.d, args.seed)
    # made once the input has been read, so an input error leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    recovered_path = out / "recovered.pgm"
    degraded_path = out / "degraded.pgm"
    report_path = out / "report.json"
    with open(degraded_path, "wb") as fh:
        write_pgm(corruption.degraded, fh)
    try:
        report = solve(obs, cfg)
    except NumericalError as exc:
        outputs = [degraded_path, report_path]
        return _numerical_failure(args, report_path, outputs, t_start, str(exc), exc, {})
    recovered = np.clip(np.rint(report.factors.product()), 0, 255).astype(np.uint8)
    with open(recovered_path, "wb") as fh:
        write_pgm(GrayImage(recovered), fh)
    original = img.pixels.astype(np.float64)
    psnr_rec = psnr(recovered.astype(np.float64), original)
    psnr_deg = psnr(corruption.degraded.pixels.astype(np.float64), original)
    body = {
        "width": img.width,
        "height": img.height,
        "observed_pixels": obs.nnz,
        "corrupted_pixels": int(corruption.mask.sum()),
        "psnr_recovered_db": psnr_rec,
        "psnr_recovered_infinite": math.isinf(psnr_rec),
        "psnr_degraded_db": psnr_deg,
        "psnr_degraded_infinite": math.isinf(psnr_deg),
        "iterations": report.iterations,
        "restarts": report.restarts,
        "converged": report.converged,
    }
    outputs = [recovered_path, degraded_path, report_path]
    _write_report(args, report_path, outputs, t_start, body)
    return 0


def _cmd_verify(args) -> int:
    t_start = time.perf_counter()
    results = run_property_suite(args.trials, args.seed)
    wall_s = time.perf_counter() - t_start
    outputs = [Path(args.out)] if args.out else []
    payload = {
        "manifest": _manifest(args, outputs, wall_s),
        "properties": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if payload["all_passed"] else 1


def _checked(convert, test, rule: str):
    """An argparse type: ``convert`` the text, then require ``test`` of the
    value, or fail as "must be <rule>, got <text>"."""

    def check(text):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    # argparse names the type in "invalid int value" for text that fails to convert
    check.__name__ = convert.__name__
    return check


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
# np.random.SeedSequence, which every command seeds through, takes no negative int
_seed = _checked(int, lambda v: v >= 0, ">= 0")
# written so that nan fails too; the solver flags take SolverConfig's rules
_non_negative = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "finite and positive")
_sampling_ratio = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_train_frac = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_corrupt_frac = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="schattenmc",
        description="Low-rank matrix completion with factored Schatten "
        "quasi-norm penalties.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp, lam_default):
        sp.add_argument("--reg", choices=sorted(r.value for r in Regularizer), default="fn")
        sp.add_argument("--lambda", dest="lam", type=_non_negative, default=lam_default)
        sp.add_argument("--epsilon", type=_positive, default=1e-4)
        sp.add_argument("--max-iters", type=_positive_int, default=1000)
        sp.add_argument(
            "--init", choices=sorted(i.value for i in InitStrategy), default="spectral"
        )
        sp.add_argument("--seed", type=_seed, default=0)

    synth = sub.add_parser("synth", help="seeded synthetic completion benchmark")
    synth.add_argument("--m", type=_positive_int, default=100)
    synth.add_argument("--n", type=_positive_int, default=100)
    synth.add_argument("--rank", type=_positive_int, default=5)
    synth.add_argument("--nf", type=_non_negative, default=0.0)
    synth.add_argument("--sr", type=_sampling_ratio, default=0.2)
    synth.add_argument("--d", type=_positive_int, default=None)
    synth.add_argument("--runs", type=_positive_int, default=1)
    synth.add_argument("--out", required=True)
    add_solver_flags(synth, 5.0)
    synth.set_defaults(func=_cmd_synth)

    complete = sub.add_parser("complete", help="rating-file completion run")
    complete.add_argument("--input", required=True)
    complete.add_argument("--format", choices=FORMATS, default="double-colon")
    complete.add_argument("--train-frac", type=_train_frac, default=0.5)
    complete.add_argument("--d", type=_positive_int, default=10)
    complete.add_argument("--out", required=True)
    add_solver_flags(complete, 100.0)
    complete.set_defaults(func=_cmd_complete)

    image = sub.add_parser("image", help="grayscale image recovery")
    image.add_argument("--input", required=True)
    image.add_argument("--corrupt-frac", type=_corrupt_frac, default=0.5)
    image.add_argument("--noise-sigma", type=_non_negative, default=50.0)
    image.add_argument("--d", type=_positive_int, default=100)
    image.add_argument("--out", required=True)
    add_solver_flags(image, 100.0)
    image.set_defaults(func=_cmd_image)

    verify = sub.add_parser("verify", help="quasi-norm property verification")
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.add_argument("--seed", type=_seed, default=1)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=_cmd_verify)
    return p


def _validate(parser, args) -> None:
    """The one rule that reads two flags; each flag checks its own value."""
    if args.command == "synth" and args.rank > min(args.m, args.n):
        parser.error("--rank exceeds min(m, n)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DataFormatError is a ValueError
        print(f"schattenmc {args.command}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"schattenmc {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
