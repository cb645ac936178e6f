"""schatten-mc benchmark: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in fresh worker processes,
one at a time, until ``--seconds`` have passed, checks every pass's outputs,
prints an environment block and a table of metrics with units and sample
counts, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over untraced
passes).  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones (medians over traced passes) plus the tracing
overhead.  Inputs are generated from the seed and cached under
``.bench_build/perfbench`` in the checkout, outside any timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import workloads
from inputs import cached_input
from reference import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"

END_TO_END = (("setup_s", "s"), ("run_ref_s", "s"), ("total_ref_s", "s"), ("peak_rss_mb", "MB"))
# Raw wall times and the speed scale, printed with the table but not gated:
# their spread on a shared host exceeds any useful bound (see reference.py).
RAW = (("run_s", "s"), ("total_s", "s"), ("speed_scale", "ratio"))

# One BLAS thread per worker: the solver's dense blocks are at most 256 x 100,
# and a second thread on a shared 2-core host adds more noise than speed.
BLAS_THREADS = 1
# Whole-run wall-clock limit; no pass starts that would be expected to cross it.
RUN_LIMIT_S = 170.0


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        return {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git": _git_state(),
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload, seed, traced, input_path, timeout_s) -> dict:
    """One pass in a fresh process; a crash or timeout returns a failed pass."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if input_path is not None:
        cmd += ["--input", str(input_path)]
    if traced:
        spans = CACHE / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        with SpeedProbe(workloads.SPEED_PROBE[workload]) as speed:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=_worker_env(),
                                  timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout_s:.0f} s"}
    if proc.returncode != 0:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": f"no result line: {proc.stdout[-500:]}"}
    res["speed_scale"] = speed.scale()
    res["run_ref_s"] = res["run_s"] * res["speed_scale"]
    res["total_ref_s"] = res["total_s"] * res["speed_scale"]
    return res


def cross_check(passes: list[dict]) -> None:
    """Every pass of one seed, traced or not, must reproduce the first bit for
    bit: same inputs, iteration counts and objective traces.  A pass that does
    not has all its operations counted failed."""
    for p in passes[1:]:
        for key in ("inputs", "digests"):
            if p[key] != passes[0][key]:
                p["failures"].append(f"{key} differ from the first pass: "
                                     f"{p[key]} vs {passes[0][key]}")
                p["failed"] = p["attempted"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="schatten-mc benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "schattenmc" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    start = time.monotonic()
    env = environment(args.workload, args.seed)
    # One CPU for this process, its speed probe and the workers, so the probe
    # times the workers' core; a pass is single-threaded.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    input_path = None
    kind = workloads.INPUT_KIND.get(args.workload)
    if kind is not None:
        t0 = time.perf_counter()
        input_path, sha = cached_input(kind, args.seed, CACHE / "inputs")
        env["input"] = {"file": input_path.name, "sha256": sha,
                        "bytes": input_path.stat().st_size,
                        "prepare_s": round(time.perf_counter() - t0, 3)}
    print("env " + json.dumps(env, sort_keys=True))

    untraced, traced = [], []
    t_measure = time.monotonic()
    while True:
        round_start = time.monotonic()
        kinds = (False, True) if args.trace else (False,)
        for is_traced in kinds:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            res = run_worker(args.workload, args.seed, is_traced, input_path, max(remaining, 1.0))
            (traced if is_traced else untraced).append(res)
        now = time.monotonic()
        if now - t_measure >= args.seconds or now + (now - round_start) - start > RUN_LIMIT_S:
            break

    passes = untraced + traced
    crashed = [p["crashed"] for p in passes if "crashed" in p]
    good = [p for p in passes if "crashed" not in p]
    cross_check(good)
    ops_per_pass = max((p["attempted"] for p in good), default=1)
    attempted = sum(p["attempted"] for p in good) + ops_per_pass * len(crashed)
    failed = sum(p["failed"] for p in good) + ops_per_pass * len(crashed)
    problems = crashed + [f for p in good for f in p["failures"]]
    if good:
        print("library " + json.dumps({"path": good[0]["library"], **good[0]["inputs"]}))

    ok_untraced = [p for p in untraced if "crashed" not in p]
    ok_traced = [p for p in traced if "crashed" not in p]
    print(f"passes: {len(ok_untraced)} untraced, {len(ok_traced)} traced, "
          f"{len(crashed)} crashed; operations {attempted} attempted, {failed} failed "
          f"(fail_frac {failed / max(attempted, 1):.3g})")
    print(f"{'metric':<40} {'unit':<6} {'median':>12} {'min':>12} {'max':>12}  n")
    e2e = {}
    for name, unit in END_TO_END + RAW:
        vals = [p[name] for p in ok_untraced]
        if not vals:
            continue
        median = statistics.median(vals)
        if (name, unit) in END_TO_END:
            e2e[name] = {"value": median, "unit": unit}
        print(f"{name:<40} {unit:<6} {_fmt(median):>12} "
              f"{_fmt(min(vals)):>12} {_fmt(max(vals)):>12}  {len(vals)}")
    for qname in sorted({k for p in good for k in p["quality"]}):
        vals = [p["quality"][qname] for p in good if qname in p["quality"]]
        print(f"{qname:<40} {'':<6} {_fmt(statistics.median(vals)):>12}"
              f" {_fmt(min(vals)):>12} {_fmt(max(vals)):>12}  {len(vals)}")
    if good:
        solves = ", ".join(f"{s['label']}: {s['iterations']} iters"
                           f"{' converged' if s['converged'] else ''}"
                           for s in good[0]["solves"])
        print(f"solves: {solves or 'none'}")

    per_layer = {}
    if args.trace and ok_traced and ok_untraced:
        for name, unit in layers.spec():
            if name == "trace.overhead_frac":
                value = (statistics.median(p["total_ref_s"] for p in ok_traced)
                         / statistics.median(p["total_ref_s"] for p in ok_untraced) - 1.0)
            else:
                value = statistics.median(p["per_layer"][name] for p in ok_traced)
            per_layer[name] = {"value": value, "unit": unit}
            print(f"{name:<40} {unit:<6} {_fmt(value):>12}")

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = per_layer if args.trace else e2e
    correct = not problems and bool(ok_untraced) and (bool(ok_traced) or not args.trace)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
