"""One benchmark pass in a fresh process; prints its result as one JSON line.

Started by run.py, which sets PYTHONPATH to the checkout's ``src`` and the
BLAS thread count, and whose one-CPU affinity the worker inherits.  A fresh
process per pass makes ``peak_rss_mb`` the peak of that pass alone and keeps
one pass's caches from warming the next.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        [--input FILE] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy  # noqa: F401  (imported before timing: set-up covers the library only)

import layers
import workloads
from tracer import END, NAME, START, WORK, Tracer, self_times, summarize


def peak_rss_mb() -> float:
    """High-water resident set of this process image, from VmHWM.

    ``ru_maxrss`` is not used: on Linux it also counts the parent's resident
    set inherited across fork and exec, so a large parent inflates it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(workload: str, seed: int, traced: bool, input_path=None, spans_path=None) -> dict:
    t0 = time.perf_counter()
    import schattenmc
    from schattenmc import sparse_obs

    p = workloads.Pass(seed, import_s=time.perf_counter() - t0)
    tracer = Tracer(work=layers.kernel_work()) if traced else None
    madds0 = sparse_obs.kernel_madd_count()
    if tracer is None:
        workloads.RUNNERS[workload](schattenmc, p, input_path)
    else:
        with tracer, tracer.span("pass"):
            workloads.RUNNERS[workload](schattenmc, p, input_path)
    madds = sparse_obs.kernel_madd_count() - madds0
    if tracer is not None:
        spans = tracer.spans
        root = spans[0][END] - spans[0][START]
        self_sum = sum(self_times(spans))
        p.check("trace.self_times_sum_to_root", abs(self_sum - root) <= 1e-9 * max(root, 1.0),
                f"{self_sum!r} vs {root!r}")
        residual_madds = sum(
            s[WORK][0] * s[WORK][1] for s in spans if s[NAME] == "sparse_obs.masked_residual"
        )
        p.check("trace.madds_match_kernel_counter", residual_madds == madds,
                f"{residual_madds} vs {madds}")
    result = p.as_dict()
    result["madds"] = madds
    result["library"] = os.path.dirname(schattenmc.__file__)
    if tracer is not None:
        input_bytes = os.path.getsize(input_path) if input_path else 0
        result["per_layer"] = layers.values(summarize(spans), spans, result, input_bytes)
        result["spans"] = len(spans)
        if spans_path:
            with open(spans_path, "w", encoding="ascii") as fh:
                for s in spans:
                    fh.write(json.dumps(s[:4]) + "\n")
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.input, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
