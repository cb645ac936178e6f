"""The four benchmark workloads, each one pass through the library's public API.

A pass has three timed phases: ``setup`` (importing the package, then the
``data`` layer calls that turn the seeded input into observations), ``run``
(the workload's compute calls: every ``palm.solve`` including its initializer,
or the property suite) and ``eval`` (the ``metrics`` layer).  Every solve and
every verify property is one operation; an operation fails when it raises or
when one of its output checks fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
import traceback

import numpy as np

from inputs import sub_seeds

WORKLOADS = ("synth-protocol", "ratings-1m", "image-256", "verify-suite")

SYNTH = dict(m=100, n=100, r=5, nf=0.1, sr=0.2, lam=5.0, d=6, epsilon=1e-4, max_iters=1000)
RATINGS = dict(train_fraction=0.5, lam=100.0, d=10, max_iters=5)
IMAGE = dict(fraction=0.5, noise_sigma=50.0, lam=100.0, d=100, max_iters=2)
VERIFY_TRIALS = 10
# The suite draws its own matrices, and its Jacobi sweeps vary with them, so a
# suite seed that followed --seed would move run time by up to 20% between
# seeds.  It stays at 1, as in the acceptance protocol.
VERIFY_SEED = 1

# Objective increases above this share of the starting objective break the
# descent invariant (the acceptance tests use 1e-12 absolute on O(1e3) values).
DESCENT_RTOL = 1e-12


class Pass:
    """Timings, checks and outputs of one pass."""

    def __init__(self, seed: int, import_s: float):
        self.seed = seed
        self.phase_s = {"setup": import_s, "run": 0.0, "eval": 0.0}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._in_operation = False
        self._pass_failed = False
        self.quality: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.inputs: dict[str, str] = {}
        self.solves: list[dict] = []

    @contextlib.contextmanager
    def timed(self, phase):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[phase] += time.perf_counter() - t0

    def operation(self, name, fn):
        """Run one operation; it fails if it raises or any of its checks fail."""
        self.attempted += 1
        before = len(self.failures)
        self._in_operation = True
        try:
            result = fn()
        except Exception:
            self.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            result = None
        finally:
            self._in_operation = False
        if len(self.failures) > before:
            self.failed += 1
        return result

    def check(self, name, ok, detail=""):
        """Record a failed check; outside an operation it fails the whole pass."""
        if not ok:
            self.failures.append(f"{name}: check failed {detail}".rstrip())
            self._pass_failed |= not self._in_operation
        return ok

    def as_dict(self) -> dict:
        setup, run, ev = (self.phase_s[k] for k in ("setup", "run", "eval"))
        return {
            "setup_s": setup,
            "run_s": run,
            "eval_s": ev,
            "total_s": setup + run + ev,
            "attempted": self.attempted,
            "failed": self.attempted if self._pass_failed else self.failed,
            "failures": self.failures,
            "quality": self.quality,
            "digests": self.digests,
            "inputs": self.inputs,
            "solves": self.solves,
        }


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _solve(p: Pass, label: str, mc, obs, config, evaluate):
    """One solve as one operation: solve, evaluate the result, check outputs.

    ``evaluate(report)`` runs in the eval phase and returns the quality value.
    """

    def op():
        with p.timed("run"):
            report = mc.solve(obs, config)
        with p.timed("eval"):
            quality = evaluate(report)
        tr = report.objective_trace
        p.check(f"{label}.trace_finite", bool(np.isfinite(tr).all()))
        rise = float(np.diff(tr).max()) if tr.size > 1 else 0.0
        p.check(
            f"{label}.trace_nonincreasing",
            rise <= DESCENT_RTOL * max(1.0, abs(float(tr[0]))),
            f"rise {rise:.3e}",
        )
        u, v = report.factors.u, report.factors.v
        p.check(f"{label}.factors_finite", bool(np.isfinite(u).all() and np.isfinite(v).all()))
        p.check(f"{label}.quality_finite", math.isfinite(quality), repr(quality))
        p.digests[label] = digest(np.asarray([report.iterations]), tr)
        p.solves.append(
            {"label": label, "iterations": report.iterations, "converged": report.converged}
        )
        return quality

    return p.operation(label, op)


def synth_protocol(mc, p: Pass, _input_path):
    s = SYNTH
    seeds = sub_seeds(p.seed, 2)
    with p.timed("setup"):
        insts = [mc.gen_synthetic(s["m"], s["n"], s["r"], s["nf"], s["sr"], sd) for sd in seeds]
    p.inputs["synthetic"] = digest(
        *[a for i in insts for a in (i.ground_truth, i.observations.row_idx,
                                     i.observations.col_idx, i.observations.values)]
    )
    for reg, inst, sd in zip((mc.Regularizer.FN, mc.Regularizer.BIN), insts, seeds):
        cfg = mc.SolverConfig(
            reg=reg, lam=s["lam"], d=s["d"], epsilon=s["epsilon"],
            max_iters=s["max_iters"], seed=sd,
        )
        q = _solve(
            p, reg.value, mc, inst.observations, cfg,
            lambda rep, z=inst.ground_truth: mc.rse(rep.factors.product(), z),
        )
        if q is not None:
            p.quality[f"rse_{reg.value}"] = q


def ratings_1m(mc, p: Pass, input_path):
    r = RATINGS
    split_seed, solver_seed = sub_seeds(p.seed, 2)
    with p.timed("setup"):
        with open(input_path, encoding="ascii") as fh:
            ratings = mc.parse_movielens(fh)
        train, test = mc.split_train_test(ratings, r["train_fraction"], split_seed)
    p.check("ratings.shape", (ratings.m, ratings.n) == (6040, 3706), f"{ratings.m}x{ratings.n}")
    cfg = mc.SolverConfig(
        reg=mc.Regularizer.FN, lam=r["lam"], d=r["d"], max_iters=r["max_iters"], seed=solver_seed
    )

    def evaluate(rep):
        terms = mc.bound_terms(train, rep.factors, r["lam"], r["d"])
        p.check("bound_terms.finite", math.isfinite(terms.c2) and math.isfinite(terms.c2_lower))
        return mc.rmse(rep.factors, test)

    q = _solve(p, "fn", mc, train, cfg, evaluate)
    if q is not None:
        p.quality["rmse"] = q


def image_256(mc, p: Pass, input_path):
    c = IMAGE
    corrupt_seed, solver_seed = sub_seeds(p.seed, 2)
    with p.timed("setup"):
        with open(input_path, "rb") as fh:
            img = mc.read_pgm(fh)
        obs, _ = mc.corrupt_image(img, c["fraction"], c["noise_sigma"], corrupt_seed)
    original = img.pixels.astype(np.float64)
    cfg = mc.SolverConfig(
        reg=mc.Regularizer.FN, lam=c["lam"], d=c["d"], max_iters=c["max_iters"], seed=solver_seed
    )

    def evaluate(rep):
        recovered = np.clip(np.rint(rep.factors.product()), 0, 255)
        return mc.psnr(recovered, original)

    q = _solve(p, "fn", mc, obs, cfg, evaluate)
    if q is not None:
        p.quality["psnr_db"] = q


def verify_suite(mc, p: Pass, _input_path):
    def suite():
        with p.timed("run"):
            return mc.run_property_suite(VERIFY_TRIALS, seed=VERIFY_SEED)

    results = p.operation("run_property_suite", suite)
    if results is None:
        return
    # each property the suite reports is one operation, in place of the call
    p.attempted -= 1
    for res in results:
        ok = res.passed and math.isfinite(res.max_violation)
        detail = f"violation {res.max_violation:.3e} > {res.tolerance:.1e}"
        p.operation(res.name, lambda name=res.name, ok=ok, detail=detail: p.check(name, ok, detail))
    p.digests["properties"] = digest(np.asarray([r.max_violation for r in results]))


RUNNERS = {
    "synth-protocol": synth_protocol,
    "ratings-1m": ratings_1m,
    "image-256": image_256,
    "verify-suite": verify_suite,
}

# Input file each workload reads, by generator kind (see inputs.py).
INPUT_KIND = {"ratings-1m": "ratings", "image-256": "image"}

# Speed-probe parts that track each workload (see reference.py).  Over repeated
# passes of identical work, the log pass time correlated with the log time of
# ``numpy`` at 0.98 on synth-protocol, where ``gather`` reached only 0.68;
# on ratings-1m, ``gather`` reached 0.89 and ``numpy`` 0.79.  On the other two
# both parts together tracked as well as or better than either alone.
SPEED_PROBE = {
    "synth-protocol": ("numpy",),
    "ratings-1m": ("numpy", "gather"),
    "image-256": ("numpy", "gather"),
    "verify-suite": ("numpy", "gather"),
}
