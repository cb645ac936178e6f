"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import SpeedProbe  # noqa: E402
from tracer import NAME, WORK, Tracer, self_times  # noqa: E402

import schattenmc  # noqa: E402
from schattenmc import sparse_obs  # noqa: E402


def _bindings():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "schattenmc" or name.startswith("schattenmc.")
        for attr, obj in list(vars(mod).items())
    }


def _small_problem():
    inst = schattenmc.gen_synthetic(40, 30, 3, 0.1, 0.3, seed=5)
    cfg = schattenmc.SolverConfig(reg=schattenmc.Regularizer.BIN, lam=1.0, d=4, max_iters=5)
    return inst.observations, cfg


def test_tracer_restores_every_binding():
    before = _bindings()
    with Tracer():
        during = _bindings()
        # the package root, the defining module and importing modules are all rebound
        for key in (("schattenmc", "solve"), ("schattenmc.linalg", "thin_svd"),
                    ("schattenmc.palm", "thin_svd"), ("schattenmc.sparse_obs", "as_matrix")):
            assert during[key] is not before[key], key
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_root_span():
    obs, cfg = _small_problem()
    tracer = Tracer()
    with tracer, tracer.span("root"):
        schattenmc.solve(obs, cfg)
    spans = tracer.spans
    assert spans[0][NAME] == "root" and len(spans) > 50
    root = spans[0][2] - spans[0][1]
    assert sum(self_times(spans)) == pytest.approx(root, rel=1e-9)
    assert all(s >= -1e-9 for s in self_times(spans))


def test_madds_equal_nnz_times_d_per_masked_residual_call():
    obs, cfg = _small_problem()
    tracer = Tracer(work=layers.kernel_work())
    start = sparse_obs.kernel_madd_count()
    with tracer:
        schattenmc.solve(obs, cfg)
    delta = sparse_obs.kernel_madd_count() - start
    calls = [s for s in tracer.spans if s[NAME] == "sparse_obs.masked_residual"]
    assert calls and all(s[WORK] == (obs.nnz, cfg.d) for s in calls)
    assert delta == len(calls) * obs.nnz * cfg.d


def test_inputs_are_a_function_of_the_seed():
    assert inputs.image_bytes(3) == inputs.image_bytes(3)
    assert inputs.image_bytes(3) != inputs.image_bytes(4)
    assert inputs.sub_seeds(7, 2) == inputs.sub_seeds(7, 2)
    data = inputs.ratings_bytes(3)
    assert data == inputs.ratings_bytes(3)
    users = np.array([int(line.split(b"::")[0]) for line in data.splitlines()])
    assert abs(users.size - inputs.ML_RATINGS) < 0.01 * inputs.ML_RATINGS
    assert np.bincount(users)[1:].min() >= inputs.ML_MIN_PER_USER


def test_input_cache_keeps_the_most_recent_files(tmp_path):
    first, sha = inputs.cached_input("image", 0, tmp_path)
    assert sha == inputs.sha256_file(first)
    for seed in range(1, inputs.CACHE_KEEP + 2):
        path, _ = inputs.cached_input("image", seed, tmp_path)
        assert path.read_bytes() == inputs.image_bytes(seed)
    kept = sorted(p.name for p in tmp_path.glob("image-seed*.pgm"))
    assert len(kept) == inputs.CACHE_KEEP and not first.exists() and path.name in kept


def test_speed_probe_samples_while_open_and_stops():
    with SpeedProbe(period_s=0.01) as speed:
        time.sleep(0.2)
    n = len(speed.samples)
    assert n >= 3 and all(t > 0 for t in speed.samples)
    assert not speed._thread.is_alive()
    time.sleep(0.05)
    assert len(speed.samples) == n
    assert 0 < speed.scale() < 100


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.RUNNERS) == set(workloads.SPEED_PROBE) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.spec()


def test_a_pass_at_this_commit_has_no_failures():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "synth-protocol",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
