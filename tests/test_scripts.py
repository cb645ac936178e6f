"""Smoke runs of the experiment scripts: each exits 0 and prints its rows."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from schattenmc import sparse_obs
from schattenmc.sparse_obs import SparseObservations, sample_mask

from conftest import philox

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_kernel_path_grid_forces_each_path():
    # the script swaps in its own sparse_obs._dense_path, so it must follow
    # that private function's signature and put the rule back afterwards
    spec = importlib.util.spec_from_file_location(
        "kernel_path_grid", ROOT / "scripts" / "kernel_path_grid.py"
    )
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    rows, cols = sample_mask(6, 5, 0.5, 1)
    obs = SparseObservations(6, 5, rows, cols, np.ones(rows.size))
    rng = philox(4)
    u, v = rng.standard_normal((6, 2)), rng.standard_normal((5, 2))
    rule = sparse_obs._dense_path
    for dense in (True, False):
        assert grid.kernel_cost_us(obs, u, v, dense) > 0
        assert sparse_obs._dense_path is rule


def test_sparse_kernel_cost():
    out = run_script(
        "sparse_kernel_cost.py", "--m", 300, "--n", 250, "--nnz", 3000,
        "--ds", 2, 3, "--number", 1, "--repeat", 1,
    )
    assert out[0].startswith("300 x 250, ")
    assert out[1].startswith("first sparse product")
    rows = [line.split("|")[1:-1] for line in out if line.startswith(("| 2 |", "| 3 |"))]
    # residual, sp_dot, sp_tdot and spectral start
    assert len(rows) == 2 and all(len(row) == 5 for row in rows)
    assert all(float(ms) > 0 for row in rows for ms in row[1:])
