"""Smoke runs of the experiment scripts: each exits 0 and prints its rows."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_run_movielens(tmp_path):
    rng = philox(3)
    lines = []
    for user in range(1, 41):
        for item in rng.choice(30, size=10, replace=False) + 1:
            lines.append(f"{user}::{item}::{rng.integers(1, 6)}::978300760\n")
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("".join(lines))
    out = run_script(
        "run_movielens.py", "--input", ratings, "--fractions", 0.5, "--max-iters", 20
    )
    assert out[0].startswith("400 ratings, 40 users x ")
    rows = [line for line in out if line.startswith("train 50%")]
    assert len(rows) == 2  # FN and BiN


def test_run_synthetic_benchmark():
    out = run_script(
        "run_synthetic_benchmark.py", "--m", 20, "--n", 20, "--rank", 2, "--runs", 1
    )
    rows = [line for line in out if line.split()[:1] in (["20%"], ["30%"])]
    assert len(rows) == 8  # 2 sampling ratios x 2 noise factors x 2 penalties
