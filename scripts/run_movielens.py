#!/usr/bin/env python3
"""Collaborative-filtering benchmark on a MovieLens ratings file.

Runs both factored penalties at each requested training fraction and
prints the held-out RMSE.  Download ml-1m separately and point --input at
its ratings.dat (the file is not bundled).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schattenmc.data import FORMATS, parse_movielens, split_train_test
from schattenmc.metrics import rmse
from schattenmc.palm import SolverConfig, solve
from schattenmc.quasinorm import Regularizer
from schattenmc.rng import spawn_seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True)
    ap.add_argument("--format", default="double-colon", choices=FORMATS)
    ap.add_argument("--fractions", type=float, nargs="+", default=[0.5, 0.7, 0.9])
    ap.add_argument("--d", type=int, default=10)
    ap.add_argument("--lambda", dest="lam", type=float, default=100.0)
    ap.add_argument("--max-iters", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    with open(args.input, "r", encoding="utf-8-sig") as fh:
        ratings = parse_movielens(fh, args.format)
    print(f"{ratings.nnz} ratings, {ratings.m} users x {ratings.n} items, "
          f"{ratings.duplicate_count} duplicates collapsed")

    for frac in args.fractions:
        split_seed, solver_seed = spawn_seeds(args.seed, 2)
        train, test = split_train_test(ratings, frac, split_seed)
        for reg in (Regularizer.FN, Regularizer.BIN):
            cfg = SolverConfig(reg=reg, lam=args.lam, d=args.d,
                               epsilon=1e-4, max_iters=args.max_iters,
                               seed=solver_seed)
            t0 = time.perf_counter()
            rep = solve(train, cfg)
            err = rmse(rep.factors, test)
            print(f"train {frac:.0%}  {reg.value:>3}  RMSE {err:.4f}  "
                  f"iters {rep.iterations}  converged {rep.converged}  "
                  f"{time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
