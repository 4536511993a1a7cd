#!/usr/bin/env python3
"""Uneven-terrain comparison: train each family, then evaluate elevation cost.

Trains on procedurally generated hilly worlds, writes the same run
directory as ``htnav compare`` (its manifest records this script's config),
evaluates each trained seed deterministically on held-out worlds, writes
that per-seed table to ``eval_seeds.csv`` in the same directory, and
prints the per-family means of success rate, trajectory length, and
elevation cost.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from htnav.atomic import write_csv
from htnav.cli import check_out_dir, parse_seeds, report_errors, write_compare_dir
from htnav.config import TrainConfig, apply_overrides
from htnav.env import EnvConfig
from htnav.evaluation import evaluate, summarize
from htnav.training import run_comparison
from htnav.world import WorldGenConfig

EVAL_CSV = "eval_seeds.csv"
# the eval_summary.json keys that eval_seeds.csv holds per seed; the
# printed table averages three of them per family
EVAL_COLUMNS = ("success_rate", "avg_traj_length_all", "elevation_cost_all")


def reproduce(args) -> int:
    # faster robot and a looser spawn-misalignment floor keep desk-scale
    # training long enough to see terrain interaction within the budget
    cfg = TrainConfig(
        scenario="uneven_terrain",
        episodes=args.episodes,
        eta=args.eta,
        env=EnvConfig(v_max=2.0),
        worldgen=WorldGenConfig(min_start_misalignment=math.pi / 4),
    )
    cfg = apply_overrides(cfg, {"seeds": parse_seeds(args.seeds)})
    out = check_out_dir(Path(args.out))
    by_family = run_comparison(cfg)
    rows = []
    for family, runs in by_family.items():
        for run in runs:
            summary = summarize(
                evaluate(run.params, cfg, args.eval_episodes, mode="deterministic", seed=run.seed),
                "deterministic",
            )
            rows.append([family, run.seed, *(summary[key] for key in EVAL_COLUMNS)])

    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / EVAL_CSV, ["family", "seed", *EVAL_COLUMNS], rows)
    write_compare_dir(out, cfg, by_family, extra_files=[EVAL_CSV])
    print(f"episodes={cfg.episodes} eta={cfg.eta} seeds={list(cfg.seeds)}")
    print(f"{'family':>8} {'success%':>9} {'steps(all)':>11} {'elev cost':>10}")
    for family in by_family:
        column = dict(zip(EVAL_COLUMNS, zip(*(row[2:] for row in rows if row[0] == family))))
        print(
            f"{family:>8} {np.mean(column['success_rate']):9.1f} "
            f"{np.mean(column['avg_traj_length_all']):11.1f} {np.mean(column['elevation_cost_all']):10.4f}"
        )
    print(f"wrote {out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=400)
    parser.add_argument("--eval-episodes", type=int, default=50)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--seeds", default="0,1,2,3,4,5")
    parser.add_argument("--out", default="runs/elevation")
    args = parser.parse_args()
    if args.eval_episodes < 1:
        # evaluate() would refuse this only after the whole comparison has trained
        parser.error(f"--eval-episodes must be >= 1, got {args.eval_episodes}")
    return report_errors(reproduce, args)


if __name__ == "__main__":
    sys.exit(main())
