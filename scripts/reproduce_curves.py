#!/usr/bin/env python3
"""Train each policy family on the flat-world scenario and export curves.

Runs the paired comparison (same seeds, same per-episode worlds), writes
the same run directory as ``htnav compare`` (comparison.csv, per-family
curves, diagnostics and checkpoints, manifest), and prints a compact
summary of the learning dynamics.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from htnav.cli import check_out_dir, report_errors, write_compare_dir
from htnav.config import TrainConfig, apply_overrides
from htnav.training import FINAL_WINDOW, half_rise_episode, run_comparison


def reproduce(args) -> int:
    cfg = apply_overrides(
        TrainConfig(),
        {
            "scenario": args.scenario,
            "episodes": str(args.episodes),
            "seeds": "[" + args.seeds + "]",
        },
    )
    out = check_out_dir(Path(args.out))
    by_family = run_comparison(cfg)

    out.mkdir(parents=True, exist_ok=True)
    write_compare_dir(out, cfg, by_family)

    window = min(FINAL_WINDOW, cfg.episodes)
    print(f"scenario={cfg.scenario} episodes={cfg.episodes} seeds={list(cfg.seeds)}")
    for family, runs in by_family.items():
        # with no episodes there is no final window to average
        final = "n/a"
        if window:
            final = f"{np.mean([run.returns[-window:].mean() for run in runs]):.3f}"
        rises = [half_rise_episode(run.returns) for run in runs]
        rise_txt = ", ".join("never" if r == float("inf") else f"{r:.0f}" for r in rises)
        print(
            f"{family:>8}: final-{window} mean return {final:>8} "
            f"(per-seed half-rise episodes: {rise_txt})"
        )
    print(f"wrote {out}/comparison.csv")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=120)
    parser.add_argument("--seeds", default="0,1,2,3,4,5")
    parser.add_argument("--scenario", default="goal_reaching")
    parser.add_argument("--out", default="runs/curves")
    return report_errors(reproduce, parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
