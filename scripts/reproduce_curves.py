#!/usr/bin/env python3
"""Train both policy families on the flat-world scenario and export curves.

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

from htnav.cli import write_compare_dir
from htnav.config import ConfigError, TrainConfig, apply_overrides
from htnav.training import FINAL_WINDOW, half_rise_episode, run_comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=120)
    parser.add_argument("--seeds", default="0,1,2,3,4,5")
    parser.add_argument("--scenario", default="goal_reaching")
    parser.add_argument("--out", default="runs/curves")
    args = parser.parse_args()

    try:
        cfg = apply_overrides(
            TrainConfig(),
            {
                "scenario": args.scenario,
                "episodes": str(args.episodes),
                "seeds": "[" + args.seeds + "]",
            },
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_comparison(cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_compare_dir(out, cfg, result)

    window = min(FINAL_WINDOW, cfg.episodes)
    print(f"scenario={cfg.scenario} episodes={cfg.episodes} seeds={list(cfg.seeds)}")
    for record in (result.cauchy, result.gaussian):
        # with no episodes there is no final window to average
        final = "n/a"
        if window:
            final = f"{np.mean([run.returns[-window:].mean() for run in record.seed_runs]):.3f}"
        rises = [half_rise_episode(run.returns) for run in record.seed_runs]
        rise_txt = ", ".join("never" if r == float("inf") else f"{r:.0f}" for r in rises)
        print(
            f"{record.family:>8}: final-{window} mean return {final:>8} "
            f"(per-seed half-rise episodes: {rise_txt})"
        )
    print(f"wrote {out}/comparison.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
