#!/usr/bin/env python3
"""Train both policy families on the flat-world scenario and export curves.

Runs the paired comparison (same seeds, same per-episode worlds), writes
comparison.csv / per-family curve files / checkpoints into the output
directory, and prints a compact summary of the learning dynamics.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from htnav.config import TrainConfig, apply_overrides
from htnav.training import (
    run_comparison,
    write_comparison_csv,
    write_curves_csv,
    write_diagnostics_csv,
)


def half_rise_episode(returns: np.ndarray, window: int = 20) -> float:
    """First episode where the trailing-mean return reaches half its final value."""
    smoothed = np.array(
        [returns[max(0, k - window + 1) : k + 1].mean() for k in range(returns.shape[0])]
    )
    final = smoothed[-1]
    if final <= 0:
        return float("inf")
    hits = np.nonzero(smoothed >= 0.5 * final)[0]
    return float(hits[0]) if hits.size else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=120)
    parser.add_argument("--seeds", default="0,1,2,3,4,5")
    parser.add_argument("--scenario", default="goal_reaching")
    parser.add_argument("--out", default="runs/curves")
    args = parser.parse_args()

    cfg = apply_overrides(
        TrainConfig(),
        {
            "scenario": args.scenario,
            "episodes": str(args.episodes),
            "seeds": "[" + args.seeds + "]",
        },
    )
    result = run_comparison(cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_comparison_csv(result, out / "comparison.csv")
    for record in (result.cauchy, result.gaussian):
        write_curves_csv(record, out / f"curve_{record.family}.csv")
        write_diagnostics_csv(record, out / f"diagnostics_{record.family}.csv")

    window = min(20, max(1, cfg.episodes))
    print(f"scenario={cfg.scenario} episodes={cfg.episodes} seeds={list(cfg.seeds)}")
    for record in (result.cauchy, result.gaussian):
        finals = [run.returns[-window:].mean() for run in record.seed_runs]
        rises = [half_rise_episode(run.returns) for run in record.seed_runs]
        rise_txt = ", ".join("never" if r == float("inf") else f"{r:.0f}" for r in rises)
        print(
            f"{record.family:>8}: final-{window} mean return {np.mean(finals):8.3f} "
            f"(per-seed half-rise episodes: {rise_txt})"
        )
    print(f"wrote {out}/comparison.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
