#!/usr/bin/env python3
"""Plot a comparison.csv produced by `htnav compare` or reproduce_curves.py.

Requires matplotlib (install the package with the [plot] extra).
"""

import argparse
import csv
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("comparison_csv", help="comparison.csv from a compare run")
    parser.add_argument("--out", default=None, help="output image (default: show window)")
    parser.add_argument("--window", type=int, default=10, help="moving-average window width, in episodes")
    args = parser.parse_args()

    try:
        import matplotlib

        if args.out:
            matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; run: pip install 'htnav[plot]'", file=sys.stderr)
        return 1

    import numpy as np

    with open(args.comparison_csv) as fh:
        rows = list(csv.DictReader(fh))
    episodes = np.array([int(r["episode"]) for r in rows])
    series = {
        name: np.array([float(r[name]) for r in rows])
        for name in ("cauchy_mean", "cauchy_std", "gaussian_mean", "gaussian_std")
    }

    def smooth(y):
        w = max(1, min(args.window, y.shape[0]))
        return np.convolve(y, np.ones(w) / w, mode="same")

    fig, ax = plt.subplots(figsize=(7, 4.2))
    for family, color in (("cauchy", "tab:red"), ("gaussian", "tab:blue")):
        mean = smooth(series[f"{family}_mean"])
        std = smooth(series[f"{family}_std"])
        ax.plot(episodes, mean, color=color, label=family)
        ax.fill_between(episodes, mean - std, mean + std, color=color, alpha=0.2)
    ax.set_xlabel("episode")
    ax.set_ylabel("mean return across seeds")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    if args.out:
        fig.savefig(args.out, dpi=150)
        print(f"wrote {args.out}")
    else:
        plt.show()
    return 0


if __name__ == "__main__":
    sys.exit(main())
