"""Command-line entry point: train, eval, compare, surface.

Every command writes into one run directory (default root from the
HTNAV_OUT environment variable, else ./runs) containing a manifest that
lists every file the command produced.  Every run-file writer lives here;
the reproduction scripts write theirs through ``write_compare_dir``, and
report errors through ``report_errors``.  Outputs are byte-identical
across reruns with the same inputs; the manifest is the only file that
carries a timestamp.
"""

import argparse
import errno
import hashlib
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import write_csv, write_json
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, TrainConfig, apply_overrides, config_to_dict, load_config
from .env import observation_dim
from .evaluation import EVAL_MODES, EvalReport, evaluate
from .policy import FAMILIES
from .rewards import reward_surface
from .training import FINAL_WINDOW, SeedRun, TrainingAbort, run_comparison, train
from .world import SCENARIOS, GenerationError

log = logging.getLogger("htnav")

MANIFEST_FORMAT = "htnav-manifest-v1"


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds expects comma-separated integers, got {text!r}") from exc


def _parse_set_pairs(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _build_config(args) -> TrainConfig:
    """Defaults, then config file, then flag overrides, in rising precedence."""
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = load_config(path)
    else:
        cfg = TrainConfig()
    overrides = {}
    for name in ("scenario", "family", "episodes"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    if getattr(args, "seeds", None) is not None:
        overrides["seeds"] = _parse_seeds(args.seeds)
    overrides.update(_parse_set_pairs(getattr(args, "set", None)))
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def _eval_config(args, params) -> TrainConfig:
    """``_build_config`` with the checkpoint's family, sigma and hidden_layers, which a
    ``--family`` or ``--set`` may only repeat: the config an eval runs and records."""
    cfg = _build_config(args)
    policy = {"family": params.family, "sigma": params.sigma, "hidden_layers": params.spec.hidden_layers}
    flagged = set(_parse_set_pairs(args.set)) | ({"family"} if args.family else set())
    for key, value in policy.items():
        if key in flagged and getattr(cfg, key) != value:
            raise ConfigError(f"checkpoint has {key} {value!r}, not {getattr(cfg, key)!r}")
    return apply_overrides(cfg, policy)


def check_out_dir(out: Path) -> Path:
    """``out``, unless it exists and is no directory.  Commands check their run
    directory before any work and create it after, so a failed run leaves none."""
    if out.exists() and not out.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))
    return out


def _run_dir(args, default_name: str) -> Path:
    """``--out``, else ``$HTNAV_OUT/<default_name>``, checked by ``check_out_dir``."""
    root = Path(os.environ.get("HTNAV_OUT", "runs"))
    return check_out_dir(Path(args.out) if getattr(args, "out", None) else root / default_name)


def _write_manifest(out_dir: Path, command: str, cfg: TrainConfig | None, files, **blocks) -> None:
    """Write ``manifest.json``; ``blocks`` are extra top-level entries."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "command": command,
        "version": __version__,
        "created_unix": time.time(),
        "config": config_to_dict(cfg) if cfg is not None else None,
        "seeds": list(cfg.seeds) if cfg is not None else None,
        "files": sorted(files),
        **blocks,
    }
    write_json(out_dir / "manifest.json", manifest)


def write_curves_csv(runs: list[SeedRun], path) -> None:
    """One row per (seed, episode)."""
    rows = (
        [run.seed, k, run.returns[k], run.steps[k], run.causes[k]]
        for run in runs
        for k in range(len(run))
    )
    write_csv(path, ["seed", "episode", "return", "steps", "cause"], rows)


def write_diagnostics_csv(runs: list[SeedRun], path) -> None:
    """One row per (seed, iteration).  ``horizon_used`` is the steps the
    estimator summed over, ``steps - 1``; the other columns are ``SeedRun`` fields."""
    header = ["seed", "iteration", "grad_raw_inf", "grad_clipped_inf", "horizon_sampled",
              "horizon_used", "max_abs_action"]
    rows = (
        [run.seed, k, run.grad_raw_inf[k], run.grad_clipped_inf[k], run.horizon_sampled[k],
         run.steps[k] - 1, run.max_abs_action[k]]
        for run in runs
        for k in range(len(run))
    )
    write_csv(path, header, rows)


def write_comparison_csv(by_family: dict[str, list[SeedRun]], path) -> None:
    """One row per episode: each family's mean and std return over seeds."""
    header, columns = ["episode"], []
    for family, runs in by_family.items():
        returns = np.stack([run.returns for run in runs])
        header += [f"{family}_mean", f"{family}_std"]
        columns += [returns.mean(axis=0), returns.std(axis=0)]
    write_csv(path, header, ([k, *row] for k, row in enumerate(zip(*columns))))


def write_eval_rows_csv(report: EvalReport, path) -> None:
    rows = (
        [r.episode, r.cause, r.steps, r.episode_return, r.elevation, r.final_distance]
        for r in report.rows
    )
    write_csv(path, ["episode", "cause", "steps", "return", "elevation_cost", "final_distance"], rows)


def write_eval_summary_json(report: EvalReport, path) -> None:
    """Metrics left undefined because no episode succeeded are null, not NaN: standard JSON."""

    def _num(v):
        return float(v) if math.isfinite(v) else None

    summary = {
        "episodes": report.episodes,
        "mode": report.mode,
        "success_rate": report.success_rate,
        "avg_traj_length_successful": _num(report.avg_traj_length),
        "avg_traj_length_all": report.avg_traj_length_all,
        "elevation_cost_all": report.elevation_cost,
        "elevation_cost_successful": _num(report.elevation_cost_successful),
    }
    write_json(path, summary)


def write_surface_csv(path, d_axis, other_axis, values, other_label: str) -> None:
    """Header row holds the second axis, rows lead with d_goal."""
    header = ["d_goal\\" + other_label, *(repr(float(v)) for v in other_axis)]
    write_csv(path, header, ([d, *row] for d, row in zip(d_axis, values)))


def write_runs(out_dir: Path, runs: list[SeedRun], tag: str = "") -> list[str]:
    """Write ``runs``' curve, diagnostics and checkpoint files; return their names."""
    names = [f"curve{tag}.csv", f"diagnostics{tag}.csv"]
    write_curves_csv(runs, out_dir / names[0])
    write_diagnostics_csv(runs, out_dir / names[1])
    for run in runs:
        names.append(f"checkpoint{tag}_seed{run.seed}.json")
        save_checkpoint(out_dir / names[-1], run.params, run.opt_state)
    return names


def write_compare_dir(out_dir: Path, cfg: TrainConfig, by_family: dict[str, list[SeedRun]],
                      extra_files=()) -> None:
    """Write a ``compare`` run directory: comparison.csv, each family's runs, and a
    manifest that also lists ``extra_files``, which the caller has written to ``out_dir``."""
    write_comparison_csv(by_family, out_dir / "comparison.csv")
    files = ["comparison.csv", *extra_files]
    for family, runs in by_family.items():
        files += write_runs(out_dir, runs, f"_{family}")
    _write_manifest(out_dir, "compare", cfg, files)


def cmd_train(args) -> int:
    cfg = _build_config(args)
    log.info("training family=%s scenario=%s seeds=%s episodes=%d",
             cfg.family, cfg.scenario, list(cfg.seeds), cfg.episodes)
    out = _run_dir(args, f"train-{cfg.scenario}-{cfg.family}")
    runs = train(cfg)
    out.mkdir(parents=True, exist_ok=True)
    files = write_runs(out, runs)
    for run in runs:
        if len(run):
            tail = run.returns[-FINAL_WINDOW:]
            log.info("seed %d: mean return over final %d episodes = %.3f",
                     run.seed, len(tail), float(np.mean(tail)))
    _write_manifest(out, "train", cfg, files)
    log.info("wrote %s", out)
    return 0


def cmd_eval(args) -> int:
    if args.eval_seed < 0:
        raise ConfigError(f"--eval-seed must be >= 0, got {args.eval_seed}")
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {args.n}")
    data = Path(args.checkpoint).read_bytes()  # parsed and hashed from this one read
    params, _ = load_checkpoint(args.checkpoint, data)
    cfg = _eval_config(args, params)
    expected = observation_dim(cfg.scenario, cfg.env.n_scan_rays)
    if params.spec.input_dim != expected:
        raise CheckpointError(
            f"checkpoint expects {params.spec.input_dim} input features but "
            f"scenario {cfg.scenario!r} provides {expected}"
        )
    out = _run_dir(args, f"eval-{cfg.scenario}-{cfg.family}")
    report = evaluate(params, cfg, args.n, mode=args.mode, seed=args.eval_seed)
    out.mkdir(parents=True, exist_ok=True)
    write_eval_rows_csv(report, out / "eval_rows.csv")
    write_eval_summary_json(report, out / "eval_summary.json")
    eval_block = {
        "checkpoint": args.checkpoint,
        "checkpoint_sha256": hashlib.sha256(data).hexdigest(),
        "eval_seed": args.eval_seed,
        "episodes": args.n,
        "mode": args.mode,
    }
    _write_manifest(out, "eval", cfg, ["eval_rows.csv", "eval_summary.json"], eval=eval_block)
    log.info("success_rate: %.1f%%", report.success_rate)
    log.info("avg_traj_length (successful): %s", report.avg_traj_length)
    log.info("elevation_cost (all episodes): %s", report.elevation_cost)
    log.info("wrote %s", out)
    return 0


def cmd_compare(args) -> int:
    cfg = _build_config(args)
    out = _run_dir(args, f"compare-{cfg.scenario}")
    by_family = run_comparison(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_compare_dir(out, cfg, by_family)
    if cfg.episodes:
        window = min(FINAL_WINDOW, cfg.episodes)
        finals = (
            f"{family} {np.stack([run.returns for run in runs]).mean(axis=0)[-window:].mean():.3f}"
            for family, runs in by_family.items()
        )
        log.info("final-%d-episode mean return: %s", window, ", ".join(finals))
    log.info("wrote %s", out)
    return 0


def cmd_surface(args) -> int:
    for flag, n in (("--n-d", args.n_d), ("--n-other", args.n_other)):
        if n < 2:
            raise ConfigError(f"{flag} must be >= 2, got {n}")
    for flag, d in (("--d-max", args.d_max), ("--initial-distance", args.initial_distance)):
        if d is not None and not 0 < d < math.inf:
            raise ConfigError(f"{flag} must be positive and finite, got {d}")
    cfg = _build_config(args)
    d_axis, other_axis, values = reward_surface(
        args.axes,
        cfg.rewards,
        n_d=args.n_d,
        n_other=args.n_other,
        d_max=args.d_max,
        initial_distance=args.initial_distance,
        d_collision=cfg.env.d_collision,
        scan_max=cfg.env.scan_max_range,
    )
    out = _run_dir(args, f"surface-{args.axes}")
    out.mkdir(parents=True, exist_ok=True)
    label = "alpha" if args.axes == "dist_angle" else "min_scan"
    write_surface_csv(out / "surface.csv", d_axis, other_axis, values, label)
    _write_manifest(out, "surface", None, ["surface.csv"])
    log.info("wrote %s", out / "surface.csv")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, *run_flags: str) -> None:
    """Add --config, --set, --out and the ``run_flags`` a subcommand reads.

    ``run_flags`` names any of scenario, family, episodes and seeds.
    """
    p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    flags = {
        "scenario": {"choices": SCENARIOS},
        "family": {"choices": FAMILIES},
        "episodes": {"type": int},
        "seeds": {"help": "comma-separated seed list, e.g. 0,1,2"},
    }
    for name in run_flags:
        p.add_argument(f"--{name}", **flags[name])
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key, dotted for nested (rewards.beta_g=50)")
    p.add_argument("--out", help="output directory (default: $HTNAV_OUT/<run-name>)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htnav",
        description="Heavy-tailed policy-gradient navigation: train, evaluate, compare, plot data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one policy family over the configured seeds")
    _add_config_flags(p_train, "scenario", "family", "episodes", "seeds")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("checkpoint", help="checkpoint JSON written by train/compare")
    _add_config_flags(p_eval, "scenario", "family")
    p_eval.add_argument("-n", type=int, default=50, help="number of evaluation episodes")
    p_eval.add_argument("--mode", choices=EVAL_MODES, default="deterministic")
    p_eval.add_argument("--eval-seed", type=int, default=0,
                        help="seed for the evaluation world/action streams")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="train both families on shared seeds and worlds")
    _add_config_flags(p_cmp, "scenario", "episodes", "seeds")
    p_cmp.set_defaults(func=cmd_compare)

    p_surf = sub.add_parser("surface", help="export a reward surface grid as CSV")
    _add_config_flags(p_surf)
    p_surf.add_argument("--axes", choices=("dist_angle", "dist_scan"), default="dist_angle")
    p_surf.add_argument("--n-d", type=int, default=200, help="grid points along the distance axis")
    p_surf.add_argument("--n-other", type=int, default=200, help="grid points along the other axis")
    p_surf.add_argument("--d-max", type=float, default=40.0)
    p_surf.add_argument("--initial-distance", type=float, default=None,
                        help="episode start distance anchoring the halfway bump")
    p_surf.set_defaults(func=cmd_surface)
    return parser


def report_errors(fn, *args) -> int:
    """``fn(*args)``, an exit code; a failure that names its own cause is logged as
    ``error: ...`` and returns 2 (1 for a failed run), with no traceback."""
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        return fn(*args)
    except OSError as exc:  # a missing file, a directory where a file belongs, ...
        where = "" if exc.filename is None else f": {exc.filename}"
        log.error("error: %s%s", exc.strerror or exc, where)
        return 2
    except (TrainingAbort, GenerationError) as exc:
        log.error("error: %s", exc)
        return 1
    except ValueError as exc:  # ConfigError and CheckpointError among them
        log.error("error: %s", exc)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return report_errors(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
