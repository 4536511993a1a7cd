"""Run one htnav CLI command in this process, timed and optionally traced.

run.py starts one fresh interpreter per measured run:

    python3 perfbench/child.py TIMING_JSON MODE -- <htnav arguments>

MODE is one of
  run    call ``htnav.cli.main``, record when set-up ended and when the
         workload started and ended, time the host probe just before and
         just after the workload, and record the machine
  trace  as ``run``, with every cross-layer call wrapped in a timing span and
         no probe

The workload starts at the first call of ``htnav.cli.train``,
``htnav.cli.run_comparison`` or ``htnav.cli.evaluate``, so set-up covers
interpreter start, imports, config building and, for eval, the checkpoint
load; the workload runs from ``start`` to ``end``.  Times are
``time.monotonic()`` readings, which share one clock across processes, so
run.py subtracts its own spawn time from ``entry``; ``process_time()``
readings at ``start`` and ``end`` give the workload's CPU time.
"""

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_ENTRIES = ("train", "run_comparison", "evaluate")

# (module, attribute at the caller's lookup site, span name).  Only calls
# that cross from one layer into another are wrapped; a name that a later
# refactor removed is skipped and its span reports 0 calls.
TARGETS = (
    ("htnav.cli", "train", "training.train"),
    ("htnav.cli", "run_comparison", "training.run_comparison"),
    ("htnav.cli", "evaluate", "evaluation.evaluate"),
    ("htnav.cli", "save_checkpoint", "checkpoint.save"),
    ("htnav.cli", "load_checkpoint", "checkpoint.load"),
    ("htnav.cli", "write_curves_csv", "cli.io"),
    ("htnav.cli", "write_diagnostics_csv", "cli.io"),
    ("htnav.cli", "write_comparison_csv", "cli.io"),
    ("htnav.cli", "write_eval_rows_csv", "cli.io"),
    ("htnav.cli", "write_eval_summary_json", "cli.io"),
    ("htnav.cli", "_write_manifest", "cli.io"),
    ("htnav.training", "train", "training.train"),
    ("htnav.training", "train_seed", "training.train_seed"),
    ("htnav.training", "world_for_episode", "training.world_for_episode"),
    ("htnav.training", "generate_world", "world.generate_world"),
    ("htnav.training", "world_hash", "world.world_hash"),
    ("htnav.training", "rollout", "training.rollout"),
    ("htnav.training", "sample_horizon", "estimator.sample_horizon"),
    ("htnav.training", "sample_action", "policy.sample_action"),
    ("htnav.training", "estimate", "estimator.estimate"),
    ("htnav.training", "ascent_step", "optimizer.ascent_step"),
    ("htnav.evaluation", "generate_world", "world.generate_world"),
    ("htnav.evaluation", "forward_mean", "policy.forward_mean"),
    ("htnav.evaluation", "project_action", "policy.project_action"),
    ("htnav.evaluation", "sample_action", "policy.sample_action"),
    ("htnav.env", "NavEnv.reset", "env.reset"),
    ("htnav.env", "NavEnv.step", "env.step"),
    ("htnav.env", "pose_from_terrain", "terrain.pose_from_terrain"),
    ("htnav.env", "scan_ranges", "geometry.scan_ranges"),
    ("htnav.rewards", "r_heading", "rewards"),
    ("htnav.rewards", "r_dist", "rewards"),
    ("htnav.rewards", "r_obs", "rewards"),
    ("htnav.rewards", "r_stable", "rewards"),
    ("htnav.rewards", "total_reward", "rewards"),
    ("htnav.estimator", "weighted_score_sum", "policy.weighted_score_sum"),
    ("htnav.policy", "forward", "net.forward"),
    ("htnav.policy", "forward_batch", "net.forward_batch"),
    ("htnav.policy", "backward_batch", "net.backprop"),
)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _primitives(obstacle) -> int:
    """Primitives one obstacle costs a ray: a capsule is two sides and two caps."""
    return 4 if getattr(obstacle, "thickness", 0.0) > 0.0 else 1


class Tracer:
    """Aggregated spans: calls, total and self time per span name.

    Spans are folded into per-name totals as they close rather than kept
    one by one, so tracing adds little memory and a few microseconds per
    call.  Self time is a span's duration minus the time its child spans
    cover.
    """

    def __init__(self):
        self.spans = {}
        self.stack = []
        self.missing = []
        self.counts = {"ray_tests": 0, "checkpoint_bytes": 0, "io_bytes": 0}
        self.world_keys = set()
        self.world_calls = 0
        self.episode_s = {"training": [], "evaluation": []}
        self._starts = {"training": [], "evaluation": []}

    def wrap(self, name, fn, before=None, after=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            covered = [0.0]
            stack.append(covered)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - covered[0]
                if stack:
                    stack[-1][0] += dur
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def _episode_start(self, loop):
        self._starts[loop].append(time.perf_counter())

    def _loop_begin(self, loop):
        self._starts[loop] = []

    def _loop_end(self, loop):
        marks = self._starts[loop] + [time.perf_counter()]
        self.episode_s[loop] += [b - a for a, b in zip(marks, marks[1:])]
        self._starts[loop] = []

    def _world_key(self, args, kwargs):
        scenario = args[0]
        seed = args[1] if len(args) > 1 else kwargs.get("seed")
        if hasattr(seed, "entropy"):
            seed = (seed.entropy, tuple(seed.spawn_key))
        self.world_keys.add((scenario, repr(seed)))
        self.world_calls += 1

    def _ray_tests(self, args, kwargs):
        obstacles = args[2] if len(args) > 2 else kwargs.get("obstacles", ())
        n_rays = args[3] if len(args) > 3 else kwargs.get("n_rays", 720)
        self.counts["ray_tests"] += int(n_rays) * sum(_primitives(ob) for ob in obstacles)

    def _bytes(self, key, path):
        self.counts[key] += _file_bytes(path)

    def hooks(self, module, attr):
        """(before, after) callbacks for a wrapped name; each gets (args, kwargs)."""
        if module == "htnav.cli" and attr.startswith("write_"):
            return None, lambda a, k: self._bytes("io_bytes", a[1])
        return {
            ("htnav.training", "train_seed"): (
                lambda a, k: self._loop_begin("training"),
                lambda a, k: self._loop_end("training"),
            ),
            ("htnav.training", "world_for_episode"): (
                lambda a, k: self._episode_start("training"),
                None,
            ),
            ("htnav.cli", "evaluate"): (
                lambda a, k: self._loop_begin("evaluation"),
                lambda a, k: self._loop_end("evaluation"),
            ),
            ("htnav.training", "generate_world"): (self._world_key, None),
            ("htnav.evaluation", "generate_world"): (
                lambda a, k: (self._episode_start("evaluation"), self._world_key(a, k)),
                None,
            ),
            ("htnav.env", "scan_ranges"): (self._ray_tests, None),
            ("htnav.cli", "save_checkpoint"): (None, lambda a, k: self._bytes("checkpoint_bytes", a[0])),
            ("htnav.cli", "load_checkpoint"): (lambda a, k: self._bytes("checkpoint_bytes", a[0]), None),
            ("htnav.cli", "_write_manifest"): (
                None,
                lambda a, k: self._bytes("io_bytes", Path(a[0]) / "manifest.json"),
            ),
        }.get((module, attr), (None, None))

    def install(self):
        for module_name, path, span in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            before, after = self.hooks(module_name, attr)
            setattr(owner, attr, self.wrap(span, fn, before, after))

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "missing": self.missing,
            "counts": self.counts,
            "world_calls": self.world_calls,
            "world_distinct": len(self.world_keys),
            "episode_s": self.episode_s,
        }


def _blas_threads():
    """OpenBLAS thread count as the loaded library reports it, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import platform

    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def host_probe() -> float:
    """Seconds this host takes for a fixed piece of work that runs no htnav code.

    The work mixes what the workloads spend their time on: formatting floats
    to JSON and hashing them, small numpy matrix products, plain Python
    dictionary loops, 720-ray circle tests and whole-heightmap numpy passes.
    run.py scales each run's times by the probes around them to take the
    host's speed at that moment out of them.  Changing this function changes
    every scaled figure, so it is part of the benchmark's definition.
    """
    import hashlib

    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    grid = rng.random((60, 60))
    for _ in range(18):
        hashlib.sha256(json.dumps(grid.tolist()).encode()).hexdigest()
    weights, x = rng.random((64, 32)), rng.random(64)
    for i in range(9000):
        h = np.tanh(x @ weights)
        x[i % 64] = float(h.sum()) * 1e-3
    counts = {}
    for i in range(300000):
        counts[i % 1009] = counts.get(i % 1009, 0) + i
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    dx, dy = np.cos(angles), np.sin(angles)
    nearest = np.full(720, np.inf)
    for cx, cy in rng.random((2500, 2)) * 10.0:
        along = cx * dx + cy * dy
        across2 = (cx * dy - cy * dx) ** 2
        hit = along - np.sqrt(np.maximum(0.25 - across2, 0.0))
        np.minimum(nearest, np.where(across2 < 0.25, hit, np.inf), out=nearest)
    field = rng.random((201, 201))
    for _ in range(250):
        field += 1e-3 * np.exp(-3.0 * (field - 0.5) ** 2)
    return time.perf_counter() - start


def main() -> int:
    timing_path, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--" or mode not in ("run", "trace"):
        raise SystemExit("usage: child.py TIMING_JSON run|trace -- <htnav arguments>")
    argv = sys.argv[4:]
    sys.path.insert(0, str(SRC))
    import htnav.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "htnav":
        raise SystemExit(f"htnav was imported from {cli.__file__}, not from {SRC}")

    record = {"entry": None}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    for name in WORKLOAD_ENTRIES:
        inner = getattr(cli, name)

        def entry(*args, _inner=inner, **kwargs):
            if record["entry"] is None:
                record["entry"] = time.monotonic()
                if mode == "run":
                    record["probe_s"] = [host_probe()]
                record["start"] = time.monotonic()
                record["cpu_start"] = time.process_time()
            return _inner(*args, **kwargs)

        setattr(cli, name, entry)

    main_fn = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main
    rc = main_fn(argv)
    record["end"] = time.monotonic()
    record["cpu_end"] = time.process_time()
    record["rc"] = rc
    if mode == "run":
        record.setdefault("probe_s", []).append(host_probe())
        record["machine"] = machine_info()
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
