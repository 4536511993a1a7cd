#!/usr/bin/env python3
"""htnav benchmark: simulated steps per second, set-up time and peak memory.

Run from the repository root:

    python3 perfbench/run.py --workload train_flat --seed 0 --seconds 30 --trace 0

Each measured run is one fresh ``htnav`` CLI process (``htnav.cli.main``
started through perfbench/child.py) on one unit of work, the workload at
one of four sub-seeds.  With ``--trace 0`` the benchmark passes over all
four sub-seeds, starting at --seed mod 4, until ``--seconds`` is used up
(the first pass always completes), and reports medians of times scaled to
a reference host by a fixed probe each process times around its work.
With ``--trace 1`` it runs each sub-seed once untraced and once traced and
reports per-layer numbers.
Every run's output files are compared row by row with the references in
perfbench/reference/; an episode whose row differs or is missing counts as
failed.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (episodes) and ``metrics``.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from child import TARGETS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = BENCH_DIR / "reference"
EVAL_CHECKPOINT = BENCH_DIR / "eval_checkpoint.json"

# every run covers sub-seeds 0..N_SUBSEEDS-1, starting at --seed mod N_SUBSEEDS
N_SUBSEEDS = 4
# median host_probe() time (child.py) on the reference host, the one
# BASELINE.json describes; scaled times are in seconds of that host
PROBE_REF_S = 0.29
# every launch is killed past this many seconds after the benchmark started
HARD_LIMIT_S = 165.0

# unit of work per sub-seed: (full size, self-test size); the size is the
# episode count per training seed, or the number of evaluation episodes
SIZES = {
    "train_flat": (8, 1),
    "train_obstacles": (4, 1),
    "eval_hills": (40, 2),
}
TRAIN_FAMILY = "cauchy"


def cli_args(workload: str, subseed: int, size: int) -> list[str]:
    """htnav arguments for one unit of a workload (everything but --out)."""
    seeds = f"{2 * subseed},{2 * subseed + 1}"
    if workload == "train_flat":
        return ["compare", "--scenario", "goal_reaching", "--seeds", seeds, "--episodes", str(size)]
    if workload == "train_obstacles":
        return ["train", "--scenario", "obstacle_avoidance", "--family", TRAIN_FAMILY,
                "--seeds", seeds, "--episodes", str(size)]
    if workload == "eval_hills":
        return ["eval", str(EVAL_CHECKPOINT.relative_to(ROOT)), "--scenario", "uneven_terrain",
                "--family", TRAIN_FAMILY, "-n", str(size), "--mode", "deterministic",
                "--eval-seed", str(subseed)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- outputs


def parse_outputs(out_dir: Path) -> dict:
    """Every checked piece of a run directory as {record id: text}.

    CSV rows are keyed by file and (seed, episode) or episode; checkpoints
    by their sha256; the manifest by its file list (it alone holds a
    timestamp).
    """
    records = {}
    for path in sorted(out_dir.iterdir()):
        name = path.name
        if name == "manifest.json":
            records[name] = json.dumps(sorted(json.loads(path.read_text())["files"]))
        elif name.startswith("checkpoint"):
            records[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif name.endswith(".csv"):
            lines = path.read_text().splitlines()
            records[f"{name}:header"] = lines[0] if lines else ""
            for line in lines[1:]:
                cells = line.split(",")
                key = cells[0] if name in ("comparison.csv", "eval_rows.csv") else ":".join(cells[:2])
                records[f"{name}:{key}"] = line
        else:
            records[name] = path.read_text()
    return records


def _index(episode: str) -> int:
    return int(episode.rsplit("/", 1)[1])


def _whole_run(record_id: str) -> bool:
    """Records that depend on every episode of the unit, not on a prefix."""
    return ":" not in record_id


def episodes_of(record_id: str, universe: list[str]) -> list[str]:
    """Episodes ("family/seed/k" or "eval/k") whose result a record reports."""
    name, _, key = record_id.partition(":")
    if name == "eval_rows.csv" and key != "header":
        return [f"eval/{key}"]
    if name.startswith(("curve", "diagnostics")) and key != "header":
        family = name[:-4].split("_")[1] if "_" in name else TRAIN_FAMILY
        seed, k = key.split(":")
        return [f"{family}/{seed}/{k}"]
    if name == "comparison.csv" and key != "header":
        return [e for e in universe if _index(e) == int(key)]
    checkpoint = re.fullmatch(r"checkpoint_(?:(\w+?)_)?seed(\d+)\.json", name)
    if checkpoint:
        # the final weights are the result of the run's last episode
        family, seed = checkpoint.group(1) or TRAIN_FAMILY, checkpoint.group(2)
        run = [e for e in universe if e.startswith(f"{family}/{seed}/")]
        return [max(run, key=_index)] if run else list(universe)
    return list(universe)


def reference_universe(reference: dict, limit: int | None = None) -> list[str]:
    universe = sorted(
        {e for rid in reference if rid.startswith(("curve", "eval_rows")) and not rid.endswith(":header")
         for e in episodes_of(rid, [])}
    )
    return [e for e in universe if limit is None or _index(e) < limit]


def check_outputs(out_dir: Path, reference: dict, limit: int | None = None) -> tuple[int, int]:
    """(episodes attempted, episodes failed) for one run against its reference.

    ``limit`` checks a shorter run against the first ``limit`` episodes of
    the reference; records that depend on the whole run are then skipped.
    """
    universe = reference_universe(reference, limit)
    expected = reference
    if limit is not None:
        expected = {}
        for rid, text in reference.items():
            covers = set(episodes_of(rid, universe))
            if not _whole_run(rid) and covers and covers <= set(universe):
                expected[rid] = text
    got = parse_outputs(out_dir) if out_dir.is_dir() else {}
    if limit is not None:
        got = {rid: text for rid, text in got.items() if not _whole_run(rid)}
    failed = set()
    for rid, text in expected.items():
        if got.get(rid) != text:
            failed.update(episodes_of(rid, universe))
    if set(got) - set(expected):
        failed.update(universe)
    return len(universe), len(failed)


def reference_steps(reference: dict, universe: list[str]) -> int:
    """Environment steps of the reference run over the given episodes."""
    wanted = set(universe)
    total = 0
    for rid, line in reference.items():
        if rid.startswith(("curve", "eval_rows")) and not rid.endswith(":header"):
            if set(episodes_of(rid, [])) <= wanted:
                total += int(line.split(",")[3 if rid.startswith("curve") else 2])
    return total


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    doc = json.loads(gzip.decompress(reference_path(workload).read_bytes()))
    for subseed in range(N_SUBSEEDS):
        recorded = doc["args"][str(subseed)]
        current = cli_args(workload, subseed, SIZES[workload][0])
        if recorded != current:
            raise SystemExit(
                f"{reference_path(workload)} was recorded for {recorded}, the workload now runs "
                f"{current}; re-record with perfbench/record.py"
            )
    return doc["outputs"]


# ---------------------------------------------------------------- launching


@dataclass
class Launch:
    rc: int
    setup_s: float
    work_s: float
    work_cpu_s: float
    wall_s: float
    rss_mib: float
    timing: dict


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("HTNAV_OUT", None)
    return env


def launch(mode: str, argv: list[str], out_dir: Path, deadline: float) -> Launch:
    """Run one child process to completion and return its timings."""
    timing_path = WORK / "timing.json"
    timing_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(timing_path), mode, "--",
           *argv, "--out", str(out_dir)]
    with open(WORK / "cli.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    timing = json.loads(timing_path.read_text()) if timing_path.exists() else {}
    entry = timing.get("entry") or t0 + wall
    start = timing.get("start", entry)
    return Launch(
        rc=proc.returncode if timing else (proc.returncode or 1),
        setup_s=entry - t0,
        work_s=timing.get("end", start) - start,
        work_cpu_s=timing.get("cpu_end", 0.0) - timing.get("cpu_start", 0.0),
        wall_s=timing.get("end", t0 + wall) - t0,
        rss_mib=usage.ru_maxrss / 1024.0,
        timing=timing,
    )


@dataclass
class Unit:
    launch: Launch
    attempted: int
    failed: int
    steps: int

    @property
    def ok(self) -> bool:
        return self.launch.rc == 0 and self.failed == 0


def run_unit(workload: str, subseed: int, mode: str, reference: dict, tiny: bool, deadline: float) -> Unit:
    size = SIZES[workload][1 if tiny else 0]
    limit = size if tiny else None
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    done = launch(mode, cli_args(workload, subseed, size), out_dir, deadline)
    attempted, failed = check_outputs(out_dir, reference[str(subseed)], limit)
    if done.rc != 0:
        failed = attempted
    steps = reference_steps(reference[str(subseed)], reference_universe(reference[str(subseed)], limit))
    return Unit(done, attempted, failed, steps)


# ---------------------------------------------------------------- statistics


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    at = pct / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(at))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (at - lo)


def tail_pct(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    return max(0, math.floor(100.0 - 1000.0 / n)) if n else 0


def describe(values: list[float], noun: str) -> str:
    """Sample count, quartiles and tail percentile of a metric's samples."""
    text = f"median of {len(values)} {noun}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g}..{q3:.6g}"
    pct = tail_pct(len(values))
    if pct > 50:
        text += f", p{pct} {percentile(values, pct):.6g}"
    else:
        text += ", too few samples for a tail percentile"
    return text


# ---------------------------------------------------------------- workloads


def machine_line(machine: dict) -> str:
    return "machine " + json.dumps(machine, sort_keys=True)


def measure(workload: str, seed: int, seconds: float, reference: dict, tiny: bool, deadline: float):
    """Untraced run: passes over every sub-seed until the time is used.

    The first pass always completes, so every run measures the same inputs
    and the seed only sets their order.  Each unit's times are scaled to the
    reference host by the mean of the two host probes its process ran just
    before and just after the workload.  steps_per_s is the steps of all
    sub-seeds over the sum of each sub-seed's median scaled workload time:
    the median drops bursts of host noise, and summing over the same inputs
    keeps the sampled episode lengths out of the spread.
    """
    start = time.monotonic()
    order = [(seed + i) % N_SUBSEEDS for i in range(N_SUBSEEDS)]
    good = []  # (sub-seed, unit, reference-host seconds per host second)
    runs = attempted = failed = 0
    longest = 0.0
    probes = []
    while runs < len(order) or time.monotonic() - start + longest <= seconds:
        subseed = order[runs % len(order)]
        unit = run_unit(workload, subseed, "run", reference, tiny, deadline)
        done = unit.launch
        around = done.timing.get("probe_s", [])
        print(f"run {runs} subseed {subseed}: rc {done.rc}, {unit.steps} steps in {done.work_s:.3f} s "
              f"(cpu {done.work_cpu_s:.3f} s), set-up {done.setup_s:.3f} s, "
              f"probes {' '.join(f'{p:.3f}' for p in around)} s, "
              f"peak rss {done.rss_mib:.1f} MiB, failed {unit.failed}/{unit.attempted} episodes")
        if unit.ok:
            good.append((subseed, unit, PROBE_REF_S / statistics.mean(around)))
            probes += around
        runs += 1
        attempted += unit.attempted
        failed += unit.failed
        longest = max(longest, done.wall_s)

    steps = {subseed: unit.steps for subseed, unit, _ in good}
    total_steps = sum(steps.values())

    def rate(seconds_of) -> tuple[float, float]:
        """(steps per second, seconds) over the per-sub-seed medians of seconds_of(launch, scale)."""
        times = {}
        for subseed, unit, scale in good:
            times.setdefault(subseed, []).append(seconds_of(unit.launch, scale))
        work_s = sum(statistics.median(t) for t in times.values())
        return (total_steps / work_s if work_s else 0.0), work_s

    scaled, scaled_s = rate(lambda launch, scale: launch.work_s * scale)
    wall, _ = rate(lambda launch, scale: launch.work_s)
    cpu, _ = rate(lambda launch, scale: launch.work_cpu_s)
    setups = [unit.launch.setup_s * scale for _, unit, scale in good]
    rss = [unit.launch.rss_mib for _, unit, _ in good]
    metrics = {
        "steps_per_s": scaled,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }
    per_input = min((sum(1 for s, _, _ in good if s == subseed) for subseed in order), default=0)
    if good:
        print(machine_line(good[0][1].launch.timing["machine"]))
        print(f"host probe {statistics.median(probes):.6g} s, reference {PROBE_REF_S:g} s "
              f"({describe(probes, 'probes')})")
    print(f"metric steps_per_s {scaled:.6g} 1/s (per reference-host second; {total_steps} steps of "
          f"{len(steps)} sub-seeds over {scaled_s:.3f} s, the sum of per-sub-seed medians; {runs} runs, "
          f"at least {per_input} per sub-seed)")
    print(f"  unscaled: {wall:.6g} steps per wall second, {cpu:.6g} per CPU second")
    print(f"metric setup_s {metrics['setup_s']:.6g} s (reference-host seconds; {describe(setups, 'launches')})")
    if good:
        print(f"  unscaled: {statistics.median(u.launch.setup_s for _, u, _ in good):.6g} wall seconds")
    print(f"metric peak_rss_mb {metrics['peak_rss_mb']:.6g} MiB ({describe(rss, 'runs')})")
    print(f"metric failed_frac {failed / max(attempted, 1):.6g} fraction ({failed} of {attempted} episodes)")
    return metrics, attempted, failed


def merge_traces(traces: list[dict]) -> dict:
    """Sum the span totals and counters of several traced processes."""
    merged = {"spans": {}, "missing": traces[0]["missing"], "counts": {}, "world_calls": 0,
              "world_distinct": 0, "episode_s": {"training": [], "evaluation": []}}
    for trace in traces:
        for name, stat in trace["spans"].items():
            total = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(stat):
                total[i] += value
        for key, value in trace["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["world_calls"] += trace["world_calls"]
        merged["world_distinct"] += trace["world_distinct"]
        for loop, durations in trace["episode_s"].items():
            merged["episode_s"][loop] += durations
    return merged


def layer_metrics(trace: dict, traced_work_s: float, untraced_work_s: float, traced_wall_s: float) -> dict:
    spans = trace["spans"]
    metrics = {}
    for name in sorted({span for _, _, span in TARGETS} | {"cli.main"}):
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.ms_per_call"] = 1000.0 * total / calls if calls else 0.0
    metrics["world.distinct_ratio"] = (
        trace["world_distinct"] / trace["world_calls"] if trace["world_calls"] else 0.0
    )
    metrics["geometry.ray_tests"] = trace["counts"]["ray_tests"]
    metrics["checkpoint.bytes"] = trace["counts"]["checkpoint_bytes"]
    metrics["cli.io.bytes"] = trace["counts"]["io_bytes"]
    for loop, durations in trace["episode_s"].items():
        ms = [1000.0 * d for d in durations]
        pct = tail_pct(len(ms))
        metrics[f"{loop}.episodes"] = len(ms)
        metrics[f"{loop}.episode_ms.p50"] = statistics.median(ms) if ms else 0.0
        metrics[f"{loop}.episode_ms.tail"] = percentile(ms, pct) if ms else 0.0
        metrics[f"{loop}.episode_ms.tail_pct"] = pct
    layer_s = sum(s for name, (_, _, s) in spans.items() if name != "cli.main")
    metrics["trace.overhead"] = traced_work_s / untraced_work_s
    # wall time of the traced processes that no layer span covers: interpreter
    # start, imports, argument parsing and config building
    metrics["trace.untimed_s"] = traced_wall_s - layer_s
    metrics["trace.missing_names"] = len(trace["missing"])
    return metrics


def trace_run(workload: str, seed: int, reference: dict, tiny: bool, deadline: float):
    """Every sub-seed once untraced, then once traced."""
    count = 1 if tiny else N_SUBSEEDS
    subseeds = [(seed + i) % N_SUBSEEDS for i in range(count)]
    plain, traced = [], []
    for subseed in subseeds:
        plain.append(run_unit(workload, subseed, "run", reference, tiny, deadline))
        traced.append(run_unit(workload, subseed, "trace", reference, tiny, deadline))
    units = plain + traced
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if any(u.launch.rc != 0 or u.launch.timing.get("entry") is None for u in units):
        raise SystemExit(f"a traced or untraced run failed; see {WORK / 'cli.log'}")
    trace = merge_traces([u.launch.timing["trace"] for u in traced])
    traced_work = sum(u.launch.work_s for u in traced)
    wall = sum(u.launch.wall_s for u in traced)
    metrics = layer_metrics(trace, traced_work, sum(u.launch.work_s for u in plain), wall)
    print(machine_line(plain[0].launch.timing.get("machine")))
    print(f"trace sub-seeds {subseeds}: untraced {sum(u.launch.work_s for u in plain):.3f} s, traced "
          f"{traced_work:.3f} s, {sum(u.steps for u in traced)} steps per pass, "
          f"failed {failed}/{attempted} episodes")
    print(f"{'span':32} {'calls':>8} {'self_s':>9} {'wall%':>6} {'ms/call':>9}")
    for name, (calls, total, self_s) in sorted(trace["spans"].items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{name:32} {calls:8d} {self_s:9.4f} {self_s / wall:6.1%} {1000 * total / calls:9.4f}")
    for loop in ("training", "evaluation"):
        n = metrics[f"{loop}.episodes"]
        if n:
            print(f"{loop} episode latency: p50 {metrics[f'{loop}.episode_ms.p50']:.3f} ms, "
                  f"p{metrics[f'{loop}.episode_ms.tail_pct']} {metrics[f'{loop}.episode_ms.tail']:.3f} ms "
                  f"over {n} episodes")
    print("layer wait time: none to report; every layer runs on one thread with no queue between layers")
    if trace["missing"]:
        print("names not found (reported as 0 calls): " + ", ".join(trace["missing"]))
    return metrics, attempted, failed


# ---------------------------------------------------------------- main


def declared_metrics(trace: bool) -> dict:
    """{metric name: unit} as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SIZES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test length: a few episodes per unit, checked against the reference prefix")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "htnav" / "cli.py").is_file():
        print(f"error: no htnav sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    workloads = list(SIZES) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            started = time.monotonic()
            deadline = started + HARD_LIMIT_S
            reference = load_reference(workload)
            print(f"workload {workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
            if args.trace:
                metrics, attempted, failed = trace_run(workload, args.seed, reference, args.tiny, deadline)
            else:
                metrics, attempted, failed = measure(
                    workload, args.seed, args.seconds, reference, args.tiny, deadline
                )
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, unit in units.items():
                result["metrics"][prefix + name] = {"value": float(metrics[name]), "unit": unit}
            result["attempted"] += attempted
            result["failed"] += failed
            result["correct"] = result["correct"] and failed == 0 and attempted > 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
