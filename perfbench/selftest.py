#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root in about half a minute:

    python3 perfbench/selftest.py

It runs every workload at self-test length, untraced and traced, and checks
that the result line carries exactly the metrics BENCHMARK.json declares,
each with its unit, and that the run was correct.  It then alters, drops
and adds output rows of a real run and checks how many episodes the
correctness gate counts as failed, and checks that the benchmark refuses
to run without the htnav sources.
"""

import json
import shutil
import subprocess
import sys
import time

import run

FAILURES = []


def check(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def bench(*args, cwd=run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout.splitlines()


def check_workload(workload: str, trace: int) -> None:
    rc, lines = bench("--workload", workload, "--seed", "17", "--seconds", "1",
                      "--trace", str(trace), "--tiny")
    label = f"{workload} trace {trace}"
    check(rc == 0, f"{label}: exit code 0")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last line is a JSON result")
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, {result['failed']} of {result['attempted']} episodes failed")
    declared = run.declared_metrics(bool(trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == declared, f"{label}: every declared metric is reported with its unit")
    if not trace:
        for name, unit in [*declared.items(), ("failed_frac", "fraction")]:
            check(any(line.startswith(f"metric {name} ") and f" {unit} (" in line for line in lines),
                  f"{label}: prints {name} with unit {unit} and a sample count")


def edit_line(path, index: int, new: str | None) -> None:
    lines = path.read_text().splitlines()
    if new is None:
        del lines[index]
    else:
        lines[index] = new
    path.write_text("\n".join(lines) + "\n")


def check_gate() -> None:
    reference = run.load_reference("train_flat")
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    size = run.SIZES["train_flat"][1]
    unit = run.run_unit("train_flat", 0, "run", reference, True, time.monotonic() + 120)
    out = run.WORK / "out"
    ref = reference["0"]
    episodes = 4 * size
    check((unit.attempted, unit.failed) == (episodes, 0), f"gate: clean run has 0 of {episodes} failed")

    curve = out / "curve_cauchy.csv"
    original = curve.read_text()
    cells = original.splitlines()[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-12)
    edit_line(curve, 1, ",".join(cells))
    check(run.check_outputs(out, ref, size) == (episodes, 1), "gate: one altered curve row fails one episode")
    edit_line(curve, 1, None)
    check(run.check_outputs(out, ref, size) == (episodes, 1), "gate: one missing curve row fails one episode")
    curve.write_text(original + "0,99,0.0,1,timeout\n")
    check(run.check_outputs(out, ref, size) == (episodes, episodes), "gate: an unexpected row fails every episode")
    curve.write_text(original)

    comparison = out / "comparison.csv"
    edit_line(comparison, 1, "0,1.5,0.5,0.0,0.0")
    check(run.check_outputs(out, ref, size) == (episodes, 4),
          "gate: an altered comparison row fails that episode of all four runs")
    comparison.unlink()
    check(run.check_outputs(out, ref, size)[1] == episodes,
          "gate: a missing comparison file fails every episode")
    shutil.rmtree(run.WORK, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(run.WORK, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, lines = bench("--workload", "train_flat", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    check(rc != 0 and not any(line.startswith("{") for line in lines),
          "without the htnav sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(run.WORK, ignore_errors=True)


def main() -> int:
    for workload in run.SIZES:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_gate()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
