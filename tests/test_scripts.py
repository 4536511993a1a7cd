"""Smoke tests: the reproduction scripts run end to end at a tiny size."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FAMILIES = ("cauchy", "gaussian")
DEFAULT_SEEDS = range(6)


def _run(script, tmp_path, *args):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


def test_reproduce_curves(tmp_path):
    out, stdout = _run("reproduce_curves.py", tmp_path, "--episodes", "2", "--seeds", "0,1")
    expected = {"comparison.csv"}
    for family in FAMILIES:
        expected |= {f"curve_{family}.csv", f"diagnostics_{family}.csv"}
    assert {p.name for p in out.iterdir()} == expected
    assert len((out / "comparison.csv").read_text().splitlines()) == 1 + 2
    assert len((out / "curve_cauchy.csv").read_text().splitlines()) == 1 + 2 * 2
    assert "seeds=[0, 1]" in stdout


def test_reproduce_elevation(tmp_path):
    out, stdout = _run("reproduce_elevation.py", tmp_path, "--episodes", "2", "--eval-episodes", "2")
    expected = set()
    for family in FAMILIES:
        expected.add(f"curve_{family}.csv")
        expected |= {f"checkpoint_{family}_seed{seed}.json" for seed in DEFAULT_SEEDS}
    assert {p.name for p in out.iterdir()} == expected
    # family, success %, mean steps, mean elevation cost
    table = [line.split() for line in stdout.splitlines() if line.split()[:1] in (["cauchy"], ["gaussian"])]
    assert [row[0] for row in table] == list(FAMILIES)
    for _, success, steps, elevation in table:
        assert 0.0 <= float(success) <= 100.0
        assert 0.0 < float(steps) <= 300.0
        assert float(elevation) >= 0.0
