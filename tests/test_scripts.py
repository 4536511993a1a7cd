"""Smoke tests: the reproduction scripts run end to end at a tiny size."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_manifest_lists_dir

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FAMILIES = ("cauchy", "gaussian")


def _compare_files(seeds):
    """What ``htnav compare`` writes for ``seeds``, manifest included."""
    names = {"comparison.csv", "manifest.json"}
    for family in FAMILIES:
        names |= {f"curve_{family}.csv", f"diagnostics_{family}.csv"}
        names |= {f"checkpoint_{family}_seed{seed}.json" for seed in seeds}
    return names


def _run(script, tmp_path, *args, returncode=0):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return out, proc


def test_reproduce_curves(tmp_path):
    out, proc = _run("reproduce_curves.py", tmp_path, "--episodes", "2", "--seeds", "0,1")
    assert {p.name for p in out.iterdir()} == _compare_files([0, 1])
    assert assert_manifest_lists_dir(out)["command"] == "compare"
    assert len((out / "comparison.csv").read_text().splitlines()) == 1 + 2
    assert len((out / "curve_cauchy.csv").read_text().splitlines()) == 1 + 2 * 2
    assert "seeds=[0, 1]" in proc.stdout


def test_reproduce_curves_with_no_episodes(tmp_path):
    out, proc = _run("reproduce_curves.py", tmp_path, "--episodes", "0", "--seeds", "0")
    assert {p.name for p in out.iterdir()} == _compare_files([0])
    for family in FAMILIES:
        line = f"{family}: final-0 mean return      n/a (per-seed half-rise episodes: never)"
        assert line in proc.stdout


def test_reproduce_elevation(tmp_path):
    args = ["--episodes", "2", "--eval-episodes", "2", "--seeds", "0,2"]
    out, proc = _run("reproduce_elevation.py", tmp_path, *args)
    assert {p.name for p in out.iterdir()} == _compare_files([0, 2]) | {"eval_seeds.csv"}
    manifest = assert_manifest_lists_dir(out)
    assert "eval_seeds.csv" in manifest["files"]
    # the script's own settings, which no CLI default gives, are on record
    assert manifest["config"]["eta"] == 0.05
    assert manifest["config"]["env"]["v_max"] == 2.0
    assert manifest["seeds"] == [0, 2]
    with open(out / "eval_seeds.csv", newline="") as fh:
        seed_rows = list(csv.reader(fh))
    assert seed_rows[0] == ["family", "seed", "success_rate", "avg_traj_length_all", "elevation_cost_all"]
    assert [row[:2] for row in seed_rows[1:]] == [[f, s] for f in FAMILIES for s in ("0", "2")]
    # family, success %, mean steps, mean elevation cost
    rows = [line.split() for line in proc.stdout.splitlines()]
    table = [row for row in rows if row[:1] in (["cauchy"], ["gaussian"])]
    assert [row[0] for row in table] == list(FAMILIES)
    for family, success, steps, elevation in table:
        assert 0.0 <= float(success) <= 100.0
        assert 0.0 < float(steps) <= 300.0
        assert float(elevation) >= 0.0
        # the printed table is the per-family mean of the CSV's rows
        costs = [float(row[4]) for row in seed_rows[1:] if row[0] == family]
        assert elevation == f"{sum(costs) / len(costs):.4f}"


def test_reproduce_elevation_rejects_no_eval_episodes_before_training(tmp_path):
    out, proc = _run(
        "reproduce_elevation.py", tmp_path, "--episodes", "1", "--eval-episodes", "0", returncode=2
    )
    assert "--eval-episodes must be >= 1, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("reproduce_curves.py", ["--episodes", "-1", "--seeds", "0"], "episodes must be >= 0, got -1"),
        ("reproduce_curves.py", ["--seeds", "x"], "seeds must be a list of integers"),
        ("reproduce_elevation.py", ["--episodes", "-2"], "episodes must be >= 0, got -2"),
        ("reproduce_elevation.py", ["--seeds", "x"], "seeds must be a list of integers"),
        ("reproduce_curves.py", ["--seeds=-1"], "seeds must be >= 0, got (-1,)"),
    ],
)
def test_scripts_report_config_errors(tmp_path, script, args, message):
    out, proc = _run(script, tmp_path, *args, returncode=2)
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "script, args",
    [
        ("reproduce_curves.py", ["--episodes", "2", "--seeds", "0"]),
        ("reproduce_elevation.py", ["--episodes", "1", "--eval-episodes", "1", "--seeds", "0"]),
    ],
)
def test_scripts_refuse_an_out_that_is_a_file(tmp_path, script, args):
    (tmp_path / "out").write_text("")
    out, proc = _run(script, tmp_path, *args, returncode=2)
    assert f"error: File exists: {out}" in proc.stderr
    assert "Traceback" not in proc.stderr
    # refused before the run: no summary printed, the file left as it was
    assert proc.stdout == ""
    assert out.read_text() == ""


def test_plot_smoothing_pads_nothing_in():
    # imported for its numpy-only ``smooth``; plotting needs matplotlib
    spec = importlib.util.spec_from_file_location("plot_curves", SCRIPTS / "plot_curves.py")
    plot_curves = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plot_curves)
    smooth = plot_curves.smooth
    # zero padding plotted a constant 30 as 15 at the first episode, 18 at the last
    np.testing.assert_array_equal(smooth(np.full(40, 30.0), 10), 30.0)
    y = np.random.default_rng(0).normal(size=17)
    np.testing.assert_array_equal(smooth(y, 1), y)
    # a series shorter than the window is averaged over what it holds
    np.testing.assert_array_equal(smooth(np.full(3, 30.0), 10), 30.0)
    np.testing.assert_allclose(smooth(np.array([1.0, 2.0, 6.0]), 10), [1.5, 3.0, 4.0])
    assert smooth(np.array([]), 10).shape == (0,)
