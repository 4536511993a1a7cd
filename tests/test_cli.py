import hashlib
import json
import math
from pathlib import Path

import pytest

from htnav.atomic import write_json
from htnav.cli import main
from htnav.config import TrainConfig, config_to_dict

from conftest import LIVELY, assert_manifest_lists_dir, assert_no_child_left, use_workers

BENCH_CHECKPOINT = Path(__file__).parents[1] / "perfbench" / "eval_checkpoint.json"

FAST = [
    "--episodes",
    "2",
    "--seeds",
    "0,1",
    "--set",
    "max_steps=30",
]


def run(argv):
    return main(argv)


def test_train_writes_run_directory(tmp_path):
    out = tmp_path / "run"
    code = run(["train", *FAST, "--out", str(out)])
    assert code == 0
    for name in ("curve.csv", "diagnostics.csv", "checkpoint_seed0.json", "checkpoint_seed1.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "htnav-manifest-v1"
    assert manifest["command"] == "train"
    assert manifest["seeds"] == [0, 1]
    assert "curve.csv" in manifest["files"]
    assert manifest["config"]["episodes"] == 2


def test_train_honours_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HTNAV_OUT", str(tmp_path / "root"))
    code = run(["train", *FAST])
    assert code == 0
    assert (tmp_path / "root" / "train-goal_reaching-cauchy" / "curve.csv").exists()


def test_train_zero_episodes_succeeds(tmp_path):
    out = tmp_path / "empty"
    code = run(["train", "--episodes", "0", "--seeds", "0", "--out", str(out)])
    assert code == 0
    assert (out / "curve.csv").read_text().strip() == "seed,episode,return,steps,cause"


def test_missing_config_file_names_path(tmp_path, caplog):
    code = run(["train", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in caplog.text


def _never_called(*args, **kwargs):
    raise AssertionError("the work started before --out was checked")


OUT_IS_FILE = {
    "out_is_file": ["train", "--episodes", "0", "--seeds", "0"],
    "compare_out_is_file": ["compare", "--episodes", "0", "--seeds", "0"],
    "eval_out_is_file": ["eval", str(BENCH_CHECKPOINT), "-n", "1", "--scenario", "uneven_terrain"],
}


@pytest.mark.parametrize("case", ["checkpoint_is_dir", "config_is_dir", *OUT_IS_FILE])
def test_os_errors_exit_2_naming_the_path(tmp_path, caplog, monkeypatch, case):
    # exit 1 is kept for TrainingAbort and GenerationError
    here = tmp_path / "here"
    if case == "checkpoint_is_dir":
        here.mkdir()
        argv = ["eval", str(here), "-n", "1", "--out", str(tmp_path / "out")]
    elif case == "config_is_dir":
        here.mkdir()
        argv = ["train", "--config", str(here), "--out", str(tmp_path / "out")]
    else:
        # an --out that is a file is refused before any work starts
        here.write_text("")
        for name in ("train", "run_comparison", "evaluate"):
            monkeypatch.setattr(f"htnav.cli.{name}", _never_called)
        argv = [*OUT_IS_FILE[case], "--out", str(here)]
    assert run(argv) == 2
    assert caplog.records[-1].getMessage().startswith("error: ")
    assert caplog.records[-1].getMessage().endswith(f": {here}")
    if case in OUT_IS_FILE:
        assert caplog.records[-1].getMessage() == f"error: File exists: {here}"
        assert here.read_text() == ""
    assert "Traceback" not in caplog.text


def test_config_file_then_set_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_json(cfg_path, config_to_dict(TrainConfig(episodes=7, eta=0.03)))
    out = tmp_path / "run"
    code = run(
        [
            "train",
            "--config",
            str(cfg_path),
            "--episodes",
            "1",
            "--seeds",
            "0",
            "--set",
            "eta=0.02",
            "--set",
            "max_steps=10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["episodes"] == 1  # flag beat file
    assert manifest["config"]["eta"] == 0.02  # --set beat file
    assert manifest["config"]["max_steps"] == 10


def test_bad_set_pair_is_config_error(tmp_path):
    assert run(["train", "--set", "eta", "--out", str(tmp_path / "x")]) == 2
    assert run(["train", "--set", "nope=1", "--out", str(tmp_path / "y")]) == 2
    assert run(["train", "--seeds", "a,b", "--out", str(tmp_path / "z")]) == 2
    assert run(["compare", *FAST, "--set", "plateau_patience=2", "--out", str(tmp_path / "w")]) == 2


@pytest.mark.parametrize("command", ["train", "compare"])
def test_failed_run_leaves_no_run_directory(tmp_path, caplog, command):
    # no start and goal 150 m apart fit in the 100 m arena
    out = tmp_path / "x"
    argv = [command, "--episodes", "1", "--seeds", "0", "--set", "worldgen.separation=[150,160]"]
    assert run([*argv, "--out", str(out)]) == 1
    assert "could not place start/goal" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("seeds", ["", ","])
def test_empty_seed_list_is_config_error(tmp_path, caplog, command, seeds):
    out = tmp_path / "x"
    assert run([command, "--seeds", seeds, "--episodes", "1", "--out", str(out)]) == 2
    assert "seeds must be non-empty" in caplog.text
    assert not out.exists()


def test_negative_seeds_are_config_errors(tmp_path, caplog):
    out = tmp_path / "x"
    assert run(["train", "--seeds", "-1", "--episodes", "1", "--out", str(out)]) == 2
    assert "seeds must be >= 0, got (-1,)" in caplog.text
    assert not out.exists()
    assert run(["eval", str(BENCH_CHECKPOINT), "--eval-seed", "-3", "--out", str(out)]) == 2
    assert "--eval-seed must be >= 0, got -3" in caplog.text
    assert not out.exists()
    assert run(["eval", str(BENCH_CHECKPOINT), "-n", "0", "--out", str(out)]) == 2
    assert "-n must be >= 1, got 0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--n-d", "1"), ("--n-other", "0"), ("--d-max", "-5"), ("--d-max", "nan"),
     ("--d-max", "inf"), ("--initial-distance", "-3")],
)
def test_surface_rejects_meaningless_grid(tmp_path, caplog, flag, value):
    out = tmp_path / "x"
    assert run(["surface", f"{flag}={value}", "--out", str(out)]) == 2
    assert f"error: {flag} must be" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "NaN"])
def test_bad_scan_max_range_is_config_error(tmp_path, caplog, value):
    out = tmp_path / "x"
    assert run(["train", *FAST, "--set", f"env.scan_max_range={value}", "--out", str(out)]) == 2
    assert "error: env.scan_max_range must be " in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    [
        "delta=Infinity",
        "sigma=Infinity",
        "episodes=1.5",
        "max_steps=2.5",
        "seeds=[0.7]",
        "env.n_scan_rays=2.5",
        "env.dt=Infinity",
        "worldgen.cell_size=0",
        "worldgen.separation=[40,10]",
        "worldgen.bounds=[0,0,1,1]",
        "worldgen.cell_size=250",
        "rewards.r_collision=NaN",
        "rewards.r_stable_penalty=-Infinity",
        "rewards.beta_g=Infinity",
        pytest.param("eta=1" + "0" * 400, id="eta=10**400"),
    ],
)
def test_bad_config_value_names_its_key(tmp_path, caplog, setting):
    out = tmp_path / "x"
    assert run(["train", *FAST, "--set", setting, "--out", str(out)]) == 2
    key = setting.split("=")[0]
    assert f"error: {key} must be" in caplog.text
    assert not out.exists()


def test_eval_round_trip(tmp_path):
    train_out = tmp_path / "train"
    assert run(["train", *FAST, "--out", str(train_out)]) == 0
    eval_out = tmp_path / "eval"
    code = run(
        [
            "eval",
            str(train_out / "checkpoint_seed0.json"),
            "--set",
            "max_steps=30",
            "-n",
            "2",
            "--out",
            str(eval_out),
        ]
    )
    assert code == 0
    rows = (eval_out / "eval_rows.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    summary = json.loads((eval_out / "eval_summary.json").read_text())
    assert summary["episodes"] == 2
    assert summary["mode"] == "deterministic"


def test_eval_manifest_records_how_to_rerun_it(tmp_path):
    argv = ["eval", str(BENCH_CHECKPOINT), "--scenario", "uneven_terrain", "-n", "2",
            "--mode", "stochastic", "--set", "max_steps=20"]
    outs = {seed: tmp_path / f"seed{seed}" for seed in (0, 3)}
    for seed, out in outs.items():
        assert run([*argv, "--eval-seed", str(seed), "--out", str(out)]) == 0
    manifests = {seed: assert_manifest_lists_dir(out) for seed, out in outs.items()}
    assert [manifests[seed]["eval"]["eval_seed"] for seed in outs] == [0, 3]
    rows = {seed: (out / "eval_rows.csv").read_bytes() for seed, out in outs.items()}
    assert rows[0] != rows[3]

    # the manifest alone is enough to rerun the evaluation
    manifest = manifests[3]
    run_block = manifest["eval"]
    assert run_block == {
        "checkpoint": str(BENCH_CHECKPOINT),
        "checkpoint_sha256": hashlib.sha256(BENCH_CHECKPOINT.read_bytes()).hexdigest(),
        "eval_seed": 3,
        "episodes": 2,
        "mode": "stochastic",
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(manifest["config"]))
    rerun = tmp_path / "rerun"
    code = run(["eval", run_block["checkpoint"], "--config", str(config),
                "-n", str(run_block["episodes"]), "--mode", run_block["mode"],
                "--eval-seed", str(run_block["eval_seed"]), "--out", str(rerun)])
    assert code == 0
    assert (rerun / "eval_rows.csv").read_bytes() == rows[3]


def test_eval_manifest_hashes_the_checkpoint_it_evaluated(tmp_path, monkeypatch):
    import htnav.cli

    checkpoint = tmp_path / "checkpoint.json"
    evaluated = BENCH_CHECKPOINT.read_bytes()
    checkpoint.write_bytes(evaluated)
    real = htnav.cli.evaluate

    def overwriting(*args, **kwargs):
        # another run replaces the checkpoint while this one evaluates it
        checkpoint.write_bytes(evaluated.replace(b"\n", b"\n\n"))
        return real(*args, **kwargs)

    monkeypatch.setattr(htnav.cli, "evaluate", overwriting)
    out = tmp_path / "eval"
    argv = ["eval", str(checkpoint), "--scenario", "uneven_terrain", "-n", "1"]
    assert run([*argv, "--set", "max_steps=5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["eval"]["checkpoint_sha256"] == hashlib.sha256(evaluated).hexdigest()


def test_eval_rejects_corrupt_checkpoint(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["eval", str(bad), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("weights", math.nan),
        ("sigma", math.inf),
        ("m", math.nan),
        # an integer too large for a float
        pytest.param("weights", 10**400, id="weights-1e400"),
    ],
)
def test_eval_rejects_non_finite_checkpoint(tmp_path, caplog, field, value):
    train_out = tmp_path / "train"
    assert run(["train", *FAST, "--out", str(train_out)]) == 0
    path = train_out / "checkpoint_seed0.json"
    doc = json.loads(path.read_text())
    if field == "sigma":
        doc["sigma"] = value
    elif field == "weights":
        doc["weights"][0] = value
    else:
        doc["optimizer"]["m"][0] = value
    path.write_text(json.dumps(doc))  # written as NaN / Infinity, which json.load accepts
    out = tmp_path / "out"
    code = run(["eval", str(path), "--set", "max_steps=30", "-n", "2", "--out", str(out)])
    assert code == 2
    if field == "sigma":
        assert "sigma must be a finite number, got inf" in caplog.text
    else:
        assert f"checkpoint field '{field}' must be a list of finite numbers" in caplog.text
    assert "Traceback" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "block, key, value, message",
    [
        # the env would drop the third action component without a word
        ("spec", "output_dim", 3, "unsupported output_dim 3"),
        (None, "sigma", "0.25", "sigma must be a finite number, got '0.25'"),
    ],
)
def test_eval_rejects_mistyped_benchmark_checkpoint(tmp_path, caplog, block, key, value, message):
    doc = json.loads(BENCH_CHECKPOINT.read_text())
    if key == "output_dim":
        # a 3-wide output layer, so only the stated width is wrong
        doc["weights"] += doc["weights"][:6]
    (doc if block is None else doc[block])[key] = value
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run(["eval", str(path), "--scenario", "uneven_terrain", "-n", "2", "--out", str(out)])
    assert code == 2
    assert message in caplog.text
    assert not out.exists()


def test_eval_rejects_scenario_mismatch(tmp_path):
    train_out = tmp_path / "train"
    assert run(["train", *FAST, "--out", str(train_out)]) == 0
    code = run(
        [
            "eval",
            str(train_out / "checkpoint_seed0.json"),
            "--scenario",
            "uneven_terrain",
            "-n",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2


def test_eval_rejects_family_mismatch(tmp_path):
    train_out = tmp_path / "train"
    assert run(["train", *FAST, "--out", str(train_out)]) == 0
    code = run(
        [
            "eval",
            str(train_out / "checkpoint_seed0.json"),
            "--family",
            "gaussian",
            "-n",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2


# a policy no flag default describes
POLICY = ["--family", "gaussian", "--set", "sigma=0.5", "--set", "hidden_layers=[3]"]


def _train_one(tmp_path, *policy):
    """Train one 1-episode seed with ``policy``; returns its checkpoint path."""
    out = tmp_path / "train"
    argv = ["train", "--episodes", "1", "--seeds", "0", "--set", "max_steps=20", *policy]
    assert run([*argv, "--out", str(out)]) == 0
    return str(out / "checkpoint_seed0.json")


def test_eval_manifest_records_the_checkpoint_policy(tmp_path):
    checkpoint = _train_one(tmp_path, *POLICY)
    # no policy flags, or flags that agree with the checkpoint
    for name, flags in (("bare", []), ("agreeing", POLICY[2:])):
        out = tmp_path / name
        argv = ["eval", checkpoint, "-n", "1", "--mode", "stochastic", "--set", "max_steps=20"]
        assert run([*argv, *flags, "--out", str(out)]) == 0
        config = assert_manifest_lists_dir(out)["config"]
        assert (config["family"], config["sigma"], config["hidden_layers"]) == ("gaussian", 0.5, [3])


@pytest.mark.parametrize(
    "policy, flags, key",
    [
        (POLICY, ["--set", "sigma=0.25"], "sigma"),
        (POLICY, ["--set", "hidden_layers=[]"], "hidden_layers"),
        (POLICY, ["--family", "cauchy"], "family"),
        ([], ["--set", "sigma=0.5"], "sigma"),
        ([], ["--set", "hidden_layers=[3]"], "hidden_layers"),
        ([], ["--set", "family=gaussian"], "family"),
    ],
    ids=["sigma", "hidden_layers", "family", "default-sigma", "default-hidden_layers", "default-family"],
)
def test_eval_rejects_policy_flags_that_disagree_with_checkpoint(tmp_path, caplog, policy, flags, key):
    checkpoint = _train_one(tmp_path, *policy)
    out = tmp_path / "out"
    assert run(["eval", checkpoint, "-n", "1", *flags, "--out", str(out)]) == 2
    assert f"error: checkpoint has {key} " in caplog.text
    assert not out.exists()


def test_compare_writes_aligned_curves(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--episodes", "2", "--seeds", "0", "--set", "max_steps=20", "--out", str(out)])
    assert code == 0
    rows = (out / "comparison.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    for name in (
        "curve_cauchy.csv",
        "curve_gaussian.csv",
        "diagnostics_cauchy.csv",
        "diagnostics_gaussian.csv",
        "checkpoint_cauchy_seed0.json",
        "checkpoint_gaussian_seed0.json",
    ):
        assert (out / name).exists(), name


def test_compare_reruns_byte_identical(tmp_path):
    args = ["compare", "--episodes", "2", "--seeds", "0", "--set", "max_steps=20"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    for name in ("comparison.csv", "curve_cauchy.csv", "checkpoint_gaussian_seed0.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _assert_same_run_dirs(a, b):
    """Two run directories hold the same files, byte for byte, but for the manifest's timestamp."""
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for path in a.iterdir():
        if path.name == "manifest.json":
            docs = [json.loads((d / path.name).read_text()) for d in (a, b)]
            for doc in docs:
                del doc["created_unix"]
            assert docs[0] == docs[1]
        else:
            assert path.read_bytes() == (b / path.name).read_bytes(), path.name


LIVELY_ARGS = [arg for key, value in LIVELY.items() for arg in ("--set", f"{key}={value}")]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--scenario", "obstacle_avoidance", *FAST, *LIVELY_ARGS],
        ["compare", "--scenario", "uneven_terrain", *FAST, *LIVELY_ARGS],
        ["eval", "CHECKPOINT", "--scenario", "uneven_terrain", "-n", "3", *LIVELY_ARGS],
        ["eval", "CHECKPOINT", "--scenario", "uneven_terrain", "-n", "3", "--mode", "stochastic"],
    ],
)
def test_run_directory_same_with_one_or_two_workers(tmp_path, monkeypatch, argv):
    if argv[0] == "eval":
        trained = tmp_path / "trained"
        use_workers(monkeypatch, 1)
        train = ["train", "--scenario", "uneven_terrain", *FAST, *LIVELY_ARGS, "--out", str(trained)]
        assert run(train) == 0
        argv = [argv[0], str(trained / "checkpoint_seed1.json"), *argv[2:]]
    outs = [tmp_path / "one", tmp_path / "two", tmp_path / "three"]
    for n, out in zip((1, 2, 3), outs):
        use_workers(monkeypatch, n)
        assert run([*argv, "--out", str(out)]) == 0
        assert_no_child_left()
    for out in outs[1:]:
        _assert_same_run_dirs(outs[0], out)


def test_surface_grid_dimensions(tmp_path):
    out = tmp_path / "surf"
    code = run(["surface", "--axes", "dist_angle", "--n-d", "10", "--n-other", "10", "--out", str(out)])
    assert code == 0
    lines = (out / "surface.csv").read_text().strip().split("\n")
    assert len(lines) == 11
    assert lines[0].startswith("d_goal\\alpha,")
    assert all(len(line.split(",")) == 11 for line in lines)


def test_surface_scan_axes(tmp_path):
    out = tmp_path / "surf"
    code = run(["surface", "--axes", "dist_scan", "--n-d", "4", "--n-other", "4", "--out", str(out)])
    assert code == 0
    assert (out / "surface.csv").read_text().startswith("d_goal\\min_scan,")


def test_manifest_lists_every_file(tmp_path):
    runs = {
        "train": ["train", *FAST],
        "compare": ["compare", *FAST],
        "surface": ["surface", "--n-d", "4", "--n-other", "4"],
    }
    for name, argv in runs.items():
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
    checkpoint = str(tmp_path / "train" / "checkpoint_seed0.json")
    assert run(["eval", checkpoint, "--set", "max_steps=30", "-n", "2", "--out", str(tmp_path / "eval")]) == 0
    for name in (*runs, "eval"):
        assert assert_manifest_lists_dir(tmp_path / name)["command"] == name


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--scenario", "uneven_terrain"],
        ["surface", "--family", "gaussian"],
        ["surface", "--episodes", "3"],
        ["surface", "--seeds", "0,1"],
        ["compare", "--family", "gaussian"],
        ["eval", "ckpt.json", "--episodes", "3"],
        ["eval", "ckpt.json", "--seeds", "0,1"],
    ],
)
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
