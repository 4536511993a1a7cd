"""Behaviour pins: small fixed runs must keep byte-identical outputs.

Criterion 10 proves that two runs of the same code agree; these pins
prove that a refactor kept behaviour.  Each (scenario, family) trains
2 seeds x 8 episodes through the CLI, and one deterministic eval runs
on ``uneven_terrain`` from the pinned cauchy checkpoint, as do a
stochastic ``uneven_terrain`` eval and two ``obstacle_avoidance`` evals
(one sampled on an eval seed where an episode ends in a collision).
``compare`` runs the same seeds and episodes on ``goal_reaching`` and
``obstacle_avoidance``, and ``surface`` writes both reward surfaces on
a small grid.  A pin may only be re-recorded by a change that
means to alter trajectories, and that change says why in CHANGES.md.
"""

import hashlib
import re

import pytest

from htnav.cli import main
from htnav.world import SCENARIOS

from conftest import LIVELY

# the LIVELY overrides make the pinned returns, gradients and weights
# non-zero in every scenario
LIVELY_ARGS = [arg for key, value in LIVELY.items() for arg in ("--set", f"{key}={value}")]
TRAIN_ARGS = ["--episodes", "8", "--seeds", "0,1", "--set", "max_steps=40", *LIVELY_ARGS]
EVAL_ARGS = ["-n", "6", "--set", "max_steps=60", *LIVELY_ARGS]

TRAIN_FILES = ("curve.csv", "diagnostics.csv", "checkpoint_seed0.json", "checkpoint_seed1.json")

PINS = {
    "goal_reaching/cauchy": {
        "curve.csv": "17cdfd24c9523f9bcf17c6e703d854305953a491ba1b26f35a364ebb5e58a9f5",
        "diagnostics.csv": "270e520f61a46b67b75fff68d1897dff8da692605e1b7e16cb31082436c67089",
        "checkpoint_seed0.json": "ca5fe76d139da2cf3ca2a30a05cf98433b63c9d2fd1cd59b07075369f17f1c73",
        "checkpoint_seed1.json": "35179cebcbbabc853fbd2dd2f13e9ca82fefaa61048b3b28cbed36151d4298ac",
    },
    "goal_reaching/gaussian": {
        "curve.csv": "3857a7f58e400f478d2be236ee5ff4525de38cb80bbd897f039b122702543022",
        "diagnostics.csv": "093786f8b96d289c1e49761af65b46650631a399282f8383ef75390e97a9ee75",
        "checkpoint_seed0.json": "d3b1934a5c36290de360099e20688d09f4a85693aecdbff6d745531a82d3a819",
        "checkpoint_seed1.json": "783ea2d23647911ab7edbeec07501261c473fffd00a8fea0db86882ec19415e6",
    },
    "obstacle_avoidance/cauchy": {
        "curve.csv": "c1f7f0c428c0dd9de3fe12849056a3f835424dfa65aae8174d708376d581ee19",
        "diagnostics.csv": "6e38bb77055863cbc59038ecf31c7950e882427d0c57b68eed813bc984c0534d",
        "checkpoint_seed0.json": "df33aafdfef6f27f733133a9f34d71909d78f6df107fb58afdea48d273268d5d",
        "checkpoint_seed1.json": "505611e191fc78f583cbcd6fdfca5f8ed23106e31534576711b220659567e9b2",
    },
    "obstacle_avoidance/gaussian": {
        "curve.csv": "96a4de04c3b00bf11514660ca0548a1aeeaf49990841205cd2d7488118d28fe4",
        "diagnostics.csv": "f826d02ca0116e2197f9adb34ee5b279a2604128491cc245fe0698c9ee79f945",
        "checkpoint_seed0.json": "0196756ce8e28a735b82e092e6536c469597caeddfb13208775a4143b3c15899",
        "checkpoint_seed1.json": "0cd357c5bcf601623fa8328b3a706a73feb68699ff51f79afb447d902b4d6f05",
    },
    "uneven_terrain/cauchy": {
        "curve.csv": "99a7e1fca1bf994104a59c62435dffae8f08861a89d07b431e319a4e7c8a4b6c",
        "diagnostics.csv": "e20eef24d0d07fdeb069644724f0c1b7737be5de57df9b7970a910a93badfb52",
        "checkpoint_seed0.json": "6fec2a1336a9f9e7d7d919039cfc48509a68ca26b6150325a1aa3010a7c3c399",
        "checkpoint_seed1.json": "8ddb108467f44db98232eb86ef26bb747685a726ac43f85461a4172ef68504aa",
    },
    "uneven_terrain/gaussian": {
        "curve.csv": "de756d9d20c4dfdd5c4279f145756570d405c360d78c40154acd528c07dbccb8",
        "diagnostics.csv": "9e5d83da35be2f8c761c7d52f6d714f0bd247f0411a6a353a23d9529cbae7464",
        "checkpoint_seed0.json": "0db28d2db4e7c5ff3d00f6cba1a316a6ae084e400317c860bd698593ea60bc4c",
        "checkpoint_seed1.json": "f0ef724ecc0029fff298d548072d9c68d17bc562835cc975f738377356ef5567",
    },
}

EVAL_PINS = {
    "eval_rows.csv": "10cbb7f49f04055169c929249606b28780a9700e9bdbca429e65a954c40ae02e",
    "eval_summary.json": "e5c09ef62459e64678eca9c0f4bc8b4f3bc23de14e51784358c017ea23219888",
}


# (scenario, mode, eval seed) -> digests, each evaluating the scenario's
# pinned cauchy seed-0 checkpoint with EVAL_ARGS' episode count and budget
EVAL_VARIANT_PINS = {
    ("uneven_terrain", "stochastic", 0): {
        "eval_rows.csv": "a54d43408627104caa8ae9b258c93eb7791bf7f444a6cfebd578f7c44156ee3a",
        "eval_summary.json": "5368a61606a44e75d158467a3f1d25b11a9e6942cec2a7d2dee44f5aa26e83b5",
    },
    ("obstacle_avoidance", "deterministic", 0): {
        "eval_rows.csv": "e7e489f221628e69c5a1c27532ab99a471d2fd731343492251a893d0954beaf0",
        "eval_summary.json": "279fff02b9b34d71cdc959b3c4ce1541c9a737676120d73692bd8937b9d56aa4",
    },
    ("obstacle_avoidance", "stochastic", 1): {
        "eval_rows.csv": "d70d293fc3c4c17ec51d7ee5cfec3eebf5c8dacd2ee5d2fc276f91defecc5a4c",
        "eval_summary.json": "cdea484b67603ebce599a4fa5ec64eb8b73c4858b50d0a311680f720dd0c1118",
    },
}


def _digests(out, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Train each (scenario, family) once per module; returns its run directory."""
    runs = {}

    def get(scenario, family):
        key = f"{scenario}/{family}"
        if key not in runs:
            out = tmp_path_factory.mktemp(f"{scenario}-{family}")
            args = ["train", "--scenario", scenario, "--family", family, *TRAIN_ARGS]
            assert main([*args, "--out", str(out)]) == 0
            runs[key] = out
        return runs[key]

    return get


@pytest.mark.parametrize("family", ("cauchy", "gaussian"))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_train_outputs_pinned(trained, scenario, family):
    out = trained(scenario, family)
    assert _digests(out, TRAIN_FILES) == PINS[f"{scenario}/{family}"]


# compare writes each family's train files, named with the family after the
# first word (curve_cauchy.csv, checkpoint_cauchy_seed0.json) and holding
# the same bytes as that family's train pin, plus comparison.csv
COMPARISON_PINS = {
    "goal_reaching": "87b63f1be245fe9800bcd8062fbdf6b9706ad76cc630446b8155b85aaa88bd73",
    "obstacle_avoidance": "dde45c840ee29b4885c3e0b8c3c5c9805941d98eea3abfb4aa2915cc53088ce5",
}


@pytest.mark.parametrize("scenario", sorted(COMPARISON_PINS))
def test_compare_outputs_pinned(tmp_path, scenario):
    out = tmp_path / "compare"
    assert main(["compare", "--scenario", scenario, *TRAIN_ARGS, "--out", str(out)]) == 0
    expected = {"comparison.csv": COMPARISON_PINS[scenario]}
    for family in ("cauchy", "gaussian"):
        for name, digest in PINS[f"{scenario}/{family}"].items():
            expected[re.sub(r"^[a-z]+", rf"\g<0>_{family}", name)] = digest
    files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert _digests(out, files) == expected


def test_eval_outputs_pinned(trained, tmp_path):
    checkpoint = trained("uneven_terrain", "cauchy") / "checkpoint_seed0.json"
    out = tmp_path / "eval"
    argv = ["eval", str(checkpoint), "--scenario", "uneven_terrain", "--family", "cauchy"]
    assert main([*argv, *EVAL_ARGS, "--mode", "deterministic", "--out", str(out)]) == 0
    assert _digests(out, ("eval_rows.csv", "eval_summary.json")) == EVAL_PINS


@pytest.mark.parametrize(
    "variant", sorted(EVAL_VARIANT_PINS), ids=lambda v: f"{v[0]}-{v[1]}-seed{v[2]}"
)
def test_eval_variant_outputs_pinned(trained, tmp_path, variant):
    scenario, mode, eval_seed = variant
    checkpoint = trained(scenario, "cauchy") / "checkpoint_seed0.json"
    out = tmp_path / "eval"
    argv = ["eval", str(checkpoint), "--scenario", scenario, "--family", "cauchy"]
    args = [*EVAL_ARGS, "--mode", mode, "--eval-seed", str(eval_seed)]
    assert main([*argv, *args, "--out", str(out)]) == 0
    assert _digests(out, ("eval_rows.csv", "eval_summary.json")) == EVAL_VARIANT_PINS[variant]



# Every pin above trains a bias-free linear policy with latched rewards.
# These each train and evaluate one setting away from that: a tanh hidden
# layer, and the literal (unlatched Gaussian-bump) distance term.  The
# bumps vanish more than 2 m from half the start distance, so the literal
# pin spawns 4-6 m from the goal, where its runs do reach them.
# setting -> (scenario, family, eval mode, more --set pairs, digests)
SETTING_PINS = {
    "hidden_layers=[3]": (
        "uneven_terrain",
        "gaussian",
        "deterministic",
        [],
        {
            "curve.csv": "02b72cebe913fc1eb5c26d31f9863f56fca14497c825ea3fa5ceb684c7a649ef",
            "diagnostics.csv": "669c453da36d17b4ba0d30329938dca5d4b325ef4bba0278c654aa5780473037",
            "checkpoint_seed0.json": "a2f77752f3afafb75c581555278a838c4967855009f64d67da540b9757e1dbef",
            "checkpoint_seed1.json": "6c059234afd5a99aa2954e3c4479938dcbf53227bf6413429dabf8e0e7b08916",
            "eval_rows.csv": "44111d9909e5529721e7e39b12d2dc65256fbe87e3c02ecc0a7822c4460951e4",
            "eval_summary.json": "84c3e1cdfe3ecd1e9dfc7d72e5cea617edda8fa13b0d74fbedff11e18218652e",
        },
    ),
    "rewards.dist_mode=literal": (
        "goal_reaching",
        "cauchy",
        "stochastic",
        ["--set", "worldgen.separation=[4.0,6.0]"],
        {
            "curve.csv": "3b8306f20c4c0b37c779ac8888edb49951d318864832e403580383a3e363a0c3",
            "diagnostics.csv": "85411687c0e3531d33643484bfe9d524704e74adbb8e3cfe173916450b1f45df",
            "checkpoint_seed0.json": "b911ac15a37f4a215927f4e421f2bd231bec8ff2e0795149273274c99c80f2b1",
            "checkpoint_seed1.json": "01066aae47964482bad85547ca4b29ca67bc2a9b094643f8cb9282983e9c737d",
            "eval_rows.csv": "e68d95c9ebe0c1775424d17d313236e660fde692a5b6a74b42c005bfddf17cd9",
            "eval_summary.json": "e07f3633fa3160d143b43bf91ee5881ed69f15a89ba11acb7e69b549861354a3",
        },
    ),
}


@pytest.mark.parametrize("setting", sorted(SETTING_PINS))
def test_setting_outputs_pinned(tmp_path, setting):
    scenario, family, mode, more, pins = SETTING_PINS[setting]
    common = ["--scenario", scenario, "--family", family, "--set", setting, *more]
    train_out = tmp_path / "train"
    assert main(["train", *common, *TRAIN_ARGS, "--out", str(train_out)]) == 0
    eval_out = tmp_path / "eval"
    checkpoint = str(train_out / "checkpoint_seed0.json")
    args = [*common, *EVAL_ARGS, "--mode", mode, "--out", str(eval_out)]
    assert main(["eval", checkpoint, *args]) == 0
    eval_files = ("eval_rows.csv", "eval_summary.json")
    assert {**_digests(train_out, TRAIN_FILES), **_digests(eval_out, eval_files)} == pins


# the reward surface, latched config turned literal: the halfway bump peaks
# at 8.5 m, a node of the 0.25 m distance axis, and the goal bump at 0
SURFACE_ARGS = ["--n-d", "81", "--n-other", "9", "--d-max", "20", "--initial-distance", "17"]
SURFACE_PINS = {
    "dist_angle": "2adf3002a26a28fd1bf3c65ec95d6eb03f9d2989fa6766f861926652e3ce8a8f",
    "dist_scan": "7b89ae5bf874c4e90f87ccbfa2b8d1afedf5a87273c9e0b32fc3a22c177fe350",
}


@pytest.mark.parametrize("axes", sorted(SURFACE_PINS))
def test_surface_outputs_pinned(tmp_path, axes):
    out = tmp_path / "surface"
    assert main(["surface", "--axes", axes, *SURFACE_ARGS, "--out", str(out)]) == 0
    assert _digests(out, ("surface.csv",)) == {"surface.csv": SURFACE_PINS[axes]}
