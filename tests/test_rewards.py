import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from htnav.cli import write_surface_csv
from htnav.config import TrainConfig
from htnav.geometry import Circle
from htnav.rewards import RewardConfig, r_dist, r_heading, r_obs, r_stable, reward_surface
from htnav.terrain import Heightmap
from htnav.world import SCENARIOS, World

from conftest import oracle_settings, scripted_rollout

CFG = RewardConfig()


@pytest.mark.parametrize(
    "alpha,expected",
    [(0.0, 1.0), (math.pi / 4, 1.0), (-math.pi / 4, 1.0), (math.pi / 3, 0.0), (-2.0, 0.0)],
)
def test_heading_indicator_boundaries(alpha, expected):
    assert r_heading(alpha, CFG) == expected


@pytest.mark.parametrize(
    "closest,expected",
    [(0.3, -100.0), (0.5, -100.0), (0.5001, 0.0), (5.0, 0.0)],
)
def test_collision_penalty_boundaries(closest, expected):
    assert r_obs(closest, 0.5, CFG) == expected


def test_collision_penalty_rejects_nan_closest_range():
    with pytest.raises(ValueError):
        r_obs(math.nan, 0.5, CFG)


@pytest.mark.parametrize(
    "roll,pitch,expected",
    [
        (0.0, 0.0, 0.0),
        (0.0, math.pi / 3, -100.0),
        (math.pi / 4, 0.0, -100.0),
        (-math.pi / 4, 0.0, -100.0),
        (0.2, 0.2, 0.0),
    ],
)
def test_tilt_penalty_boundaries(roll, pitch, expected):
    assert r_stable(roll, pitch, CFG) == expected


def test_distance_milestones_pay_once():
    # the halfway bonus latches; the goal bonus needs no latch, since the
    # episode ends where it pays (tests/test_env.py checks that)
    r, half = r_dist(12.0, 20.0, False, CFG, 1.0)
    assert (r, half) == (0.0, False)
    r, half = r_dist(10.0, 20.0, half, CFG, 1.0)
    assert (r, half) == (50.0, True)
    r, half = r_dist(9.0, 20.0, half, CFG, 1.0)
    assert (r, half) == (0.0, True)
    r, half = r_dist(1.0, 20.0, half, CFG, 1.0)
    assert (r, half) == (100.0, True)
    r, half = r_dist(0.2, 20.0, half, CFG, 1.0)
    assert (r, half) == (100.0, True)
    # the goal pays inside the radius it is given
    assert r_dist(1.5, 20.0, half, CFG, 2.0) == (100.0, True)
    assert r_dist(1.5, 20.0, half, CFG, 1.0) == (0.0, True)


def test_distance_milestones_can_fire_together():
    # a large jump past both thresholds pays 1.5 * beta_g in one step
    r, half = r_dist(0.5, 20.0, False, CFG, 1.0)
    assert (r, half) == (150.0, True)
    # a second call inside the goal radius pays the goal alone
    r, half = r_dist(0.5, 20.0, half, CFG, 1.0)
    assert (r, half) == (100.0, True)


def test_distance_milestones_do_not_unlatch_on_retreat():
    _, half = r_dist(10.0, 20.0, False, CFG, 1.0)
    _, half = r_dist(15.0, 20.0, half, CFG, 1.0)
    assert half
    r, half = r_dist(9.0, 20.0, half, CFG, 1.0)
    assert (r, half) == (0.0, True)


def test_literal_mode_matches_gaussian_bumps():
    cfg = RewardConfig(dist_mode="literal")

    def bump(d):
        sd = cfg.sigma_g
        peak_half = math.exp(-0.5 * ((d - 10.0) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        peak_goal = math.exp(-0.5 * (d / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        return 50.0 * peak_half + 100.0 * peak_goal

    for d in (0.0, 0.05, 10.0, 10.1, 17.0):
        for half in (False, True):
            got, latch = r_dist(d, 20.0, half, cfg, 1.0)
            assert got == pytest.approx(bump(d), rel=1e-12)
            assert latch is half


def test_r_dist_requires_episode_state():
    # the start distance r_dist halves comes from the rollout, which never
    # makes a non-finite one; one given from outside is refused by name
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="initial_distance"):
            reward_surface("dist_angle", n_d=3, n_other=3, initial_distance=bad)


def test_total_reward_per_scenario():
    # a tree beside the start in every scenario and a 1.5 slope on uneven
    # terrain: the collision term would fire everywhere, but each scenario
    # pays only the terms it has.  The goal is off to the left and far, so
    # the heading and distance terms pay 0, and a tilt penalty unlike the
    # collision penalty tells the two apart.
    xs = np.arange(41.0)
    hm = Heightmap(cell_size=1.0, elevations=np.tile(1.5 * xs, (41, 1)))
    cfg = RewardConfig(r_stable_penalty=-25.0)
    paid = {}
    for scenario in SCENARIOS:
        world = World(
            heightmap=hm if scenario == "uneven_terrain" else None,
            obstacles=[Circle(center=(5.6, 5.0), radius=0.1)],
            start_pose=(5.0, 5.0, 0.0),
            goal=(5.0, 25.0),
            scenario=scenario,
            bounds=(0.0, 0.0, 40.0, 40.0),
        )
        traj = scripted_rollout(world, [(1.0, 0.0)], TrainConfig(scenario=scenario, rewards=cfg))
        paid[scenario] = traj.rewards[0]
    assert paid == {"goal_reaching": 0.0, "obstacle_avoidance": -100.0, "uneven_terrain": -25.0}


@oracle_settings(50)
@given(
    st.floats(0.0, 40.0),
    st.floats(5.0, 40.0),
    st.booleans(),
)
def test_latched_reward_is_nonnegative_and_monotone_state(d, d0, half):
    r, latch = r_dist(d, d0, half, CFG, 1.0)
    assert r >= 0.0
    assert latch >= half


def test_surface_shapes_and_axes():
    d_axis, a_axis, values = reward_surface("dist_angle", n_d=5, n_other=7, d_max=40.0)
    assert d_axis.shape == (5,) and a_axis.shape == (7,) and values.shape == (5, 7)
    assert d_axis[0] == 0.0 and d_axis[-1] == 40.0
    assert a_axis[0] == -math.pi and a_axis[-1] == math.pi


def test_surface_dist_angle_values():
    d_axis, a_axis, values = reward_surface(
        "dist_angle", n_d=3, n_other=5, d_max=40.0, initial_distance=40.0
    )
    # heading band contributes exactly 1 inside |alpha| <= pi/4
    mid = np.where(np.abs(a_axis) <= math.pi / 4)[0]
    out = np.where(np.abs(a_axis) > math.pi / 4)[0]
    for i in range(3):
        band = values[i, mid] - values[i, out]
        assert np.allclose(band, 1.0)
    # goal bump dominates at d=0: beta_g * N(0; 0, sigma_g)
    expected_peak = 100.0 / (0.05 * math.sqrt(2 * math.pi))
    assert values[0, out[0]] == pytest.approx(expected_peak, rel=1e-9)


def test_surface_dist_scan_values():
    d_axis, s_axis, values = reward_surface(
        "dist_scan", n_d=4, n_other=6, d_max=40.0, d_collision=0.5, scan_max=10.0
    )
    assert s_axis[0] == 0.0 and s_axis[-1] == 10.0
    # scan = 0 column carries the collision penalty everywhere
    far_d = values[-1]
    assert far_d[0] == pytest.approx(-100.0, abs=1e-6)
    assert far_d[-1] == pytest.approx(0.0, abs=1e-6)


def test_surface_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reward_surface("dist_speed")
    with pytest.raises(ValueError):
        reward_surface("dist_angle", n_d=1)
    # refused before np.linspace, which would warn on an infinite end
    for name in ("d_max", "initial_distance"):
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                reward_surface("dist_angle", n_d=3, n_other=3, **{name: bad})


def test_surface_csv_layout(tmp_path):
    d_axis, a_axis, values = reward_surface("dist_angle", n_d=3, n_other=4)
    path = tmp_path / "surface.csv"
    write_surface_csv(path, d_axis, a_axis, values, "alpha")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "d_goal\\alpha"
    assert [float(v) for v in header[1:]] == [float(v) for v in a_axis]
    first = lines[1].split(",")
    assert float(first[0]) == float(d_axis[0])
    assert [float(v) for v in first[1:]] == [float(v) for v in values[0]]


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(sigma_g=0.0)
    with pytest.raises(ValueError):
        RewardConfig(sigma_g=0.2)
    with pytest.raises(ValueError):
        RewardConfig(dist_mode="sticky")
    with pytest.raises(ValueError):
        RewardConfig(angle_threshold=2.0)
    with pytest.raises(ValueError):
        RewardConfig(beta_g=0.0)
