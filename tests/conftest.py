import json
import os

import numpy as np
import pytest

from htnav.net import ApproximatorSpec, backward_batch, forward_batch
from htnav.policy import PolicyParameters, dlogp_dmean, forward_mean
from htnav.terrain import Heightmap, _elevations

# A wide heading cone, long steps, a big collision radius and a low tilt
# threshold make the heading, collision and tilt terms fire within 40
# steps.  At the defaults, runs that short earn 0 reward in every
# scenario, so their gradients are 0 and the weights never move.
LIVELY = {
    "rewards.angle_threshold": 1.5,
    "rewards.tilt_threshold": 0.03,
    "env.d_collision": 2.0,
    "env.dt": 0.5,
}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_params(input_dim=4, hidden=(), sigma=0.25, family="cauchy", seed=0, scale=0.5):
    """Small random policy for unit tests; weights are N(0, scale)."""
    spec = ApproximatorSpec(input_dim=input_dim, hidden_layers=hidden)
    r = np.random.default_rng(seed)
    weights = scale * r.standard_normal(spec.num_weights)
    return PolicyParameters(spec=spec, weights=weights, sigma=sigma, family=family)


LOG_2PI = float(np.log(2.0 * np.pi))


def log_density(params, obs, action) -> float:
    """Log-density of a raw action under the policy, summed over dimensions.

    The oracle that ``score`` is checked against by finite differences.
    """
    z = (np.asarray(action, dtype=float) - forward_mean(params, obs)) / params.sigma
    if params.family == "cauchy":
        per_dim = -np.log(np.pi * params.sigma) - np.log1p(z**2)
    else:
        per_dim = -0.5 * (LOG_2PI + 2.0 * np.log(params.sigma)) - 0.5 * z**2
    return float(per_dim.sum())


def score(params, obs, action) -> np.ndarray:
    """Gradient of log pi(action | obs) with respect to the flat weights, one step.

    The single-step target that ``policy.weighted_score_sum`` and the
    estimator are checked against.
    """
    obs = np.asarray(obs, dtype=float)
    mu, acts = forward_batch(params.layers, obs[None, :])
    dmu = dlogp_dmean(params, mu[0], action)
    return backward_batch(params.layers, acts, dmu[None, :])


def elevation_at(hm: Heightmap, x: float, y: float) -> float:
    """Bilinear elevation at one point, border-clamped: the ``z`` lookup of ``pose_from_terrain``."""
    return _elevations(hm, ((x, y),))[0]


def flat_heightmap(size: float, cell_size: float = 1.0, origin=(0.0, 0.0)) -> Heightmap:
    """All-zero square grid spanning ``[0, size]`` from ``origin``."""
    n = int(round(size / cell_size)) + 1
    return Heightmap(cell_size=cell_size, elevations=np.zeros((n, n)), origin=origin)


def use_workers(monkeypatch, n):
    """Make ``map_jobs`` see ``n`` usable CPUs; with 1, every job runs in this process.

    Tests that record calls in this process pin 1: calls made in a worker
    process are not seen here.
    """
    monkeypatch.setattr("htnav.training.usable_cpus", lambda: n)


def assert_no_child_left():
    """No child process of this one is left, running or unreaped.

    ``os.waitpid(-1, WNOHANG)`` sees every child, raw forks included: it
    raises ``ChildProcessError`` only when there is none.
    """
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def world_fields(world):
    """Everything that makes a world, for field-by-field equality.

    Elevations enter as the grid shape plus their raw bytes, so one ulp or
    a -0.0 counts as a difference; flat ground has no heightmap.
    """
    hm = world.heightmap
    terrain = None
    if hm is not None:
        terrain = (hm.cell_size, hm.origin, hm.elevations.shape, hm.elevations.tobytes())
    return (world.scenario, world.bounds, world.start_pose, world.goal, world.obstacles, terrain)


def assert_manifest_lists_dir(out):
    """The run directory holds exactly the manifest and the files it lists."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    return manifest
