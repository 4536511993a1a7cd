#!/usr/bin/env python3
"""Time one ``rollout`` step, in process, on each scenario, and one terrain pose.

    python3 scripts/time_steps.py

Each scenario runs the same episodes every round: ``WORLDS`` worlds
generated from ``SEED``, a linear policy with fixed random weights, and
per-world Cauchy noise drawn once, each episode run to its end or to
``max_steps``.  A round's time over its steps is one figure; the fastest of
``ROUNDS`` rounds is printed, in microseconds per step.  World generation
and noise draws stay outside the timed rounds, and nothing is written.

The last row times ``pose_from_terrain`` alone, in microseconds per call:
``POINTS`` fixed points over the bounds of one ``uneven_terrain`` world
and a little beyond, its terrain computed whole before the rounds.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from htnav.config import TrainConfig
from htnav.policy import action_noise, init_policy
from htnav.terrain import pose_from_terrain
from htnav.training import policy_spec, rollout
from htnav.world import SCENARIOS, generate_world

WORLDS = 8  # episodes per round and scenario
ROUNDS = 5  # timed rounds; the fastest is printed
SEED = 0  # seed of the worlds, weights, noise and points
POINTS = 20_000  # pose_from_terrain calls per round


def episodes(scenario: str) -> tuple[TrainConfig, list]:
    """The config and the ``(world, params, noise)`` of each timed episode."""
    cfg = TrainConfig(scenario=scenario)
    rng = np.random.default_rng(np.random.SeedSequence((SEED, len(scenario))))
    params = init_policy(policy_spec(cfg), cfg.sigma, "cauchy", rng)
    params = params.with_weights(rng.normal(0.0, 0.5, params.weights.shape))
    jobs = []
    for i in range(WORLDS):
        world = generate_world(scenario, np.random.SeedSequence((SEED, i)), cfg.worldgen)
        jobs.append((world, params, action_noise(params, rng, cfg.max_steps)))
    return cfg, jobs


def time_scenario(scenario: str) -> tuple[int, float]:
    """(steps per round, fastest round's microseconds per step)."""
    cfg, jobs = episodes(scenario)
    best = float("inf")
    steps = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        steps = sum(len(rollout(world, params, cfg, cfg.max_steps, noise)) for world, params, noise in jobs)
        best = min(best, (time.perf_counter() - start) / steps * 1e6)
    return steps, best


def time_pose() -> tuple[int, float]:
    """(calls per round, fastest round's microseconds per ``pose_from_terrain`` call)."""
    world = generate_world("uneven_terrain", SEED)
    hm = world.heightmap
    hm.elevations  # every tile computed, so no round computes terrain
    x0, y0, x1, y1 = world.bounds
    pad = 0.05 * (x1 - x0)
    rng = np.random.default_rng(SEED)
    points = rng.uniform((x0 - pad, y0 - pad, -np.pi), (x1 + pad, y1 + pad, np.pi), (POINTS, 3)).tolist()
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for x, y, psi in points:
            pose_from_terrain(hm, x, y, psi)
        best = min(best, (time.perf_counter() - start) / POINTS * 1e6)
    return POINTS, best


def main() -> int:
    print(f"{'scenario':<20} {'steps/round':>11} {'us/step':>8}")
    for scenario in SCENARIOS:
        steps, us = time_scenario(scenario)
        print(f"{scenario:<20} {steps:>11} {us:>8.2f}")
    calls, us = time_pose()
    print(f"{'pose_from_terrain':<20} {calls:>11} {us:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
