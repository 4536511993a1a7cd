#!/usr/bin/env python3
"""Time one ``rollout`` step, in process, on each scenario.

    python3 scripts/time_steps.py

Each scenario runs the same episodes every round: ``WORLDS`` worlds
generated from ``SEED``, a linear policy with fixed random weights, and
per-world Cauchy noise drawn once, each episode run to its end or to
``max_steps``.  A round's time over its steps is one figure; the fastest of
``ROUNDS`` rounds is printed, in microseconds per step.  World generation
and noise draws stay outside the timed rounds, and nothing is written.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from htnav.config import TrainConfig
from htnav.policy import action_noise, init_policy
from htnav.training import policy_spec, rollout
from htnav.world import SCENARIOS, generate_world

WORLDS = 8  # episodes per round and scenario
ROUNDS = 5  # timed rounds; the fastest is printed
SEED = 0  # seed of the worlds, weights and noise


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


def main() -> int:
    print(f"{'scenario':<20} {'steps/round':>11} {'us/step':>8}")
    for scenario in SCENARIOS:
        steps, us = time_scenario(scenario)
        print(f"{scenario:<20} {steps:>11} {us:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
