"""End-to-end acceptance gate: eleven checks, one printed line each.

The two training comparisons (flat-world learning curves, uneven-terrain
elevation cost) are module-scoped fixtures shared by the constraint,
curve-shape, and determinism checks, so the expensive work runs once.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from htnav.cli import write_curves_csv
from htnav.config import TrainConfig
from htnav.env import EnvConfig
from htnav.estimator import estimate_gradient, sample_horizon
from htnav.evaluation import evaluate
from htnav.net import ApproximatorSpec
from htnav.optimizer import OptimizerState, ascent_step
from htnav.policy import PolicyParameters, action_noise, forward_mean
from htnav.rewards import RewardConfig, r_heading, r_obs, r_stable, reward_surface
from htnav.trajectory import Trajectory
from htnav.training import half_rise_episode, run_comparison
from htnav.world import WorldGenConfig

from conftest import log_density, score

SIGMA = 0.25


def _report(capsys, n, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n:>2} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


# ---------------------------------------------------------------- fixtures


def _fig2_config() -> TrainConfig:
    # scenario 1 at documented defaults: 6 seeds, 120 episodes, sigma 0.25
    return TrainConfig()


@pytest.fixture(scope="module")
def fig2():
    cfg = _fig2_config()
    return run_comparison(cfg)


def _terrain_config() -> TrainConfig:
    return TrainConfig(
        scenario="uneven_terrain",
        episodes=400,
        eta=0.05,
        env=EnvConfig(v_max=2.0),
        worldgen=WorldGenConfig(min_start_misalignment=math.pi / 4),
    )


@pytest.fixture(scope="module")
def terrain():
    cfg = _terrain_config()
    return cfg, run_comparison(cfg)


# ---------------------------------------------------------------- criteria


def _fd_score(params, x, a, h=1e-6):
    grad = np.zeros_like(params.weights)
    for i in range(grad.shape[0]):
        wp = params.weights.copy()
        wm = params.weights.copy()
        wp[i] += h
        wm[i] -= h
        grad[i] = (
            log_density(params.with_weights(wp), x, a)
            - log_density(params.with_weights(wm), x, a)
        ) / (2.0 * h)
    return grad


def test_criterion_01_score_matches_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    specs = (
        ApproximatorSpec(input_dim=4, hidden_layers=()),
        ApproximatorSpec(input_dim=4, hidden_layers=(6,)),
    )
    worst = 0.0
    for family in ("cauchy", "gaussian"):
        for trial in range(100):
            spec = specs[trial % 2]
            params = PolicyParameters(
                spec=spec,
                weights=rng.normal(0.0, 0.6, spec.num_weights),
                sigma=SIGMA,
                family=family,
            )
            x = rng.normal(0.0, 1.0, 4)
            a = forward_mean(params, x) + action_noise(params, rng, 1)[0]
            analytic = score(params, x, a)
            fd = _fd_score(params, x, a)
            rel = float(np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd))))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        1,
        "score vs central differences",
        worst <= 1e-5 and elapsed < 10.0,
        f"worst relative error {worst:.2e} over 200 triples ({elapsed:.1f}s)",
    )


def test_criterion_02_estimator_unbiased_on_bandit(capsys):
    t0 = time.perf_counter()
    spec = ApproximatorSpec(input_dim=3, hidden_layers=())
    rng = np.random.default_rng(77)
    params = PolicyParameters(
        spec=spec, weights=rng.normal(0.0, 0.3, spec.num_weights), sigma=SIGMA, family="cauchy"
    )
    x = np.array([0.8, -0.5, 0.3])
    mu0 = float(forward_mean(params, x)[0])

    def integrand(a):
        delta = a - mu0
        pdf = 1.0 / (math.pi * SIGMA * (1.0 + (delta / SIGMA) ** 2))
        return math.exp(-a * a) * pdf * 2.0 * delta / (SIGMA**2 + delta**2)

    de_dmu, _ = integrate.quad(integrand, mu0 - 50 * SIGMA, mu0 + 50 * SIGMA, limit=200)
    true_grad = np.concatenate([de_dmu * x, np.zeros(3)])

    n = 200_000
    mu = forward_mean(params, x)
    noise = action_noise(params, rng, n)
    estimates = np.empty((n, spec.num_weights))
    for i in range(n):
        raw = mu + noise[i]
        r = math.exp(-float(raw[0]) ** 2)
        traj = Trajectory(
            features=x[None, :],
            raw_actions=raw[None, :],
            rewards=np.array([r]),
            z=np.zeros(2),
        )
        estimates[i] = estimate_gradient(params, traj, 0.99)
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(n)
    z = np.abs(mean - true_grad) / se
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        2,
        "bandit-oracle unbiasedness",
        bool(np.all(z <= 3.0)) and elapsed < 120.0,
        f"max |z| {float(z.max()):.2f} over {spec.num_weights} components, "
        f"n={n} ({elapsed:.1f}s)",
    )


def _draw_raws(family, n, seed):
    spec = ApproximatorSpec(input_dim=2, hidden_layers=())
    params = PolicyParameters(
        spec=spec, weights=np.zeros(spec.num_weights), sigma=SIGMA, family=family
    )
    rng = np.random.default_rng(seed)
    return forward_mean(params, np.zeros(2)) + action_noise(params, rng, n)


def test_criterion_03_distribution_statistics(capsys):
    t0 = time.perf_counter()
    n = 100_000
    cauchy = _draw_raws("cauchy", n, 11)
    gauss = _draw_raws("gaussian", n, 12)
    tol = 0.04 * SIGMA
    q_ok = True
    for dim in (0, 1):
        q25, q75 = np.quantile(cauchy[:, dim], [0.25, 0.75])
        q_ok &= abs(q25 + SIGMA) <= tol and abs(q75 - SIGMA) <= tol
    c_tail = float(np.mean(np.abs(cauchy) > 5 * SIGMA))
    g_tail = float(np.mean(np.abs(gauss) > 5 * SIGMA))
    elapsed = time.perf_counter() - t0
    ok = q_ok and 0.11 <= c_tail <= 0.14 and g_tail < 0.001 and elapsed < 10.0
    _report(
        capsys,
        3,
        "sampling quartiles and tails",
        ok,
        f"cauchy quartiles at ±sigma ± {tol:g}, 5-sigma tail {c_tail:.4f} "
        f"(analytic 0.1257), gaussian tail {g_tail:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_04_geometric_horizon_means(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    n = 100_000
    mean_09 = float(np.mean([sample_horizon(0.9, rng) for _ in range(n)]))
    mean_099 = float(np.mean([sample_horizon(0.99, rng) for _ in range(n)]))
    elapsed = time.perf_counter() - t0
    ok = abs(mean_09 - 18.49) <= 0.5 and abs(mean_099 - 198.5) <= 5.0 and elapsed < 5.0
    _report(
        capsys,
        4,
        "horizon distribution means",
        ok,
        f"gamma=0.9 mean {mean_09:.2f} (18.49±0.5), "
        f"gamma=0.99 mean {mean_099:.1f} (198.5±5) ({elapsed:.1f}s)",
    )


def test_criterion_05_optimizer_hand_example(capsys):
    state = OptimizerState.fresh(1, eta=0.01)
    theta0 = np.array([0.7])
    _, theta1 = ascent_step(state, theta0, np.ones(1))
    delta = float(theta1[0] - theta0[0])
    expected = 0.01 * 0.1 / (math.sqrt(0.001) + 1e-8)
    ok = abs(delta - expected) <= 1e-9 and abs(expected - 0.0316227) < 1e-6
    _report(
        capsys,
        5,
        "optimizer first-step value",
        ok,
        f"step {delta:.10f} vs hand value {expected:.10f}",
    )


def test_criterion_06_reward_boundary_examples(capsys):
    cfg = RewardConfig()
    cases = [
        ("r_heading(0)", r_heading(0.0, cfg), 1.0),
        ("r_heading(pi/4)", r_heading(math.pi / 4, cfg), 1.0),
        ("r_heading(pi/3)", r_heading(math.pi / 3, cfg), 0.0),
        ("r_obs(min 0.3)", r_obs(0.3, 0.5, cfg), -100.0),
        ("r_obs(min 5.0)", r_obs(5.0, 0.5, cfg), 0.0),
        ("r_obs(min 0.5)", r_obs(0.5, 0.5, cfg), -100.0),
        ("r_stable(0,0)", r_stable(0.0, 0.0, cfg), 0.0),
        ("r_stable(pitch pi/3)", r_stable(0.0, math.pi / 3, cfg), -100.0),
        ("r_stable(roll pi/4)", r_stable(math.pi / 4, 0.0, cfg), -100.0),
    ]
    failures = [name for name, got, want in cases if got != want]
    _report(
        capsys,
        6,
        "nine reward boundary examples",
        not failures,
        "all exact" if not failures else f"mismatches: {failures}",
    )


def test_criterion_07_constraints_never_violated(capsys, fig2):
    action_bad = grad_bad = steps_bad = 0
    total = 0
    for runs in fig2.values():
        for run in runs:
            total += len(run)
            action_bad += int(np.sum(run.max_abs_action > 1.0))
            grad_bad += int(np.sum(run.grad_clipped_inf > 10.0))
            steps_bad += int(np.sum(run.steps > 300))
    ok = action_bad == 0 and grad_bad == 0 and steps_bad == 0
    _report(
        capsys,
        7,
        "action/gradient/length constraints",
        ok,
        f"0 violations across {total} episodes (actions ≤ 1, applied grads ≤ 10, steps ≤ 300)"
        if ok
        else f"violations: action {action_bad}, grad {grad_bad}, steps {steps_bad}",
    )


def test_criterion_08_learning_curve_shape(capsys, fig2):
    t0 = time.perf_counter()
    c_runs = fig2["cauchy"]
    g_runs = fig2["gaussian"]
    c_final = float(np.mean([run.returns[-20:].mean() for run in c_runs]))
    g_final = float(np.mean([run.returns[-20:].mean() for run in g_runs]))
    wins = sum(
        1
        for c, g in zip(c_runs, g_runs)
        if half_rise_episode(c.returns) < half_rise_episode(g.returns)
    )
    ok = c_final > g_final and wins >= 5
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        8,
        "flat-world curve comparison",
        ok,
        f"final-20 mean return cauchy {c_final:.2f} vs gaussian {g_final:.2f}; "
        f"faster half-rise in {wins}/6 seed pairings ({elapsed:.1f}s on shared run)",
    )


def test_criterion_09_elevation_cost_direction(capsys, terrain):
    t0 = time.perf_counter()
    cfg, result = terrain
    costs = {}
    for family, runs in result.items():
        per_seed = [
            evaluate(run.params, cfg, 50, mode="deterministic", seed=run.seed).elevation_cost
            for run in runs
        ]
        costs[family] = float(np.mean(per_seed))
    ok = costs["cauchy"] <= costs["gaussian"]
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        9,
        "uneven-terrain elevation cost",
        ok,
        f"deterministic-eval mean elevation cost cauchy {costs['cauchy']:.4f} "
        f"vs gaussian {costs['gaussian']:.4f}, 50 episodes x 6 seeds ({elapsed:.1f}s)",
    )


def test_criterion_10_training_is_byte_deterministic(capsys, fig2, tmp_path):
    cfg = _fig2_config()
    again = run_comparison(cfg)
    identical = True
    for family in fig2:
        pa = tmp_path / f"a_{family}.csv"
        pb = tmp_path / f"b_{family}.csv"
        write_curves_csv(fig2[family], pa)
        write_curves_csv(again[family], pb)
        identical &= pa.read_bytes() == pb.read_bytes()
    _report(
        capsys,
        10,
        "rerun determinism",
        identical,
        "curve files byte-identical across independent reruns"
        if identical
        else "curve files differ between reruns",
    )


def test_criterion_11_reward_sparsity_census(capsys):
    _, _, values = reward_surface("dist_angle")
    frac = float(np.mean(np.abs(values) > 1.0))
    _report(
        capsys,
        11,
        "reward surface sparsity",
        frac < 0.05,
        f"{100 * frac:.2f}% of 200x200 cells have |r| > 1 (limit 5%)",
    )
