"""Procedural worlds for the three navigation scenarios.

A world is fully determined by (scenario, seed, generation knobs):
obstacle primitives, start pose, goal position and, for uneven terrain
only, a heightmap.  Scenarios 1 and 2 are flat ground with no heightmap;
scenario 1 places no obstacles and scenario 2 adds trees and walls.
Scenario 3 builds rolling terrain from seeded Gaussian hills rescaled so
the total elevation gain stays within the configured bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Circle, Obstacle, Wall, point_obstacle_clearance, wrap_angle
from .terrain import Heightmap, terrain_slope
from .typecheck import check_field_types

SCENARIOS = ("goal_reaching", "obstacle_avoidance", "uneven_terrain")

# Scenario 2 draws each tree radius, wall length and wall thickness from
# these ranges.  Scenario 3 sums N_HILLS Gaussian hills, their widths and
# heights drawn from these ranges, before rescaling to ``elevation_gain``,
# and spawns start and goal only where the slope is at most MAX_SPAWN_SLOPE.
TREE_RADIUS = (0.3, 1.2)
WALL_LENGTH = (3.0, 10.0)
WALL_THICKNESS = (0.2, 0.6)
N_HILLS = 24
HILL_SIGMA = (1.2, 7.0)
HILL_AMPLITUDE = (0.5, 3.5)
MAX_SPAWN_SLOPE = 0.2


class GenerationError(RuntimeError):
    """Raised when the placement constraints cannot be satisfied."""


@dataclass
class WorldGenConfig:
    """Knobs for procedural world construction; all defaults are declared, not inferred."""

    bounds: tuple[float, float, float, float] = (0.0, 0.0, 100.0, 100.0)
    separation: tuple[float, float] = (10.0, 40.0)
    obstacle_clearance: float = 2.0
    margin: float = 2.0
    # spawn heading at least this far off the goal bearing; the heading
    # reward cone must be discovered, not handed out at reset
    min_start_misalignment: float = math.pi / 2
    retries: int = 200
    # obstacle field (scenario 2)
    n_trees: tuple[int, int] = (6, 12)
    n_walls: tuple[int, int] = (2, 5)
    # terrain
    cell_size: float = 0.5
    elevation_gain: tuple[float, float] = (2.5, 4.0)

    def __post_init__(self):
        check_field_types(self)
        finite = math.isfinite
        rules = [
            (("cell_size", "retries"), lambda v: 0 < v and finite(v), "positive and finite"),
            (
                ("margin", "obstacle_clearance", "min_start_misalignment"),
                lambda v: 0 <= v and finite(v),
                ">= 0 and finite",
            ),
            (("n_trees", "n_walls"), lambda r: 0 <= r[0] <= r[1], "a range with 0 <= low <= high"),
            (
                ("separation", "elevation_gain"),
                lambda r: 0 < r[0] <= r[1] and finite(r[1]),
                "a finite range with 0 < low <= high",
            ),
            (
                ("bounds",),
                lambda b: all(map(finite, b)) and min(b[2] - b[0], b[3] - b[1]) > 2 * self.margin,
                "finite and span more than 2 * margin on both axes",
            ),
        ]
        for names, ok, rule in rules:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class World:
    heightmap: Heightmap | None  # on uneven_terrain only; None on flat ground
    obstacles: list[Obstacle]
    start_pose: tuple[float, float, float]
    goal: tuple[float, float]
    scenario: str
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 100.0, 100.0)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        uneven = self.scenario == "uneven_terrain"
        if (self.heightmap is not None) != uneven:
            raise ValueError(f"heightmap must be {'given' if uneven else 'None'} on {self.scenario}")


def _hill_field(xs, ys, centers, sigmas, amps) -> np.ndarray:
    """Sum of Gaussian hills ``a * exp(-(dx**2 + dy**2) / (2 s**2))`` on the ``ys x xs`` grid.

    Each hill's exponent is the broadcast sum of its two 1-D halves,
    built in one reused buffer: ``(-dx**2) + (-dy**2)`` equals
    ``-(dx**2 + dy**2)`` bit for bit, since negation is exact.
    """
    z = np.zeros((ys.shape[0], xs.shape[0]))
    buf = np.empty_like(z)
    for (cx, cy), s, a in zip(centers, sigmas, amps):
        np.add(-((xs - cx) ** 2), -((ys - cy) ** 2)[:, None], out=buf)
        np.divide(buf, 2.0 * s * s, out=buf)
        np.exp(buf, out=buf)
        np.multiply(buf, a, out=buf)
        z += buf
    return z


def _make_heightmap(scenario: str, cfg: WorldGenConfig, rng: np.random.Generator) -> Heightmap | None:
    if scenario != "uneven_terrain":
        # flat ground has no heightmap, but the stream still advances by the
        # 24 doubles a 6-hill ripple field once drew here, so the start, goal
        # and obstacles that follow keep the bits every flat pin was made on
        rng.random(24)
        return None
    x0, y0, x1, y1 = cfg.bounds
    nx = int(round((x1 - x0) / cfg.cell_size)) + 1
    ny = int(round((y1 - y0) / cfg.cell_size)) + 1
    xs = x0 + np.arange(nx) * cfg.cell_size
    ys = y0 + np.arange(ny) * cfg.cell_size
    centers = np.column_stack([rng.uniform(x0, x1, N_HILLS), rng.uniform(y0, y1, N_HILLS)])
    sigmas = rng.uniform(*HILL_SIGMA, N_HILLS)
    amps = rng.uniform(*HILL_AMPLITUDE, N_HILLS)
    z = _hill_field(xs, ys, centers, sigmas, amps)
    target = rng.uniform(*cfg.elevation_gain)
    gain = float(z.max() - z.min())
    if gain > 0.0:
        z = z * (target / gain)
    return Heightmap(cell_size=cfg.cell_size, elevations=z, origin=(x0, y0))


def _make_obstacles(cfg: WorldGenConfig, rng: np.random.Generator) -> list[Obstacle]:
    x0, y0, x1, y1 = cfg.bounds
    m = cfg.margin
    obstacles: list[Obstacle] = []
    for _ in range(int(rng.integers(cfg.n_trees[0], cfg.n_trees[1] + 1))):
        c = (float(rng.uniform(x0 + m, x1 - m)), float(rng.uniform(y0 + m, y1 - m)))
        obstacles.append(Circle(center=c, radius=float(rng.uniform(*TREE_RADIUS))))
    for _ in range(int(rng.integers(cfg.n_walls[0], cfg.n_walls[1] + 1))):
        ax = float(rng.uniform(x0 + m, x1 - m))
        ay = float(rng.uniform(y0 + m, y1 - m))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        length = float(rng.uniform(*WALL_LENGTH))
        bx = min(max(ax + length * math.cos(angle), x0 + m), x1 - m)
        by = min(max(ay + length * math.sin(angle), y0 + m), y1 - m)
        if math.dist((ax, ay), (bx, by)) < 0.5:
            continue
        obstacles.append(
            Wall(p1=(ax, ay), p2=(bx, by), thickness=float(rng.uniform(*WALL_THICKNESS)))
        )
    return obstacles


def _clearance_ok(p, obstacles, clearance: float) -> bool:
    return all(point_obstacle_clearance(p, ob) >= clearance for ob in obstacles)


def _place_start_goal(
    scenario: str,
    hm: Heightmap | None,
    obstacles: list[Obstacle],
    cfg: WorldGenConfig,
    rng: np.random.Generator,
) -> tuple[tuple[float, float, float], tuple[float, float]]:
    x0, y0, x1, y1 = cfg.bounds
    m = cfg.margin
    for _ in range(cfg.retries):
        sx = float(rng.uniform(x0 + m, x1 - m))
        sy = float(rng.uniform(y0 + m, y1 - m))
        psi = float(rng.uniform(-math.pi, math.pi))
        r = float(rng.uniform(*cfg.separation))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        gx = sx + r * math.cos(ang)
        gy = sy + r * math.sin(ang)
        if not (x0 + m <= gx <= x1 - m and y0 + m <= gy <= y1 - m):
            continue
        if not _clearance_ok((sx, sy), obstacles, cfg.obstacle_clearance):
            continue
        if not _clearance_ok((gx, gy), obstacles, cfg.obstacle_clearance):
            continue
        alpha = wrap_angle(math.atan2(gy - sy, gx - sx) - psi)
        if abs(alpha) < cfg.min_start_misalignment:
            continue
        slopes = (math.hypot(*terrain_slope(hm, x, y)[1:]) for x, y in ((sx, sy), (gx, gy)))
        if hm is not None and not all(slope <= MAX_SPAWN_SLOPE for slope in slopes):
            continue
        return (sx, sy, psi), (gx, gy)
    raise GenerationError(
        f"could not place start/goal after {cfg.retries} attempts ({scenario})"
    )


def generate_world(scenario: str, seed, cfg: WorldGenConfig | None = None) -> World:
    """Deterministic world construction from (scenario, seed, knobs)."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    cfg = cfg or WorldGenConfig()
    rng = np.random.default_rng(seed)
    hm = _make_heightmap(scenario, cfg, rng)
    obstacles = _make_obstacles(cfg, rng) if scenario == "obstacle_avoidance" else []
    start, goal = _place_start_goal(scenario, hm, obstacles, cfg, rng)
    return World(
        heightmap=hm,
        obstacles=obstacles,
        start_pose=start,
        goal=goal,
        scenario=scenario,
        bounds=cfg.bounds,
    )

