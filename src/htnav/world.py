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
from .typecheck import check_fields

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
# cells by which a span may fall short of a whole number of them and still
# count as whole (see _grid_nodes)
GRID_TOLERANCE = 1e-9
# _certified_extremes takes candidates within CERTIFY_TOL, relative, of the
# approximation's extremes, at most MAX_CANDIDATES, on fields >= MIN_CERTIFIED
CERTIFY_TOL = 1e-9
MAX_CANDIDATES = 8
MIN_CERTIFIED = 1e-280


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
        rules = [
            (("cell_size", "retries"), lambda v: v > 0, "positive"),
            (("margin", "obstacle_clearance", "min_start_misalignment"), lambda v: v >= 0, ">= 0"),
            (("n_trees", "n_walls"), lambda r: 0 <= r[0] <= r[1], "a range with 0 <= low <= high"),
            (("separation", "elevation_gain"), lambda r: 0 < r[0] <= r[1], "a range with 0 < low <= high"),
            (
                ("bounds",),
                lambda b: min(b[2] - b[0], b[3] - b[1]) > 2 * self.margin,
                "wider and taller than 2 * margin",
            ),
            (("cell_size",), lambda c: min(_grid_nodes(self)) >= 2, "small enough for 2 nodes on each axis"),
        ]
        check_fields(self, rules)


def _grid_nodes(cfg: WorldGenConfig) -> tuple[float, float]:
    """The terrain grid's node counts along x and y, as whole floats.

    The last node lies at or inside the far bound: a span holds as many
    whole cells as fit, where a quotient within GRID_TOLERANCE cells under
    a whole number counts as that number, so a cell size that divides the
    span keeps its last node on the bound.  Flooring as a float
    (``np.floor``) lets a count too large for an int read as inf here
    rather than raise.
    """
    x0, y0, x1, y1 = cfg.bounds
    return tuple(float(np.floor(span / cfg.cell_size + GRID_TOLERANCE)) + 1 for span in (x1 - x0, y1 - y0))


@dataclass
class World:
    heightmap: Heightmap | None  # on uneven_terrain only; None on flat ground
    obstacles: list[Obstacle]
    start_pose: tuple[float, float, float]
    goal: tuple[float, float]
    scenario: str
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 100.0, 100.0)

    def __post_init__(self):
        uneven = self.scenario == "uneven_terrain"
        rules = [
            (("scenario",), lambda v: v in SCENARIOS, f"one of {SCENARIOS}"),
            (
                ("heightmap",),
                lambda hm: (hm is not None) == uneven,
                f"{'given' if uneven else 'None'} on {self.scenario}",
            ),
        ]
        check_fields(self, rules)


def _hill_field(xs, ys, centers, sigmas, amps) -> np.ndarray:
    """Sum of Gaussian hills ``a * exp(-(dx**2 + dy**2) / (2 s**2))`` on the ``ys x xs`` grid.

    All hills' terms are computed at once, on a ``(hill, y, x)`` array whose
    exponents are broadcast sums of 1-D halves: ``(-dx**2) + (-dy**2)``
    equals ``-(dx**2 + dy**2)`` bit for bit, since negation is exact.  They
    are added hill by hill onto +0.0, as a reduction over the hill axis may
    sum pairwise.  A node's height depends on its own x and y alone, so a
    sub-grid gets the bits the whole grid gets there.
    """
    cx, cy = centers[:, :1], centers[:, 1:]
    terms = np.add(-((xs - cx) ** 2)[:, None, :], -((ys - cy) ** 2)[:, :, None])
    terms /= (2.0 * sigmas * sigmas)[:, None, None]
    np.exp(terms, out=terms)
    terms *= amps[:, None, None]
    z = np.zeros(terms.shape[1:])
    for term in terms:
        z += term
    return z


def _separable_field(xs, ys, centers, sigmas, amps) -> np.ndarray:
    """``(E_y * amps).T @ E_x``, the hill field factored into each hill's x
    and y halves: close to ``_hill_field``, not bit for bit, and far cheaper."""
    two_s2 = (2.0 * sigmas * sigmas)[:, None]
    e_x = np.exp(-((xs - centers[:, :1]) ** 2) / two_s2)
    e_y = np.exp(-((ys - centers[:, 1:]) ** 2) / two_s2)
    return (e_y * amps[:, None]).T @ e_x


def _certified_extremes(xs, ys, centers, sigmas, amps) -> tuple[float, float] | None:
    """The hill field's exact ``(min, max)`` over the ``ys x xs`` grid, or
    None when ``_separable_field`` cannot vouch for where they lie.

    With every amplitude positive every term is positive, so each node's
    relative error is bounded: about ``|arg| * 4u`` in the exponent (u =
    2**-53, ``|arg|`` below 745 until exp underflows) plus 24u over the
    sums, some 1e-12 against CERTIFY_TOL.  The field's extremes thus lie
    among the nodes within CERTIFY_TOL of the approximation's, and only
    those run through ``_hill_field``.  A field below MIN_CERTIFIED, where
    subnormal terms lose relative precision, a non-positive amplitude or
    more than MAX_CANDIDATES candidates is left to the caller.
    """
    if not np.all(amps > 0.0):
        return None
    approx = _separable_field(xs, ys, centers, sigmas, amps)
    low, high = approx.min(), approx.max()
    if not low >= MIN_CERTIFIED:  # NaN too
        return None
    tops = np.flatnonzero(approx >= high * (1.0 - CERTIFY_TOL))
    bottoms = np.flatnonzero(approx <= low * (1.0 + CERTIFY_TOL))
    if tops.size + bottoms.size > MAX_CANDIDATES:
        return None
    rows, cols = np.divmod(np.concatenate([tops, bottoms]), xs.size)
    # the candidates' heights lie on the diagonal of the grid of their rows and columns
    exact = np.diagonal(_hill_field(xs[cols], ys[rows], centers, sigmas, amps))
    return exact[tops.size :].min(), exact[: tops.size].max()


def _make_heightmap(scenario: str, cfg: WorldGenConfig, rng: np.random.Generator) -> Heightmap | None:
    if scenario != "uneven_terrain":
        # flat ground has no heightmap, but the stream still advances by the
        # 24 doubles a 6-hill ripple field once drew here, so the start, goal
        # and obstacles that follow keep the bits every flat pin was made on
        rng.random(24)
        return None
    x0, y0, x1, y1 = cfg.bounds
    nx, ny = map(int, _grid_nodes(cfg))
    xs = x0 + np.arange(nx) * cfg.cell_size
    ys = y0 + np.arange(ny) * cfg.cell_size
    centers = np.column_stack([rng.uniform(x0, x1, N_HILLS), rng.uniform(y0, y1, N_HILLS)])
    sigmas = rng.uniform(*HILL_SIGMA, N_HILLS)
    amps = rng.uniform(*HILL_AMPLITUDE, N_HILLS)
    target = rng.uniform(*cfg.elevation_gain)

    def hills(rows, cols):
        return _hill_field(xs[cols], ys[rows], centers, sigmas, amps)

    extremes = _certified_extremes(xs, ys, centers, sigmas, amps)
    if extremes is None:
        # from every node, tile by tile so the (hill, y, x) terms stay small
        raw = Heightmap.lazy(cfg.cell_size, (ny, nx), (x0, y0), hills).elevations
        extremes = raw.min(), raw.max()
    low, high = extremes
    gain = float(high - low)
    scale = target / gain if gain > 0.0 else 1.0  # times 1.0 keeps every bit
    return Heightmap.lazy(cfg.cell_size, (ny, nx), (x0, y0), lambda rows, cols: hills(rows, cols) * scale)


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

