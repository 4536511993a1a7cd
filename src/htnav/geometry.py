"""Planar geometry: obstacle primitives, raycasting, and the range scanner.

All raycasts are vectorized over the ray fan.  Ray directions are unit
vectors, so the parametric hit value is the metric distance.
"""

import math
from dataclasses import dataclass

import numpy as np

_PARALLEL_EPS = 1e-12

# The scanner skips an obstacle whose outline lies more than
# max_range + margin from the origin, where margin is _CULL_REL_MARGIN
# times the size of the numbers the ray tests round on: max_range plus
# the absolute coordinates of the origin and the obstacle plus its
# radius or half thickness.  Rounding can put a reported hit short of
# the true distance by a few ulps of that size on a clean hit, and by up
# to about sqrt(12 * eps) = 5e-8 of it on a ray grazing a circle, where
# b*b - 4c cancels; 1e-6 leaves a factor of 20 to spare.  A ray nearly
# parallel to a segment (cross product just above _PARALLEL_EPS) can
# have its hit misplaced by far more, but only if the segment's line
# passes within about 1e-9 of that size of the origin, so a wall is also
# kept whenever its line, or a capsule's side line, passes within the
# margin.
_CULL_REL_MARGIN = 1e-6


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    return float(-((math.pi - a) % (2.0 * math.pi) - math.pi))


@dataclass(frozen=True)
class Circle:
    """Disc obstacle (tree trunk, boulder, scan-visible sharp hill)."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Wall:
    """Segment obstacle with an optional thickness (a capsule footprint)."""

    p1: tuple[float, float]
    p2: tuple[float, float]
    thickness: float = 0.0

    def __post_init__(self):
        if self.thickness < 0:
            raise ValueError(f"wall thickness must be >= 0, got {self.thickness}")
        if math.dist(self.p1, self.p2) == 0.0:
            raise ValueError("wall endpoints must be distinct")


Obstacle = Circle | Wall


def ray_circle_distances(
    origin: np.ndarray, dirs: np.ndarray, center, radius: float
) -> np.ndarray:
    """Distance along each unit ray to the circle; inf where there is no hit.

    Rays starting inside the disc hit on the way out.
    """
    f = origin - np.asarray(center, dtype=float)
    b = 2.0 * (dirs @ f)
    c = f @ f - radius * radius
    disc = b * b - 4.0 * c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (-b - sq) / 2.0
    t_far = (-b + sq) / 2.0
    t = np.where(t_near >= 0.0, t_near, t_far)
    return np.where(hit & (t >= 0.0), t, np.inf)


def ray_segment_distances(origin: np.ndarray, dirs: np.ndarray, p1, p2) -> np.ndarray:
    """Distance along each unit ray to a zero-thickness segment; inf if missed."""
    a = np.asarray(p1, dtype=float)
    e = np.asarray(p2, dtype=float) - a
    ap = a - origin
    # 2-D cross products: solve origin + t*d = a + s*e
    denom = dirs[:, 0] * e[1] - dirs[:, 1] * e[0]
    ok = np.abs(denom) > _PARALLEL_EPS
    safe = np.where(ok, denom, 1.0)
    t = (ap[0] * e[1] - ap[1] * e[0]) / safe
    s = (ap[0] * dirs[:, 1] - ap[1] * dirs[:, 0]) / safe
    valid = ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
    return np.where(valid, t, np.inf)


def ray_obstacle_distances(origin: np.ndarray, dirs: np.ndarray, obstacle: Obstacle) -> np.ndarray:
    """Distance along each unit ray to the obstacle outline; inf if missed."""
    if isinstance(obstacle, Circle):
        return ray_circle_distances(origin, dirs, obstacle.center, obstacle.radius)
    a = np.asarray(obstacle.p1, dtype=float)
    b = np.asarray(obstacle.p2, dtype=float)
    r = obstacle.thickness / 2.0
    if r == 0.0:
        return ray_segment_distances(origin, dirs, a, b)
    # capsule = two offset sides plus end caps
    e = b - a
    n = np.array([-e[1], e[0]]) / np.hypot(e[0], e[1])
    d = np.minimum(
        ray_segment_distances(origin, dirs, a + n * r, b + n * r),
        ray_segment_distances(origin, dirs, a - n * r, b - n * r),
    )
    d = np.minimum(d, ray_circle_distances(origin, dirs, a, r))
    return np.minimum(d, ray_circle_distances(origin, dirs, b, r))


def _beyond_range(ox: float, oy: float, obstacle: Obstacle, max_range: float) -> bool:
    """True when no ray from (ox, oy) can report a hit on ``obstacle`` within max_range.

    A NaN coordinate or range makes the comparisons false, so the obstacle
    is scanned.
    """
    size = max_range + abs(ox) + abs(oy)
    if isinstance(obstacle, Circle):
        (cx, cy), r = obstacle.center, obstacle.radius
        margin = _CULL_REL_MARGIN * (size + abs(cx) + abs(cy) + r)
        return math.hypot(ox - cx, oy - cy) - r > max_range + margin
    (ax, ay), (bx, by) = obstacle.p1, obstacle.p2
    r = obstacle.thickness / 2.0
    margin = _CULL_REL_MARGIN * (size + abs(ax) + abs(ay) + abs(bx) + abs(by) + r)
    ex, ey = bx - ax, by - ay
    px, py = ox - ax, oy - ay
    # hypot, unlike ex*ex + ey*ey, stays non-zero on the shortest walls
    length = math.hypot(ex, ey)
    along = (px * ex + py * ey) / length
    line = abs(px * ey - py * ex) / length
    if along <= 0.0:
        nearest = math.hypot(px, py)
    elif along >= length:
        nearest = math.hypot(ox - bx, oy - by)
    else:
        nearest = line
    return nearest - r > max_range + margin and abs(line - r) > margin


def scan_ranges(
    origin,
    heading: float,
    obstacles,
    n_rays: int = 720,
    max_range: float = 10.0,
) -> np.ndarray:
    """Simulated 360-degree range scan in the robot frame.

    Ray k points at heading + k * (2*pi / n_rays); ranges are clamped to
    [0, max_range] with max_range standing in for "no hit".  Obstacles
    wholly beyond max_range are not ray-tested: every hit on one would
    clamp to max_range, so skipping it leaves the scan bit for bit the same.
    """
    origin = np.asarray(origin, dtype=float)
    ox, oy = origin.tolist()
    angles = heading + np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    best = np.full(n_rays, np.inf)
    for obstacle in obstacles:
        if not _beyond_range(ox, oy, obstacle, max_range):
            best = np.minimum(best, ray_obstacle_distances(origin, dirs, obstacle))
    return np.clip(best, 0.0, max_range)


def point_segment_distance(p, a, b) -> float:
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    e = b - a
    t = float(np.clip((p - a) @ e / (e @ e), 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * e))))


def point_obstacle_clearance(p, obstacle: Obstacle) -> float:
    """Distance from a point to the obstacle outline (negative inside)."""
    if isinstance(obstacle, Circle):
        return float(math.dist(p, obstacle.center) - obstacle.radius)
    return point_segment_distance(p, obstacle.p1, obstacle.p2) - obstacle.thickness / 2.0


def bounds_walls(bounds: tuple[float, float, float, float]) -> list[Wall]:
    """The four boundary segments of an (xmin, ymin, xmax, ymax) rectangle."""
    x0, y0, x1, y1 = bounds
    return [
        Wall((x0, y0), (x1, y0)),
        Wall((x1, y0), (x1, y1)),
        Wall((x1, y1), (x0, y1)),
        Wall((x0, y1), (x0, y0)),
    ]
