"""Planar geometry: obstacle primitives, raycasting, and the range scanner.

All raycasts are vectorized over the rays they test.  Ray directions are
unit vectors, so the parametric hit value is the metric distance.  Each
obstacle cuts the constants of its ray tests once, when it is made, and a
capsule's two sides and two caps are each tested in one 2-row pass whose
rows round as separate tests would.

The scanner's result is bit for bit that of ray-testing every obstacle on
every ray of the fan.  It skips three kinds of work that cannot change a
bit:

- obstacles beyond max_range, whose hits would all clamp to max_range;
  callers that scan often from nearby origins pre-cull once with a slack
  (obstacles_in_range), and the scan still applies the exact cull;
- the fan itself when no obstacle is left: the scan is then max_range on
  every ray, as the clamp of "no hit" gives;
- the rays outside an obstacle's angular window (_window): they
  report no hit on it, and a no-hit leaves the fold as it is.  Each
  ray's direction and ray test are computed for that ray alone, so a ray
  gets the same bits in a window as in the whole fan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .typecheck import cut

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

# The same margin bounds an obstacle's ray window: a ray that passes every
# point of the outline by more than it reports no hit.  The window is then
# padded by this many ray spacings, which covers the rounding of the
# window's bounds and of the ray angles (ulps of a few radians, far below
# one spacing of any fan that fits in memory).
_WINDOW_PAD_RAYS = 2


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    return float(-((math.pi - a) % (2.0 * math.pi) - math.pi))


@dataclass(frozen=True)
class Circle:
    """Disc obstacle (tree trunk, boulder, scan-visible sharp hill).

    Cut once, here, for the ray test: ``_center`` as an array.
    """

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")
        cut(self, _center=np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class Wall:
    """Segment obstacle with an optional thickness (a capsule footprint).

    Cut once, here, for the ray tests: ``_sides``, the start and edge
    coordinates of the segment itself (floats) or of a capsule's two
    offset sides ((2, 1) columns, a row per side); and for a capsule
    ``_caps``, the centres of its two end caps of radius ``_radius``
    stacked, and ``_rr``.
    """

    p1: tuple[float, float]
    p2: tuple[float, float]
    thickness: float = 0.0

    def __post_init__(self):
        if self.thickness < 0:
            raise ValueError(f"wall thickness must be >= 0, got {self.thickness}")
        if math.dist(self.p1, self.p2) == 0.0:
            raise ValueError("wall endpoints must be distinct")
        a = np.asarray(self.p1, dtype=float)
        b = np.asarray(self.p2, dtype=float)
        r = self.thickness / 2.0
        sides, caps = (*a.tolist(), *(b - a).tolist()), None
        if r != 0.0:
            # capsule = two offset sides plus end caps
            e = b - a
            n = np.array([-e[1], e[0]]) / np.hypot(e[0], e[1])
            starts = np.stack((a + n * r, a - n * r))
            edges = np.stack((b + n * r, b - n * r)) - starts
            sides, caps = (starts[:, :1], starts[:, 1:], edges[:, :1], edges[:, 1:]), np.stack((a, b))
        cut(self, _sides=sides, _caps=caps, _radius=r, _rr=r * r)


Obstacle = Circle | Wall


def _circle_hits(b, c) -> np.ndarray:
    """The distances of ray_circle_distances from b = 2 * (dirs @ f) and c = f @ f - r * r.

    One circle's c is a float; k circles' is a (k, 1) column, with a row
    of b and of the result each.
    """
    disc = b * b - 4.0 * c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    b = -b
    t_near = (b - sq) / 2.0
    t_far = (b + sq) / 2.0
    t = np.where(t_near >= 0.0, t_near, t_far)
    return np.where(hit & (t >= 0.0), t, np.inf)


def ray_circle_distances(origin: np.ndarray, dirs: np.ndarray, center, radius: float) -> np.ndarray:
    """Distance along each unit ray to the circle; inf where there is no hit.

    Rays starting inside the disc hit on the way out.
    """
    f = origin - np.asarray(center, dtype=float)
    return _circle_hits(2.0 * (dirs @ f), f @ f - radius * radius)


def _segment_hits(ox, oy, dirs: np.ndarray, ax, ay, ex, ey) -> np.ndarray:
    """Distance along each unit ray from (ox, oy) to the zero-thickness
    segment from (ax, ay) along (ex, ey); inf if missed.

    The segment's coordinates are floats for one segment, or (k, 1)
    columns for k segments, with a row of the result each.
    """
    apx, apy = ax - ox, ay - oy
    dx, dy = dirs[:, 0], dirs[:, 1]
    # 2-D cross products: solve origin + t*d = a + s*e
    denom = dx * ey - dy * ex
    ok = np.abs(denom) > _PARALLEL_EPS
    safe = np.where(ok, denom, 1.0)
    t = (apx * ey - apy * ex) / safe
    s = (apx * dy - apy * dx) / safe
    valid = ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
    return np.where(valid, t, np.inf)


def ray_obstacle_distances(origin: np.ndarray, dirs: np.ndarray, obstacle: Obstacle) -> np.ndarray:
    """Distance along each unit ray to the obstacle outline; inf if missed.

    A capsule's two sides are tested in one 2-row pass and its two caps in
    another, folded as min(min(min(side 1, side 2), cap a), cap b).  Each
    cap keeps its own ``dirs @ f`` and ``f @ f``: as one stacked matmul,
    or as plain products, they round differently.
    """
    if isinstance(obstacle, Circle):
        return ray_circle_distances(origin, dirs, obstacle._center, obstacle.radius)
    ox, oy = origin.tolist()
    sides = _segment_hits(ox, oy, dirs, *obstacle._sides)
    if obstacle._caps is None:
        return sides
    f = origin - obstacle._caps
    b = np.empty((2, len(dirs)))
    c = np.empty((2, 1))
    for fi, bi, ci in zip(f, b, c):
        np.matmul(dirs, fi, out=bi)
        ci[0] = fi @ fi
    b *= 2.0
    c -= obstacle._rr
    caps = _circle_hits(b, c)
    d = np.minimum(sides[0], sides[1])
    np.minimum(d, caps[0], out=d)
    return np.minimum(d, caps[1], out=d)


def _margin(ox: float, oy: float, obstacle: Obstacle, max_range: float, slack: float) -> float:
    """The cull and ray-window tolerance: _CULL_REL_MARGIN times the size of the numbers.

    The size is max_range plus the absolute coordinates of the origin and
    the obstacle plus its radius or half thickness, plus 2 * slack: an
    origin within slack of (ox, oy) has |x| + |y| at most sqrt(2) * slack
    larger, so its own margin is smaller than this one by at least
    (2 - sqrt(2)) * slack * _CULL_REL_MARGIN.
    """
    size = max_range + 2.0 * slack + abs(ox) + abs(oy)
    if isinstance(obstacle, Circle):
        (cx, cy), r = obstacle.center, obstacle.radius
        return _CULL_REL_MARGIN * (size + abs(cx) + abs(cy) + r)
    (ax, ay), (bx, by) = obstacle.p1, obstacle.p2
    r = obstacle._radius
    return _CULL_REL_MARGIN * (size + abs(ax) + abs(ay) + abs(bx) + abs(by) + r)


def _segment_reach(ox: float, oy: float, wall: Wall) -> tuple[float, float]:
    """Distance from (ox, oy) to the wall's segment and to the line through it."""
    (ax, ay), (bx, by) = wall.p1, wall.p2
    ex, ey = bx - ax, by - ay
    px, py = ox - ax, oy - ay
    # hypot, unlike ex*ex + ey*ey, stays non-zero on the shortest walls
    length = math.hypot(ex, ey)
    along = (px * ex + py * ey) / length
    line = abs(px * ey - py * ex) / length
    if along <= 0.0:
        return math.hypot(px, py), line
    if along >= length:
        return math.hypot(ox - bx, oy - by), line
    return line, line


def _beyond_range(ox: float, oy: float, obstacle: Obstacle, max_range: float, slack: float = 0.0) -> bool:
    """True when no ray from within ``slack`` of (ox, oy) can report a hit on
    ``obstacle`` within max_range.

    Moving the origin by at most slack moves its distance to the outline
    and to a wall's line by at most slack, and lowers the margin by more
    than the rounding of those distances (see _margin) while slack is
    above about 1e-8 of the coordinates, so an obstacle this culls is
    culled by the slack-0 test from every such origin.  With slack 0 it is
    that test, which _window repeats.  A NaN coordinate or range makes the
    comparisons false, so the obstacle is kept.
    """
    margin = _margin(ox, oy, obstacle, max_range, slack)
    if isinstance(obstacle, Circle):
        (cx, cy), r = obstacle.center, obstacle.radius
        return math.hypot(ox - cx, oy - cy) - r > max_range + slack + margin
    nearest, line = _segment_reach(ox, oy, obstacle)
    r = obstacle._radius
    return nearest - r > max_range + slack + margin and abs(line - r) > slack + margin


def obstacles_in_range(ox: float, oy: float, obstacles, max_range: float, slack: float = 0.0) -> list:
    """The obstacles a scan of max_range may see from some origin within slack of (ox, oy)."""
    return [ob for ob in obstacles if not _beyond_range(ox, oy, ob, max_range, slack)]


def _window(
    ox: float, oy: float, heading: float, obstacle: Obstacle, n_rays: int, max_range: float
) -> tuple[int, int] | None:
    """The first and last ray that can report a hit on ``obstacle``; None for none.

    None is the exact cull, _beyond_range with slack 0.  Otherwise the
    window runs past either end of the fan when it wraps past ray 0, and
    is (0, n_rays - 1) for every ray.  A ray whose bearing is more than
    asin((r + margin) / dist) off the bearings of a circle, or off the arc
    between a wall's endpoint bearings, passes every point of the outline
    by more than margin, so its ray test reports no hit (see
    _CULL_REL_MARGIN).  The window is padded by _WINDOW_PAD_RAYS ray
    spacings.  All rays are tested when the origin is within margin of the
    outline (or inside it), when the window would cover the fan, when a
    bound is not finite (a NaN origin or heading), and when the heading is
    outside [-2pi, 2pi], where the ray angles round by more than the pad
    allows for.
    """
    margin = _margin(ox, oy, obstacle, max_range, 0.0)
    if isinstance(obstacle, Circle):
        (cx, cy), r = obstacle.center, obstacle.radius
        dist = math.hypot(cx - ox, cy - oy)
        if dist - r > max_range + margin:
            return None
        lo = hi = math.atan2(cy - oy, cx - ox)
    else:
        (ax, ay), (bx, by) = obstacle.p1, obstacle.p2
        r = obstacle._radius
        dist, line = _segment_reach(ox, oy, obstacle)
        if dist - r > max_range + margin and abs(line - r) > margin:
            return None
        # the origin is off the segment, which it sees under less than pi
        lo = math.atan2(ay - oy, ax - ox)
        span = wrap_angle(math.atan2(by - oy, bx - ox) - lo)
        hi = lo + span
        if span < 0.0:
            lo, hi = hi, lo
    every = 0, n_rays - 1
    if not (abs(heading) <= 2.0 * math.pi and dist > r + margin):
        return every
    widen = math.asin((r + margin) / dist)
    step = 2.0 * math.pi / n_rays
    first = (lo - widen - heading) / step - _WINDOW_PAD_RAYS
    last = (hi + widen - heading) / step + _WINDOW_PAD_RAYS
    if not last - first < n_rays:
        return every
    first, last = math.floor(first), math.ceil(last)
    if last - first + 1 >= n_rays:
        return every
    return first, last


def _fan(heading: float, rays: np.ndarray, n_rays: int) -> np.ndarray:
    """Unit directions of the given rays; ray k points at heading + k * (2*pi / n_rays)."""
    angles = heading + rays * (2.0 * math.pi / n_rays)
    dirs = np.empty((len(angles), 2))
    dirs[:, 0] = np.cos(angles)
    dirs[:, 1] = np.sin(angles)
    return dirs


def scan_ranges(
    origin,
    heading: float,
    obstacles,
    n_rays: int = 720,
    max_range: float = 10.0,
) -> np.ndarray:
    """Simulated 360-degree range scan in the robot frame.

    Ray k points at heading + k * (2*pi / n_rays); ranges are clamped to
    [0, max_range] with max_range standing in for "no hit".  The result
    is bit for bit that of ray-testing every obstacle on every ray; the
    module docstring lists the work skipped and why each skip is exact.
    """
    origin = np.asarray(origin, dtype=float)
    ox, oy = origin.tolist()
    best = np.full(n_rays, np.inf)
    for obstacle in obstacles:
        window = _window(ox, oy, heading, obstacle, n_rays, max_range)
        if window is None:
            continue
        first, last = window
        rays = np.arange(first, last + 1) % n_rays
        d = ray_obstacle_distances(origin, _fan(heading, rays, n_rays), obstacle)
        best[rays] = np.minimum(best[rays], d)
    return np.clip(best, 0.0, max_range)


def point_obstacle_clearance(p, obstacle: Obstacle) -> float:
    """Distance from a point to the obstacle outline (negative inside)."""
    if isinstance(obstacle, Circle):
        return float(math.dist(p, obstacle.center) - obstacle.radius)
    return _segment_reach(*p, obstacle)[0] - obstacle._radius


def bounds_walls(bounds: tuple[float, float, float, float]) -> list[Wall]:
    """The four boundary segments of an (xmin, ymin, xmax, ymax) rectangle."""
    x0, y0, x1, y1 = bounds
    return [
        Wall((x0, y0), (x1, y0)),
        Wall((x1, y0), (x1, y1)),
        Wall((x1, y1), (x0, y1)),
        Wall((x0, y1), (x0, y0)),
    ]
