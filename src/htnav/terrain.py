"""Heightmap terrain: bilinear elevation queries and terrain-derived pose."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Heightmap:
    """Regular grid of node elevations.

    ``elevations[iy, ix]`` is the height at world point
    ``origin + (ix, iy) * cell_size``; queries outside the grid clamp to
    the border.
    """

    cell_size: float
    elevations: np.ndarray
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.elevations = np.asarray(self.elevations, dtype=float)
        if self.elevations.ndim != 2:
            raise ValueError("elevations must be a 2-D grid")
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if not np.all(np.isfinite(self.elevations)):
            raise ValueError("elevations must all be finite")

    @property
    def width(self) -> int:
        return int(self.elevations.shape[1])

    @property
    def height(self) -> int:
        return int(self.elevations.shape[0])


def flat_heightmap(size: float, cell_size: float = 1.0, origin=(0.0, 0.0)) -> Heightmap:
    n = int(round(size / cell_size)) + 1
    return Heightmap(cell_size=cell_size, elevations=np.zeros((n, n)), origin=origin)


def elevation_at(hm: Heightmap, x: float, y: float) -> float:
    """Bilinear interpolation over the four surrounding nodes, border-clamped."""
    height, width = hm.elevations.shape
    gx = (x - hm.origin[0]) / hm.cell_size
    gy = (y - hm.origin[1]) / hm.cell_size
    gx = min(max(gx, 0.0), width - 1.0)
    gy = min(max(gy, 0.0), height - 1.0)
    ix = min(int(gx), width - 2) if width > 1 else 0
    iy = min(int(gy), height - 2) if height > 1 else 0
    fx = gx - ix
    fy = gy - iy
    e = hm.elevations.item  # nodes as Python floats: no numpy-scalar arithmetic
    if width == 1 and height == 1:
        return e(0, 0)
    if width == 1:
        return e(iy, 0) * (1 - fy) + e(iy + 1, 0) * fy
    if height == 1:
        return e(0, ix) * (1 - fx) + e(0, ix + 1) * fx
    top = e(iy, ix) * (1 - fx) + e(iy, ix + 1) * fx
    bot = e(iy + 1, ix) * (1 - fx) + e(iy + 1, ix + 1) * fx
    return top * (1 - fy) + bot * fy


def terrain_gradient(hm: Heightmap, x: float, y: float) -> tuple[float, float]:
    """(dz/dx, dz/dy) by central differences over one cell."""
    h = hm.cell_size
    dzdx = (elevation_at(hm, x + h, y) - elevation_at(hm, x - h, y)) / (2.0 * h)
    dzdy = (elevation_at(hm, x, y + h) - elevation_at(hm, x, y - h)) / (2.0 * h)
    return dzdx, dzdy


def pose_from_terrain(
    hm: Heightmap, x: float, y: float, psi: float
) -> tuple[float, float, float, float, float, float]:
    """Ground a planar pose on the terrain: ``(x, y, psi, z, roll, pitch)``.

    Pitch is the slope along the heading (positive = nose up); roll is
    the slope along the heading's left perpendicular (positive = left
    side up).
    """
    z = elevation_at(hm, x, y)
    dzdx, dzdy = terrain_gradient(hm, x, y)
    c, s = math.cos(psi), math.sin(psi)
    pitch = math.atan(dzdx * c + dzdy * s)
    roll = math.atan(-dzdx * s + dzdy * c)
    return x, y, psi, z, roll, pitch
