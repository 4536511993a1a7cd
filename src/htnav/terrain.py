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


def _elevations(hm: Heightmap, points) -> list[float]:
    """Bilinear elevation at each ``(x, y)`` of ``points``, border-clamped.

    Each lookup interpolates the four surrounding nodes.  The comparisons
    are those of ``min(max(g, 0.0), n - 1.0)``: a NaN coordinate passes
    the clamp and fails at ``int``, and -0.0 survives it.
    """
    grid = hm.elevations
    height, width = grid.shape
    x_top = width - 1.0
    y_top = height - 1.0
    ox, oy = hm.origin
    cell = hm.cell_size
    nodes = memoryview(grid.reshape(-1))  # flat view, read as Python floats
    out = []
    for x, y in points:
        gx = (x - ox) / cell
        gy = (y - oy) / cell
        gx = 0.0 if 0.0 > gx else x_top if x_top < gx else gx
        gy = 0.0 if 0.0 > gy else y_top if y_top < gy else gy
        ix = 0
        if width > 1:
            ix = int(gx)
            if ix > width - 2:
                ix = width - 2
        iy = 0
        if height > 1:
            iy = int(gy)
            if iy > height - 2:
                iy = height - 2
        fx = gx - ix
        fy = gy - iy
        k = iy * width + ix
        if width > 1 and height > 1:
            top = nodes[k] * (1 - fx) + nodes[k + 1] * fx
            bot = nodes[k + width] * (1 - fx) + nodes[k + width + 1] * fx
            out.append(top * (1 - fy) + bot * fy)
        elif width > 1:
            out.append(nodes[k] * (1 - fx) + nodes[k + 1] * fx)
        elif height > 1:
            out.append(nodes[k] * (1 - fy) + nodes[k + width] * fy)
        else:
            out.append(nodes[0])
    return out


def terrain_slope(hm: Heightmap, x: float, y: float) -> tuple[float, float, float]:
    """``(z, dz/dx, dz/dy)`` at ``(x, y)``: the bilinear elevation and central
    differences over one cell, all five lookups made in one pass."""
    h = hm.cell_size
    z, east, west, north, south = _elevations(
        hm, ((x, y), (x + h, y), (x - h, y), (x, y + h), (x, y - h))
    )
    return z, (east - west) / (2.0 * h), (north - south) / (2.0 * h)


def pose_from_terrain(
    hm: Heightmap, x: float, y: float, psi: float
) -> tuple[float, float, float, float, float, float]:
    """Ground a planar pose on the terrain: ``(x, y, psi, z, roll, pitch)``.

    ``z`` and the slope come from ``terrain_slope``.  Pitch is the slope
    along the heading (positive = nose up); roll is the slope along the
    heading's left perpendicular (positive = left side up).
    """
    z, dzdx, dzdy = terrain_slope(hm, x, y)
    c, s = math.cos(psi), math.sin(psi)
    pitch = math.atan(dzdx * c + dzdy * s)
    roll = math.atan(-dzdx * s + dzdy * c)
    return x, y, psi, z, roll, pitch
