"""Heightmap terrain: bilinear elevation queries and terrain-derived pose."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .typecheck import check_fields


# nodes on a side of the square tiles a lazy grid computes one at a time
TILE = 16


@dataclass(init=False, eq=False)
class Heightmap:
    """Regular grid of node elevations, at least 2x2 nodes.

    ``elevations[iy, ix]`` is the height at world point
    ``origin + (ix, iy) * cell_size``; queries outside the grid clamp to
    the border.  A grid built by ``Heightmap.lazy`` holds NaN at every node
    not yet computed; lookups compute what they read, and ``elevations``
    computes the rest, so it only ever returns the whole grid.
    """

    cell_size: float
    origin: tuple[float, float]

    def __init__(self, cell_size: float, elevations, origin=(0.0, 0.0)):
        self._setup(cell_size, np.asarray(elevations, dtype=float), origin)
        _check_finite(self._grid)

    @classmethod
    def lazy(cls, cell_size: float, shape: tuple[int, int], origin, fill) -> "Heightmap":
        """A ``shape`` grid whose tiles ``fill(rows, cols)`` computes, given
        the tile's two slices, when a lookup or ``elevations`` first reads it."""
        hm = cls.__new__(cls)
        hm._setup(cell_size, np.full(shape, np.nan), origin)
        hm._fill = fill
        hm._missing = set(itertools.product(range(-(-shape[0] // TILE)), range(-(-shape[1] // TILE))))
        return hm

    def _setup(self, cell_size: float, grid: np.ndarray, origin) -> None:
        self.cell_size = cell_size
        self.origin = origin
        check_fields(self, [(("cell_size",), lambda v: v > 0, "positive")])
        if grid.ndim != 2 or min(grid.shape) < 2:
            raise ValueError("elevations must be a 2-D grid of at least 2x2 nodes")
        self._grid = grid
        self._fill = None
        self._missing: set[tuple[int, int]] = set()  # the tiles not yet computed

    @property
    def elevations(self) -> np.ndarray:
        """The whole grid, every node computed."""
        for tile in list(self._missing):
            self._fill_tile(*tile)
        return self._grid

    def _fill_tile(self, ty: int, tx: int) -> None:
        rows = slice(ty * TILE, (ty + 1) * TILE)
        cols = slice(tx * TILE, (tx + 1) * TILE)
        heights = self._fill(rows, cols)
        _check_finite(heights)
        self._grid[rows, cols] = heights
        self._missing.discard((ty, tx))

    def _fill_cell(self, iy: int, ix: int) -> bool:
        """Compute the missing tiles under the cell whose low corner is node
        ``(iy, ix)``; whether there were any."""
        tiles = {(y // TILE, x // TILE) for y in (iy, iy + 1) for x in (ix, ix + 1)} & self._missing
        for tile in tiles:
            self._fill_tile(*tile)
        return bool(tiles)


def _check_finite(heights: np.ndarray) -> None:
    if not np.all(np.isfinite(heights)):
        raise ValueError("elevations must all be finite")


def _elevations(hm: Heightmap, points) -> list[float]:
    """Bilinear elevation at each ``(x, y)`` of ``points``, border-clamped.

    Each lookup interpolates the four surrounding nodes of the grid (at
    least 2x2, so there always are four).  The comparisons are those of
    ``min(max(g, 0.0), n - 1.0)``: a NaN coordinate passes the clamp and
    fails at ``int``, and -0.0 survives it.  A node not yet computed is
    NaN, which the blend propagates: a NaN result computes the cell's
    missing tiles and is read again.
    """
    grid = hm._grid
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
        ix = width - 2 if gx >= x_top else int(gx)
        iy = height - 2 if gy >= y_top else int(gy)
        fx = gx - ix
        fy = gy - iy
        k = iy * width + ix
        while True:
            top = nodes[k] * (1 - fx) + nodes[k + 1] * fx
            bot = nodes[k + width] * (1 - fx) + nodes[k + width + 1] * fx
            z = top * (1 - fy) + bot * fy
            if z == z or not hm._fill_cell(iy, ix):
                break
        out.append(z)
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
