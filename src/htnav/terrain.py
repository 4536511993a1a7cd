"""Heightmap terrain: bilinear elevation and slope from five lookups that
share three rows and three columns, and the pose they ground."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .typecheck import check_fields, cut


# nodes on a side of the square tiles a lazy grid computes one at a time
TILE = 16


@dataclass(frozen=True, init=False, eq=False)
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
        self._setup(cell_size, np.asarray(elevations, dtype=float), origin, None)
        _check_finite(self._grid)

    @classmethod
    def lazy(cls, cell_size: float, shape: tuple[int, int], origin, fill) -> "Heightmap":
        """A ``shape`` grid whose tiles ``fill(rows, cols)`` computes, given
        the tile's two slices, when a lookup or ``elevations`` first reads it."""
        hm = cls.__new__(cls)
        hm._setup(cell_size, np.full(shape, np.nan), origin, fill)
        return hm

    def _setup(self, cell_size: float, grid: np.ndarray, origin, fill) -> None:
        cut(self, cell_size=cell_size, origin=origin)
        check_fields(self, [(("cell_size",), lambda v: v > 0, "positive")])
        if grid.ndim != 2 or min(grid.shape) < 2:
            raise ValueError("elevations must be a 2-D grid of at least 2x2 nodes")
        grid = np.ascontiguousarray(grid)  # a strided grid is copied once
        height, width = grid.shape
        missing = set(itertools.product(range(-(-height // TILE)), range(-(-width // TILE)))) if fill else set()
        # each lookup reads the flat grid, its width, the top cell and the clamp of each axis, and the origin
        lookup = (memoryview(grid.reshape(-1)), width, width - 2, width - 1.0, height - 2, height - 1.0, *origin)
        cut(self, _grid=grid, _fill=fill, _missing=missing, _lookup=lookup)  # _missing: tiles not yet computed

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


def terrain_slope(hm: Heightmap, x: float, y: float) -> tuple[float, float, float]:
    """``(z, dz/dx, dz/dy)`` at ``(x, y)``: the bilinear elevation and central
    differences over one cell, border-clamped.

    The five lookups, at ``(x, y)``, ``x +- h`` and ``y +- h``, share three
    columns and three rows, each transformed once.  The clamp compares as
    ``min(max(g, 0.0), n - 1.0)`` does: a NaN coordinate passes it and
    fails at ``int``, and -0.0 survives it.  A node not yet computed is NaN,
    which a blend propagates; if any blend is NaN, the missing tiles under
    all five cells are computed in lookup order (z, east, west, north,
    south), and only then are the lookups made again.
    """
    nodes, width, ix_top, x_top, iy_top, y_top, ox, oy = hm._lookup
    h = hm.cell_size
    gx = 0.0 if 0.0 > (gx := (x - ox) / h) else x_top if x_top < gx else gx
    ix = ix_top if gx >= x_top else int(gx)
    ge = 0.0 if 0.0 > (ge := (x + h - ox) / h) else x_top if x_top < ge else ge
    ie = ix_top if ge >= x_top else int(ge)
    gw = 0.0 if 0.0 > (gw := (x - h - ox) / h) else x_top if x_top < gw else gw
    iw = ix_top if gw >= x_top else int(gw)
    gy = 0.0 if 0.0 > (gy := (y - oy) / h) else y_top if y_top < gy else gy
    iy = iy_top if gy >= y_top else int(gy)
    gn = 0.0 if 0.0 > (gn := (y + h - oy) / h) else y_top if y_top < gn else gn
    in_ = iy_top if gn >= y_top else int(gn)
    gs = 0.0 if 0.0 > (gs := (y - h - oy) / h) else y_top if y_top < gs else gs
    is_ = iy_top if gs >= y_top else int(gs)
    fx, fe, fw, fy, fn, fs = gx - ix, ge - ie, gw - iw, gy - iy, gn - in_, gs - is_
    ux, ue, uw, uy, un, us = 1 - fx, 1 - fe, 1 - fw, 1 - fy, 1 - fn, 1 - fs
    row, north, south = iy * width, in_ * width, is_ * width
    k = row + ix
    z = (nodes[k] * ux + nodes[k + 1] * fx) * uy + (nodes[k + width] * ux + nodes[k + width + 1] * fx) * fy
    k = row + ie
    e = (nodes[k] * ue + nodes[k + 1] * fe) * uy + (nodes[k + width] * ue + nodes[k + width + 1] * fe) * fy
    k = row + iw
    w = (nodes[k] * uw + nodes[k + 1] * fw) * uy + (nodes[k + width] * uw + nodes[k + width + 1] * fw) * fy
    k = north + ix
    n = (nodes[k] * ux + nodes[k + 1] * fx) * un + (nodes[k + width] * ux + nodes[k + width + 1] * fx) * fn
    k = south + ix
    s = (nodes[k] * ux + nodes[k + 1] * fx) * us + (nodes[k + width] * ux + nodes[k + width + 1] * fx) * fs
    if z != z or e != e or w != w or n != n or s != s:
        if any([hm._fill_cell(cy, cx) for cy, cx in ((iy, ix), (iy, ie), (iy, iw), (in_, ix), (is_, ix))]):
            return terrain_slope(hm, x, y)
    return z, (e - w) / (2.0 * h), (n - s) / (2.0 * h)


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
