import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnav.terrain import TILE, Heightmap, pose_from_terrain, terrain_slope

from conftest import elevation_at, flat_heightmap, oracle_settings


def test_heightmap_validates():
    with pytest.raises(ValueError):
        Heightmap(cell_size=0.0, elevations=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Heightmap(cell_size=1.0, elevations=np.array([[0.0, np.nan], [0.0, 0.0]]))
    # a 1-node axis has no cell to interpolate across
    for shape in [(1, 3), (3, 1), (1, 1)]:
        with pytest.raises(ValueError, match="at least 2x2 nodes"):
            Heightmap(cell_size=1.0, elevations=np.zeros(shape))


def test_constant_field_everywhere_zero():
    hm = flat_heightmap(10.0, cell_size=1.0)
    for x, y in [(0, 0), (3.3, 7.7), (-5, 20), (100, 100)]:
        assert elevation_at(hm, x, y) == 0.0


def test_bilinear_midpoint():
    # corners 0,1 along x: midpoint interpolates to 0.5
    hm = Heightmap(cell_size=1.0, elevations=np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert elevation_at(hm, 0.5, 0.5) == pytest.approx(0.5)
    assert elevation_at(hm, 0.25, 0.0) == pytest.approx(0.25)


def test_grid_node_returns_stored_value():
    z = np.arange(12.0).reshape(3, 4)
    hm = Heightmap(cell_size=2.0, elevations=z)
    for iy in range(3):
        for ix in range(4):
            assert elevation_at(hm, 2.0 * ix, 2.0 * iy) == z[iy, ix]


def test_queries_outside_clamp_to_border():
    z = np.array([[0.0, 1.0], [2.0, 3.0]])
    hm = Heightmap(cell_size=1.0, elevations=z)
    assert elevation_at(hm, -10.0, -10.0) == 0.0
    assert elevation_at(hm, 10.0, 10.0) == 3.0


def _incline(slope, cell=0.5, n=41):
    xs = np.arange(n) * cell
    z = np.tile(slope * xs, (n, 1))
    return Heightmap(cell_size=cell, elevations=z)


def test_gradient_on_incline():
    hm = _incline(0.5)
    _, gx, gy = terrain_slope(hm, 5.0, 5.0)
    assert gx == pytest.approx(0.5, rel=1e-9)
    assert gy == pytest.approx(0.0, abs=1e-12)


def test_pose_flat_terrain_level():
    pose = pose_from_terrain(flat_heightmap(10.0, cell_size=0.5), 3.0, 3.0, 1.0)
    assert pose == (3.0, 3.0, 1.0, 0.0, 0.0, 0.0)


def test_pose_incline_aligned_heading():
    # gradient 0.5 along +x, heading +x: nose up by atan(0.5)
    *_, roll, pitch = pose_from_terrain(_incline(0.5), 5.0, 5.0, 0.0)
    assert pitch == pytest.approx(0.46365, abs=1e-4)
    assert roll == pytest.approx(0.0, abs=1e-12)


def test_pose_incline_perpendicular_heading():
    *_, roll, pitch = pose_from_terrain(_incline(0.5), 5.0, 5.0, math.pi / 2)
    assert pitch == pytest.approx(0.0, abs=1e-9)
    assert abs(roll) == pytest.approx(0.46365, abs=1e-4)


def test_pose_downhill_heading_noses_down():
    *_, roll, pitch = pose_from_terrain(_incline(0.5), 5.0, 5.0, math.pi)
    assert pitch == pytest.approx(-0.46365, abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.5, 9.5),
    st.floats(0.5, 9.5),
    st.floats(-math.pi, math.pi),
)
def test_pose_angles_bounded(x, y, psi):
    rng = np.random.default_rng(7)
    z = rng.uniform(0, 3, size=(21, 21))
    hm = Heightmap(cell_size=0.5, elevations=z)
    _, _, _, pose_z, roll, pitch = pose_from_terrain(hm, x, y, psi)
    assert -math.pi / 2 < roll < math.pi / 2
    assert -math.pi / 2 < pitch < math.pi / 2
    assert pose_z == pytest.approx(elevation_at(hm, x, y))


def _oracle_elevation_at(hm: Heightmap, x: float, y: float) -> float:
    """The numpy-scalar lookup that ``elevation_at`` replaced, kept as its bit-exact reference."""
    e = hm.elevations
    height, width = e.shape
    gx = (x - hm.origin[0]) / hm.cell_size
    gy = (y - hm.origin[1]) / hm.cell_size
    gx = min(max(gx, 0.0), width - 1.0)
    gy = min(max(gy, 0.0), height - 1.0)
    ix = min(int(gx), width - 2)
    iy = min(int(gy), height - 2)
    fx = gx - ix
    fy = gy - iy
    top = e[iy, ix] * (1 - fx) + e[iy, ix + 1] * fx
    bot = e[iy + 1, ix] * (1 - fx) + e[iy + 1, ix + 1] * fx
    return float(top * (1 - fy) + bot * fy)


@st.composite
def _small_heightmaps(draw):
    """Grids from 2x2, the smallest a Heightmap takes, up to 5x5."""
    h = draw(st.integers(2, 5))
    w = draw(st.integers(2, 5))
    node = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    z = draw(st.lists(node, min_size=h * w, max_size=h * w))
    cell = draw(st.floats(1e-3, 1e3))
    origin = (draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    return Heightmap(cell_size=cell, elevations=np.array(z).reshape(h, w), origin=origin)


# grid units around the grid (border clamping included), or anywhere at all
_grid_units = st.floats(-3.0, 8.0)
_anywhere = st.floats(-1e300, 1e300)


def _same_bits(a: float, b: float) -> bool:
    # float.hex tells -0.0 from 0.0, which == does not
    return float.hex(a) == float.hex(b)


@oracle_settings(400)
@given(_small_heightmaps(), _grid_units, _grid_units, _anywhere, _anywhere, st.booleans())
def test_elevation_at_matches_oracle_bits(hm, ux, uy, ax, ay, far):
    if far:
        x, y = ax, ay
    else:
        x = hm.origin[0] + ux * hm.cell_size
        y = hm.origin[1] + uy * hm.cell_size
    assert _same_bits(elevation_at(hm, x, y), _oracle_elevation_at(hm, x, y))


def test_elevation_at_matches_oracle_on_generated_hills():
    from htnav.world import generate_world

    hm = generate_world("uneven_terrain", 3).heightmap
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(-5.0, 105.0, size=(2000, 2)).tolist():
        assert _same_bits(elevation_at(hm, x, y), _oracle_elevation_at(hm, x, y))


def test_lazy_heightmap_computes_each_tile_once_on_first_read():
    z = np.random.default_rng(4).uniform(-1.0, 1.0, size=(40, 35))
    filled = []

    def fill(rows, cols):
        filled.append((rows.start // TILE, cols.start // TILE))
        return z[rows, cols]

    hm = Heightmap.lazy(0.5, z.shape, (1.0, 2.0), fill)
    eager = Heightmap(cell_size=0.5, elevations=z, origin=(1.0, 2.0))
    assert _same_bits(elevation_at(hm, 2.7, 4.1), elevation_at(eager, 2.7, 4.1))
    assert filled == [(0, 0)]
    # the cell between nodes 15 and 16 on both axes spans four tiles
    assert pose_from_terrain(hm, 8.75, 9.75, 0.3) == pose_from_terrain(eager, 8.75, 9.75, 0.3)
    assert filled == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the whole grid: the five tiles still missing, then nothing more
    assert hm.elevations.tobytes() == z.tobytes()
    assert hm.elevations.tobytes() == z.tobytes()
    assert sorted(filled) == [(ty, tx) for ty in range(3) for tx in range(3)]


def test_lazy_heightmap_checks_each_tile_finite():
    hm = Heightmap.lazy(1.0, (20, 3), (0.0, 0.0), lambda rows, cols: np.full((20, 3), np.inf)[rows, cols])
    with pytest.raises(ValueError, match="elevations must all be finite"):
        elevation_at(hm, 0.5, 0.5)
    with pytest.raises(ValueError, match="elevations must all be finite"):
        hm.elevations


def test_elevation_at_keeps_negative_zero():
    hm = Heightmap(cell_size=1.0, elevations=np.full((2, 2), -0.0))
    assert _same_bits(elevation_at(hm, 0.3, 0.7), -0.0)


def _oracle_terrain_gradient(hm: Heightmap, x: float, y: float):
    h = hm.cell_size
    dzdx = (_oracle_elevation_at(hm, x + h, y) - _oracle_elevation_at(hm, x - h, y)) / (2.0 * h)
    dzdy = (_oracle_elevation_at(hm, x, y + h) - _oracle_elevation_at(hm, x, y - h)) / (2.0 * h)
    return dzdx, dzdy


def _oracle_pose_from_terrain(hm: Heightmap, x: float, y: float, psi: float):
    """Five separate lookups, as ``pose_from_terrain`` once made them: the bit-exact reference."""
    z = _oracle_elevation_at(hm, x, y)
    dzdx, dzdy = _oracle_terrain_gradient(hm, x, y)
    c, s = math.cos(psi), math.sin(psi)
    pitch = math.atan(dzdx * c + dzdy * s)
    roll = math.atan(-dzdx * s + dzdy * c)
    return x, y, psi, z, roll, pitch


def _gradient(hm: Heightmap, x: float, y: float):
    return terrain_slope(hm, x, y)[1:]


def _outcome(f, *args):
    """Every returned float's bits, or the type of the exception raised."""
    try:
        return [float.hex(v) for v in f(*args)]
    except Exception as exc:
        return type(exc)



@oracle_settings(600)
@given(
    _small_heightmaps(),
    _grid_units | st.just(math.nan),
    _grid_units | st.just(math.nan),
    _anywhere,
    _anywhere,
    st.booleans(),
    st.floats(-10.0, 10.0) | st.sampled_from([math.nan, math.inf]),
)
def test_pose_from_terrain_matches_oracle_bits(hm, ux, uy, ax, ay, far, psi):
    if far:
        x, y = ax, ay
    else:
        x = hm.origin[0] + ux * hm.cell_size
        y = hm.origin[1] + uy * hm.cell_size
    want = _outcome(_oracle_pose_from_terrain, hm, x, y, psi)
    assert _outcome(pose_from_terrain, hm, x, y, psi) == want
    assert _outcome(_gradient, hm, x, y) == _outcome(_oracle_terrain_gradient, hm, x, y)


def test_nan_coordinate_raises_like_oracle():
    hm = Heightmap(cell_size=1.0, elevations=np.arange(6.0).reshape(2, 3))
    for x, y in [(math.nan, 0.5), (0.5, math.nan)]:
        assert _outcome(_oracle_pose_from_terrain, hm, x, y, 0.0) is ValueError
        assert _outcome(pose_from_terrain, hm, x, y, 0.0) is ValueError


def test_pose_keeps_signed_zeros_like_oracle():
    # a -0.0 coordinate at a zero origin keeps its sign through the clamp,
    # and -0.0 nodes keep theirs through the blend
    z = np.array([[-0.0, 1.0, -0.0], [-0.0, -0.0, 2.0], [0.5, -0.0, -0.0]])
    zeros = (-0.0, 0.0)
    for origin in [(0.0, 0.0), (-0.0, -0.0)]:
        hm = Heightmap(cell_size=0.5, elevations=z, origin=origin)
        for x, y, psi in itertools.product(zeros + (0.25,), zeros + (0.25,), zeros):
            want = _outcome(_oracle_pose_from_terrain, hm, x, y, psi)
            assert _outcome(pose_from_terrain, hm, x, y, psi) == want


def test_pose_on_strided_grids_matches_oracle():
    z = np.random.default_rng(2).uniform(-1.0, 1.0, size=(6, 9))
    for grid in (z.T, z[::2, 1::3], np.asfortranarray(z)):
        hm = Heightmap(cell_size=0.5, elevations=grid)
        for x, y in np.random.default_rng(3).uniform(-1.0, 5.0, size=(200, 2)).tolist():
            assert _outcome(pose_from_terrain, hm, x, y, 0.3) == _outcome(
                _oracle_pose_from_terrain, hm, x, y, 0.3
            )


def test_pose_and_gradient_match_oracle_on_generated_hills():
    from htnav.world import generate_world

    hm = generate_world("uneven_terrain", 4).heightmap
    rng = np.random.default_rng(1)
    for x, y, psi in rng.uniform(-5.0, 105.0, size=(2000, 3)).tolist():
        want = _outcome(_oracle_pose_from_terrain, hm, x, y, psi)
        assert _outcome(pose_from_terrain, hm, x, y, psi) == want
        assert _outcome(_gradient, hm, x, y) == _outcome(_oracle_terrain_gradient, hm, x, y)
