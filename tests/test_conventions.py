"""A boundary kind's side of the horizon is spelled once, as
BoundaryKind.side. These tests keep the former per-kind spellings as oracles
(reprojection._lat_in_range, synth._clamp_lat and exact_boundary's per-kind
latitude) and check the code against them bit for bit.
"""

import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from panolayout import synth
from panolayout.errors import CoverageError
from panolayout.geometry import LAT_MIN, BoundaryKind, CameraPose, SphericalBoundary, \
    boundary_to_world
from panolayout.reprojection import _stack_from_polylines
from panolayout.scene import Scene, ViewFrame

from conftest import float_neighbours

_LAT_MAX = math.pi / 2 - 1e-4   # the former synth._LAT_MAX


def _former_lat_in_range(lat, kind):
    if kind == BoundaryKind.FLOOR:
        return (lat > -math.pi / 2) & (lat < 0.0)
    return (lat > 0.0) & (lat < math.pi / 2)


def _former_clamp_lat(lat, kind):
    if kind == BoundaryKind.FLOOR:
        return np.clip(lat, -_LAT_MAX, -LAT_MIN)
    return np.clip(lat, LAT_MIN, _LAT_MAX)


def _former_exact_lat(room, d, kind):
    if kind == BoundaryKind.FLOOR:
        return -np.arctan(room.h_floor / d)
    return np.arctan(room.h_ceil / d)


# NaN, +-inf, the smallest normal double, and +-0.0 (whose neighbours are
# subnormal), +-pi/2, +-LAT_MIN and +-(pi/2 - LAT_MIN) with their neighbours:
# where the side and clamp intervals end.
_EDGES = [math.nan, math.inf, -math.inf, 2.2250738585072014e-308,
          *(s * v for x in (0.0, LAT_MIN, math.pi / 2, _LAT_MAX)
            for v in float_neighbours(x) for s in (1.0, -1.0))]
FLOATS = st.one_of(st.sampled_from(_EDGES), st.floats(width=64))
KINDS = st.sampled_from(BoundaryKind)


def _outcome(fn):
    """fn's array as bytes, or the type and message it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn().tobytes()
    except (ValueError, CoverageError) as e:
        return type(e), str(e)


class TestBoundaryKindSide:
    def test_values(self):
        assert BoundaryKind.FLOOR.side == -1.0
        assert BoundaryKind.CEILING.side == 1.0

    @pytest.mark.parametrize("lat, kind, message", [
        (0.1, BoundaryKind.FLOOR, "floor boundary latitudes must be strictly negative"),
        (-0.1, BoundaryKind.CEILING,
         "ceiling boundary latitudes must be strictly positive"),
        (-0.1, "floor", "unknown boundary kind: 'floor'"),
    ])
    def test_boundary_messages_unchanged(self, lat, kind, message):
        with pytest.raises(ValueError) as e:
            SphericalBoundary(np.full(8, lat), kind)
        assert str(e.value) == message

    @pytest.mark.parametrize("kind, y", [(BoundaryKind.FLOOR, 1.6),
                                         (BoundaryKind.CEILING, -0.9)])
    def test_plane_lies_on_the_kinds_side(self, kind, y):
        pose = CameraPose.from_yaw(0.0, floor_height=1.6, ceil_height=0.9)
        b = SphericalBoundary(np.full(8, kind.side * 0.4), kind)
        assert np.all(boundary_to_world(b, pose).points[:, 1] == y)


@settings(max_examples=300, deadline=None)
@given(kind=KINDS, lat=arrays(np.float64, st.tuples(st.integers(1, 6),
                                                    st.integers(1, 4)),
                              elements=FLOATS))
def test_stack_mask_matches_former_range_check(kind, lat):
    expected = np.where(_former_lat_in_range(lat, kind), lat, np.nan)
    pose = CameraPose.from_yaw(0.0)
    sources = [f"v{i}" for i in range(lat.shape[1])]
    got = _outcome(lambda: _stack_from_polylines(lat.copy(), sources, pose,
                                                 "t", kind).lat)
    if np.isnan(expected).all(axis=1).any():
        assert got[0] is CoverageError
    else:
        assert got == expected.tobytes()


class _Draws:
    """perturb's generator with its draws fixed: each kind's base boundary
    draw is `delta`, every other draw is 0 (no outliers, no pose noise)."""

    def __init__(self, delta):
        self.delta, self.normals = delta, 0

    def normal(self, loc, scale, size=None):
        self.normals += 1
        if size == self.delta.size and self.normals % 2:
            return self.delta.copy()
        return 0.0 if size is None else np.zeros(size)

    def random(self, size):
        return np.ones(size)


@settings(max_examples=300, deadline=None)
@given(delta=arrays(np.float64, 8, elements=FLOATS))
@example(delta=np.full(8, -math.inf))
@example(delta=np.full(8, math.inf))
@example(delta=np.zeros(8))
def test_perturb_clamp_matches_former_clamp(delta):
    bf = SphericalBoundary(np.full(8, -0.5), BoundaryKind.FLOOR)
    bc = SphericalBoundary(np.full(8, 0.4), BoundaryKind.CEILING)
    scene = Scene([ViewFrame("v", CameraPose.from_yaw(0.0), bf, bc)], 8, 4)

    def former(b):
        lat = b.lat if not np.any(delta) else _former_clamp_lat(b.lat + delta, b.kind)
        return SphericalBoundary(lat, b.kind).lat

    def current():
        with mock.patch("numpy.random.default_rng", return_value=_Draws(delta)):
            f = synth.perturb(scene, synth.NoiseSpec(boundary_std=1.0)).frames[0]
        return np.concatenate([f.boundary_floor.lat, f.boundary_ceiling.lat])

    floor, ceil = _outcome(lambda: former(bf)), _outcome(lambda: former(bc))
    got = _outcome(current)
    if isinstance(floor, tuple) or isinstance(ceil, tuple):
        assert got == (floor if isinstance(floor, tuple) else ceil)
    else:
        assert got == floor + ceil


@settings(max_examples=300, deadline=None)
@given(kind=KINDS, h=st.sampled_from([1.6, 0.9, 5e-324, 1e6]),
       d=arrays(np.float64, 8, elements=FLOATS))
def test_exact_boundary_matches_former_latitude(kind, h, d):
    room = types.SimpleNamespace(footprint=None, h_floor=h, h_ceil=h * 0.5)
    pose = CameraPose.from_yaw(0.3)
    with mock.patch.object(synth, "ray_distances", return_value=d):
        got = _outcome(lambda: synth.exact_boundary(room, pose, 8, kind).lat)
    expected = _outcome(lambda: SphericalBoundary(
        _former_exact_lat(room, d, kind), kind).lat)
    assert got == expected