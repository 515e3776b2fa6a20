"""Shared test fixtures and independent oracle helpers.

Oracle code here deliberately re-derives quantities with plain math rather
than calling the library paths under test.
"""

import base64
import copy
import math
import os
from pathlib import Path

import numpy as np
import pytest

from panolayout.errors import GeometryError
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    WorldPolyline
from panolayout.scene import Scene, ViewFrame

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(**extra) -> dict:
    """Environment for a `python -m panolayout` child process.

    The checkout's src directory goes first on PYTHONPATH, so the child runs
    the package under test whether or not it is installed. A numpy
    RuntimeWarning is an error in the child, as it is in-process.
    """
    env = os.environ.copy()
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = ",".join(
        w for w in (env.get("PYTHONWARNINGS"), "error::RuntimeWarning") if w)
    return env


def reference_world_to_boundary_samples(poly: WorldPolyline,
                                        pose: CameraPose) -> np.ndarray:
    """The former row-wise world_to_boundary_samples, kept as the oracle.

    The library computes the same values column by column and must match
    this bit for bit.
    """
    q = (poly.points - pose.translation) @ pose.rotation
    norm = np.linalg.norm(q, axis=1)
    if np.any(norm <= 1e-9):
        raise GeometryError("polyline point coincides with the camera center")
    qn = q / norm[:, None]
    lon = np.arctan2(qn[:, 0], qn[:, 2])
    lat = np.arcsin(np.clip(-qn[:, 1], -1.0, 1.0))
    return np.stack([lon, lat], axis=1)


def dist_to_polygon_boundary(points_xz: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each (x, z) point to the nearest polygon edge segment."""
    points_xz = np.atleast_2d(points_xz)
    a = poly
    b = np.roll(poly, -1, axis=0)
    e = b - a                                          # (M, 2)
    rel = points_xz[:, None, :] - a[None, :, :]        # (K, M, 2)
    t = np.einsum("kmi,mi->km", rel, e) / np.einsum("mi,mi->m", e, e)
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * e[None, :, :]
    d = np.linalg.norm(points_xz[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def float_neighbours(x: float) -> list[float]:
    """x and the doubles just below and above it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def text_document(doc: dict) -> dict:
    """A copy of a scene document as version "1": each packed boundary,
    {"f8": base64}, written out as a JSON list of its floats."""
    doc = copy.deepcopy(doc)
    doc["version"] = "1"
    for record in doc["frames"] + doc.get("ground_truth", []):
        for key in ("boundary_floor", "boundary_ceiling"):
            if record.get(key) is not None:
                record[key] = np.frombuffer(
                    base64.b64decode(record[key]["f8"]), "<f8").tolist()
    return doc


def rotation_about_y(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR with determinant fix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_boundary(rng: np.random.Generator, W: int,
                    kind: BoundaryKind = BoundaryKind.FLOOR) -> SphericalBoundary:
    mag = rng.uniform(0.05, 1.3, W)
    lat = -mag if kind == BoundaryKind.FLOOR else mag
    return SphericalBoundary(lat, kind)


def random_pose(rng: np.random.Generator, upright: bool = False) -> CameraPose:
    R = rotation_about_y(rng.uniform(-math.pi, math.pi)) if upright \
        else random_rotation(rng)
    t = rng.uniform(-3.0, 3.0, 3)
    return CameraPose(R, t, floor_height=rng.uniform(0.5, 2.5),
                      ceil_height=rng.uniform(0.5, 2.5))


def coaxial_cylinder_scene(W: int = 256, radius: float = 2.0,
                           floor_y: float = 1.75, ceil_y: float = -1.0,
                           heights_yaws=((0.0, 0.3), (0.25, -1.2), (0.5, 2.0),
                                         (-0.25, 0.0), (0.75, -2.7))) -> Scene:
    """Cameras stacked on the axis of a cylindrical room.

    Every boundary is a constant-latitude curve, the one family on which
    piecewise-linear resampling is exact, so cross-view stacks agree to
    float precision. Heights are dyadic to keep plane sums exact.
    """
    frames, gt = [], {}
    for i, (y, yaw) in enumerate(heights_yaws):
        hf, hc = floor_y - y, y - ceil_y
        bf = SphericalBoundary(np.full(W, -math.atan2(hf, radius)),
                               BoundaryKind.FLOOR)
        bc = SphericalBoundary(np.full(W, math.atan2(hc, radius)),
                               BoundaryKind.CEILING)
        pose = CameraPose(rotation_about_y(yaw), np.array([0.0, y, 0.0]), hf, hc)
        vid = f"v{i}"
        frames.append(ViewFrame(vid, pose, bf, bc))
        gt[vid] = {BoundaryKind.FLOOR: bf, BoundaryKind.CEILING: bc}
    return Scene(frames, W, W // 2, ground_truth=gt)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
