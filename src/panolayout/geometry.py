"""Spherical camera model and rigid transforms for layout boundaries.

COORDINATE CONVENTIONS
======================
Camera frame (right-handed):
  - X axis: right
  - Y axis: down
  - Z axis: forward
  - Floor plane sits at y = +floor_height, ceiling at y = -ceil_height.

Spherical coordinates:
  - Longitude lon in [-pi, pi), measured with atan2(x, z): lon = 0 looks
    along +Z, lon = +pi/2 along +X.
  - Latitude lat in (-pi/2, pi/2), positive above the horizon. Because Y
    points down, lat = asin(-y / ||p||); floor boundaries therefore have
    strictly negative latitudes, ceiling boundaries strictly positive.

Equirectangular pixel grid (width W, height H), pixel-center sampling:
  - lon(u) = 2*pi*(u + 0.5)/W - pi
  - lat(v) = pi/2 - pi*(v + 0.5)/H

Poses are camera-to-world: p_world = rotation @ p_camera + translation.

BoundaryKind.side (-1.0 floor, +1.0 ceiling) is the one spelling of a kind's
side of the horizon: its latitudes satisfy 0 < side * lat < pi/2, and its
plane lies at y = -side * h, reached at wall radius rho = h / tan(|lat|).
Formulas that take a (floor, ceiling) pair by role keep their own signs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError

# Rays closer than this to the horizon hit the height plane at unbounded
# radius; they are rejected instead of producing huge coordinates.
LAT_MIN = 1e-4

# Largest |translation| entry, height and footprint coordinate, in meters:
# far beyond any room, and small enough that no squared world coordinate
# overflows.
MAX_METERS = 1e6

# Evaluation-convention camera height, used when an input omits it.
DEFAULT_CAMERA_HEIGHT = 1.6

_ROTATION_TOL = 1e-9


class BoundaryKind(Enum):
    FLOOR = "floor"
    CEILING = "ceiling"

    @property
    def side(self) -> float:
        """-1.0 for floor (below the horizon), +1.0 for ceiling (above it)."""
        return -1.0 if self is BoundaryKind.FLOOR else 1.0


@dataclass(frozen=True)
class SphericalBoundary:
    """One view's layout boundary: a latitude per panorama column.

    lat: (W,) array of latitudes in radians, strictly below the horizon for
    FLOOR boundaries and strictly above it for CEILING boundaries.
    """

    lat: np.ndarray
    kind: BoundaryKind

    def __post_init__(self):
        lat = np.asarray(self.lat, dtype=float)
        object.__setattr__(self, "lat", lat)
        if lat.ndim != 1 or lat.shape[0] < 8:
            raise ValueError(f"boundary needs >= 8 columns, got shape {lat.shape}")
        if not np.all(np.isfinite(lat)):
            raise ValueError("boundary latitudes must be finite")
        if not isinstance(self.kind, BoundaryKind):
            raise ValueError(f"unknown boundary kind: {self.kind!r}")
        if not np.all(self.kind.side * lat > 0.0):
            sign = "negative" if self.kind.side < 0 else "positive"
            raise ValueError(f"{self.kind.value} boundary latitudes must be "
                             f"strictly {sign}")
        if np.any(np.abs(lat) >= math.pi / 2):
            raise ValueError("boundary latitudes must lie in (-pi/2, pi/2)")

    @property
    def width(self) -> int:
        return self.lat.shape[0]


@dataclass
class CameraPose:
    """SE(3) camera-to-world transform plus the camera-to-floor distance.

    ceil_height is optional; it is resolved from a floor/ceiling boundary
    pair via ceiling_height() before ceiling boundaries are projected.
    """

    rotation: np.ndarray
    translation: np.ndarray
    floor_height: float = DEFAULT_CAMERA_HEIGHT
    ceil_height: float | None = None

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > _ROTATION_TOL:
            raise ValueError("rotation determinant must be +1 within 1e-9")
        if not (self.floor_height > 0.0):
            raise ValueError("floor_height must be positive")
        if self.ceil_height is not None and not (self.ceil_height > 0.0):
            raise ValueError("ceil_height must be positive when set")
        self.rotation = R
        self.translation = t

    @staticmethod
    def from_yaw(yaw: float, translation=(0.0, 0.0, 0.0),
                 floor_height: float = DEFAULT_CAMERA_HEIGHT,
                 ceil_height: float | None = None) -> "CameraPose":
        """Upright pose rotated by `yaw` about the (down-pointing) Y axis."""
        c, s = math.cos(yaw), math.sin(yaw)
        R = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        return CameraPose(R, np.asarray(translation, dtype=float),
                          floor_height, ceil_height)

    def height_for(self, kind: BoundaryKind) -> float:
        if kind == BoundaryKind.FLOOR:
            return self.floor_height
        if self.ceil_height is None:
            raise GeometryError(
                "ceiling height unresolved; compute it with ceiling_height()")
        return self.ceil_height


@dataclass
class WorldPolyline:
    """Boundary projected to world coordinates, one 3D point per column."""

    points: np.ndarray
    source_view: str
    kind: BoundaryKind

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (W, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        self.points = pts


def wrap_longitude(lon):
    """Wrap angles to the canonical longitude range [-pi, pi)."""
    return (np.asarray(lon, dtype=float) + math.pi) % (2.0 * math.pi) - math.pi


def column_longitudes(W: int) -> np.ndarray:
    """Pixel-center longitudes of all W panorama columns."""
    return 2.0 * math.pi * (np.arange(W) + 0.5) / W - math.pi


@functools.lru_cache(maxsize=8)
def _column_trig(W: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sin and cos of the W column longitudes, cached per width."""
    lon = column_longitudes(W)
    trig = np.sin(lon), np.cos(lon)
    for a in trig:
        a.flags.writeable = False
    return trig


def pixel_to_spherical(u, v, W: int, H: int):
    """Map pixel indices to (lon, lat) at pixel centers.

    Accepts scalars or arrays for u/v. Raises ValueError for indices outside
    [0, W) x [0, H).
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if np.any(u < 0) or np.any(u >= W) or np.any(v < 0) or np.any(v >= H):
        raise ValueError(f"pixel index out of range for {W}x{H} image")
    lon = 2.0 * math.pi * (u + 0.5) / W - math.pi
    lat = math.pi / 2 - math.pi * (v + 0.5) / H
    if lon.ndim == 0:
        return float(lon), float(lat)
    return lon, lat


def row_to_latitude(v, H: int):
    """Latitude of a (possibly fractional) pixel row, pixel-center convention."""
    return math.pi / 2 - math.pi * (np.asarray(v, dtype=float) + 0.5) / H


def latitude_to_row(lat, H: int):
    """Inverse of row_to_latitude."""
    return (math.pi / 2 - np.asarray(lat, dtype=float)) * H / math.pi - 0.5


def boundary_to_world(b: SphericalBoundary, pose: CameraPose,
                      source_view: str = "") -> WorldPolyline:
    """Project a boundary onto its height plane and register it in world frame.

    Column theta with longitude lon and latitude lat maps to the camera-frame
    point (rho*sin(lon), -side*h, rho*cos(lon)) with rho = h/tan(|lat|),
    where h is the plane distance for the boundary's kind and side is
    kind.side. Output preserves column order.

    Raises GeometryError when any |lat| < LAT_MIN (ray nearly parallel to
    the plane) or when a ceiling boundary is projected with an unresolved
    ceiling height.
    """
    h = pose.height_for(b.kind)
    lat = b.lat
    if np.any(np.abs(lat) < LAT_MIN):
        n_bad = int(np.sum(np.abs(lat) < LAT_MIN))
        raise GeometryError(
            f"{n_bad} boundary column(s) within {LAT_MIN} rad of the horizon")
    sin_lon, cos_lon = _column_trig(b.width)
    rho = h / np.tan(np.abs(lat))
    cam = np.empty((b.width, 3))
    np.multiply(rho, sin_lon, out=cam[:, 0])
    cam[:, 1] = -b.kind.side * h
    np.multiply(rho, cos_lon, out=cam[:, 2])
    world = cam @ pose.rotation.T + pose.translation
    return WorldPolyline(world, source_view, b.kind)


def world_to_boundary_samples(poly: WorldPolyline | np.ndarray,
                              pose: CameraPose) -> np.ndarray:
    """Map world points into a camera's spherical coordinates.

    poly is a WorldPolyline or its (n, 3) points array. Returns an (n, 2)
    array of (lon, lat) samples in input order; no resampling is performed.
    lon = atan2(x, z) and lat = asin(-y) on the normalized camera-frame
    point, so floor points map to negative latitudes.

    Raises GeometryError if any point coincides with the camera center.
    """
    # Column-wise forms of the (n, 3) - (3,) broadcast, the row norm and the
    # row division: the same operations on the same values in the same order
    # (the norm sums x*x + y*y + z*z left to right, as np.add.reduce does over
    # three elements), without numpy loops over a length-3 inner axis.
    pts = getattr(poly, "points", poly)
    d = np.empty_like(pts)
    for k in range(3):
        np.subtract(pts[:, k], pose.translation[k], out=d[:, k])
    x, y, z = (d @ pose.rotation).T
    norm = x * x
    norm += y * y
    norm += z * z
    np.sqrt(norm, out=norm)
    if np.any(norm <= 1e-9):
        raise GeometryError("polyline point coincides with the camera center")
    out = np.empty((pts.shape[0], 2))
    np.arctan2(x / norm, z / norm, out=out[:, 0])
    np.arcsin(np.clip(-(y / norm), -1.0, 1.0), out=out[:, 1])
    return out


def ceiling_height(b_floor: SphericalBoundary, b_ceil: SphericalBoundary,
                   h_floor: float) -> float:
    """Camera-to-ceiling distance implied by a floor/ceiling boundary pair.

    Assumes walls perpendicular to floor and ceiling: averages
    -h_floor * cot(lat_f) * tan(lat_c) over columns. Raises GeometryError
    on a non-positive result (inconsistent boundaries).
    """
    if b_floor.kind != BoundaryKind.FLOOR or b_ceil.kind != BoundaryKind.CEILING:
        raise ValueError("expected a (floor, ceiling) boundary pair")
    if b_floor.width != b_ceil.width:
        raise ValueError("floor and ceiling boundaries must share W")
    h = float(np.mean(-h_floor / np.tan(b_floor.lat) * np.tan(b_ceil.lat)))
    if not (h > 0.0) or not math.isfinite(h):
        raise GeometryError(f"inconsistent boundaries: ceiling height {h!r}")
    return h
