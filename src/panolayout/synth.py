"""Synthetic multi-view scenes with analytically exact boundaries.

Rooms are simple CCW polygons in the x-z (top view) plane. Boundaries are
generated by ray-casting the footprint from each camera position, which
makes every derived quantity (wall distances, latitudes, ceiling heights)
available in closed form for use as a test oracle.

Randomness: numpy PCG64 seeded through SeedSequence, one spawned child
stream per view, so scenes are bit-reproducible from (room, n_views, W,
seed) alone. The generator name is recorded in the scene metadata.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError
from .geometry import BoundaryKind, CameraPose, SphericalBoundary, LAT_MIN, \
    MAX_METERS, column_longitudes, wrap_longitude
from .scene import Scene, ViewFrame

RNG_NAME = "numpy-pcg64-seedsequence"

# Cameras keep this clearance (meters) from every wall line, which also
# guarantees star-visibility of the whole footprint.
WALL_CLEARANCE = 0.2

_MAX_PLACEMENT_ATTEMPTS = 100


@dataclass(frozen=True)
class RoomSpec:
    """Room footprint (simple CCW polygon, meters) plus plane distances."""

    footprint: np.ndarray
    h_floor: float
    h_ceil: float

    def __post_init__(self):
        poly = np.asarray(self.footprint, dtype=float)
        object.__setattr__(self, "footprint", poly)
        if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
            raise ValueError(f"footprint must be (M>=3, 2), got {poly.shape}")
        if not np.all(np.abs(poly) <= MAX_METERS):  # CameraPose's bound
            raise ValueError("footprint must be finite and within 1e6 m")
        if _signed_area(poly) <= 0.0:
            raise ValueError("footprint must be counter-clockwise with area > 0")
        if _self_intersects(poly):
            raise ValueError("footprint must be a simple polygon")
        if not all(0.0 < h <= MAX_METERS for h in (self.h_floor, self.h_ceil)):
            raise ValueError("h_floor and h_ceil must lie in (0, 1e6] m")
        # Farther walls would lie within LAT_MIN of the horizon: no lift.
        span = float(np.max(np.linalg.norm(poly[:, None] - poly, axis=-1)))
        if span >= min(self.h_floor, self.h_ceil) / math.tan(LAT_MIN):
            raise ValueError(f"footprint spans {span:g} m, too wide for heights "
                             f"{self.h_floor:g} and {self.h_ceil:g} m")


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation magnitudes for boundaries and poses."""

    boundary_std: float = 0.0
    outlier_rate: float = 0.0
    outlier_std: float = 0.0
    pose_trans_std: float = 0.0
    pose_rot_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("boundary_std", "outlier_std", "pose_trans_std", "pose_rot_std"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:   # NaN fails both comparisons
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier_rate must be in [0, 1)")


def _signed_area(poly: np.ndarray) -> float:
    x, z = poly[:, 0], poly[:, 1]
    x2, z2 = np.roll(x, -1), np.roll(z, -1)
    return 0.5 * float(np.sum(x * z2 - x2 * z))


def _self_intersects(poly: np.ndarray) -> bool:
    """Whether two non-adjacent edges share a point: they cross, one touches
    the other from either side, or they overlap on one line. All edge pairs
    are tested in one pass."""
    nxt = np.roll(poly, -1, axis=0)
    e = nxt - poly
    # side[k][i, j]: the side of edge j's line that vertex i (k = 0) or
    # i + 1 (k = 1) lies on, 0 on the line.
    side = [np.sign(e[:, 0] * (q[:, None, 1] - poly[:, 1])
                    - e[:, 1] * (q[:, None, 0] - poly[:, 0])) for q in (poly, nxt)]
    reaches = side[0] * side[1] <= 0   # edge i meets edge j's line
    meet = np.triu(reaches & reaches.T, 2)   # pairs i < j, not i, i + 1
    meet[0, -1] = False                      # nor m - 1, 0
    i, j = np.nonzero(meet)
    # Edges on one line meet only where their extents overlap.
    s0, s1 = side
    on_line = (s0[i, j] == 0) & (s1[i, j] == 0) | (s0[j, i] == 0) & (s1[j, i] == 0)
    lo, hi = np.minimum(poly, nxt), np.maximum(poly, nxt)
    apart = (np.maximum(lo[i], lo[j]) > np.minimum(hi[i], hi[j])).any(axis=1)
    return bool((~(on_line & apart)).any())


def square_room(size: float = 4.0, h_floor: float = 1.6, h_ceil: float = 0.9) -> RoomSpec:
    if not size > 0.0:   # a negative size builds the point-reflected room
        raise ValueError(f"size must be > 0, got {size!r}")
    s = size / 2.0
    poly = np.array([[-s, -s], [s, -s], [s, s], [-s, s]])
    return RoomSpec(poly, h_floor, h_ceil)


def lshape_room(size: float = 4.0, h_floor: float = 1.6, h_ceil: float = 0.9) -> RoomSpec:
    """L-shaped footprint: a size x size square with one quadrant removed.

    Its kernel (the region seeing every wall) is the quadrant adjacent to
    the inner corner, so star-visible camera placement is feasible.
    """
    if not size > 0.0:   # a negative size builds the point-reflected room
        raise ValueError(f"size must be > 0, got {size!r}")
    s = size / 2.0
    poly = np.array([[-s, -s], [s, -s], [s, 0.0], [0.0, 0.0], [0.0, s], [-s, s]])
    return RoomSpec(poly, h_floor, h_ceil)


def ngon_room(sides: int = 6, radius: float = 2.0, h_floor: float = 1.6,
              h_ceil: float = 0.9) -> RoomSpec:
    # The simple-polygon check takes O(sides^2); an infinite radius makes NaNs.
    if not (3 <= sides <= 256 and 0.0 < radius <= MAX_METERS):
        raise ValueError(f"ngon needs 3-256 sides and a radius in (0, 1e6] m, "
                         f"got {sides} and {radius!r}")
    ang = 2.0 * math.pi * np.arange(sides) / sides
    poly = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    return RoomSpec(poly, h_floor, h_ceil)


def ray_distances(footprint: np.ndarray, origin, angles) -> np.ndarray:
    """Distance from `origin` to the footprint along each angle.

    Angles follow the world longitude convention: direction
    (sin(angle), cos(angle)) in the x-z plane. This is the analytic
    ray-segment intersection oracle; the nearest hit is returned, which for
    star-visible origins is the visible wall.
    """
    poly = np.asarray(footprint, dtype=float)
    origin = np.asarray(origin, dtype=float)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    dirs = np.stack([np.sin(angles), np.cos(angles)], axis=1)     # (K, 2)
    a = poly                                                      # (M, 2)
    e = np.roll(poly, -1, axis=0) - poly                          # (M, 2)
    ao = a - origin                                               # (M, 2)
    # Solve origin + t*dir = a + u*e per (ray, edge) with 2D cross products.
    denom = dirs[:, 0:1] * e[None, :, 1] - dirs[:, 1:2] * e[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ao[None, :, 0] * e[None, :, 1] - ao[None, :, 1] * e[None, :, 0]) / denom
        u = (ao[None, :, 0] * dirs[:, 1:2] - ao[None, :, 1] * dirs[:, 0:1]) / denom
    hit = (np.abs(denom) > 1e-15) & (t > 1e-12) & (u >= -1e-12) & (u <= 1.0 + 1e-12)
    t = np.where(hit, t, np.inf)
    d = t.min(axis=1)
    if not np.all(np.isfinite(d)):
        raise GeometryError("ray missed the footprint; origin outside the polygon?")
    return d


def kernel_clearance(footprint: np.ndarray, point) -> float:
    """Smallest signed distance from `point` to the footprint edge lines.

    Positive values mean the point lies on the interior side of every wall
    line, i.e. inside the polygon's kernel; every wall is then fully
    visible from the point.
    """
    poly = np.asarray(footprint, dtype=float)
    return _clearance_to(poly)(np.asarray(point, dtype=float))


def _clearance_to(poly: np.ndarray):
    """kernel_clearance to poly as a function of the point; the edge vectors
    and lengths are computed once."""
    e = np.roll(poly, -1, axis=0) - poly
    length = np.linalg.norm(e, axis=1)

    def clearance(p: np.ndarray) -> float:
        rel = p[None, :] - poly
        cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
        return float(np.min(cross / length))
    return clearance


def exact_boundary(room: RoomSpec, pose: CameraPose, W: int,
                   kind: BoundaryKind) -> SphericalBoundary:
    """Analytic boundary for a camera inside the room.

    The camera position is (translation.x, translation.z); its yaw is taken
    from the rotation's first column. The room's h_floor/h_ceil are measured
    from the camera plane, matching the pose heights produced by
    generate_scene.
    """
    return _exact_boundaries(room, pose, W, (kind,))[0]


def _exact_boundaries(room: RoomSpec, pose: CameraPose, W: int,
                      kinds) -> list[SphericalBoundary]:
    """exact_boundary of each kind, from one ray cast: the wall distances
    do not depend on the kind."""
    origin = (pose.translation[0], pose.translation[2])
    yaw = math.atan2(pose.rotation[0, 2], pose.rotation[2, 2])
    angles = wrap_longitude(column_longitudes(W) + yaw)
    d = ray_distances(room.footprint, origin, angles)
    h = {BoundaryKind.FLOOR: room.h_floor, BoundaryKind.CEILING: room.h_ceil}
    return [SphericalBoundary(kind.side * np.arctan(h[kind] / d), kind)
            for kind in kinds]


def scene_from_poses(room: RoomSpec, poses: list[CameraPose], W: int,
                     view_ids: list[str] | None = None,
                     meta: dict | None = None) -> Scene:
    """Exact-boundary scene for explicitly placed cameras."""
    if view_ids is None:
        view_ids = [f"view{i:03d}" for i in range(len(poses))]
    frames, gt = [], {}
    for vid, pose in zip(view_ids, poses):
        # A copy, not dataclasses.replace: RoomSpec bounds both heights, so
        # none of the pose's checks need to run again.
        pose = copy.copy(pose)
        pose.floor_height, pose.ceil_height = float(room.h_floor), room.h_ceil
        bf, bc = _exact_boundaries(room, pose, W,
                                   (BoundaryKind.FLOOR, BoundaryKind.CEILING))
        frames.append(ViewFrame(vid, pose, bf, bc))
        gt[vid] = {BoundaryKind.FLOOR: bf, BoundaryKind.CEILING: bc}
    return Scene(frames, W, W // 2, ground_truth=gt, meta=dict(meta or {}))


def generate_scene(room: RoomSpec, n_views: int, W: int, seed: int) -> Scene:
    """Scene with cameras sampled in the footprint's kernel, exact boundaries.

    Positions are drawn uniformly over the bounding box and rejected until
    they clear every wall line by WALL_CLEARANCE (at most
    _MAX_PLACEMENT_ATTEMPTS tries per view); yaw is uniform. Deterministic
    given (room, n_views, W, seed).
    """
    if not 1 <= n_views <= 1024:
        raise ValueError(f"n_views must lie in [1, 1024], got {n_views}")
    if not 8 <= W <= 16384:  # a 16K panorama
        raise ValueError(f"W must lie in [8, 16384], got {W}")
    poly = room.footprint
    clearance = _clearance_to(poly)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    children = np.random.SeedSequence(seed).spawn(n_views)
    poses = []
    for i in range(n_views):
        rng = np.random.default_rng(children[i])
        for _ in range(_MAX_PLACEMENT_ATTEMPTS):
            p = rng.uniform(lo, hi)
            if clearance(p) >= WALL_CLEARANCE:
                break
        else:
            raise GeometryError(
                f"could not place camera {i} with {WALL_CLEARANCE} m clearance "
                f"after {_MAX_PLACEMENT_ATTEMPTS} attempts")
        yaw = rng.uniform(-math.pi, math.pi)
        poses.append(CameraPose.from_yaw(yaw, (p[0], 0.0, p[1]),
                                         room.h_floor, room.h_ceil))
    meta = {"rng": RNG_NAME, "seed": int(seed)}
    return scene_from_poses(room, poses, W, meta=meta)


def perturb(scene: Scene, noise: NoiseSpec) -> Scene:
    """Apply i.i.d. Gaussian boundary noise, column outliers and pose noise.

    Boundary latitudes get N(0, boundary_std); with probability outlier_rate
    a column is redrawn with outlier_std instead. Translations move in the
    horizontal plane (CameraPose's ValueError beyond 1e6 m), yaw by
    pose_rot_std. Ground truth and metadata pass through, pseudo-labels are
    dropped. Deterministic given noise.seed; zero stds reproduce the scene
    exactly.
    """
    children = np.random.SeedSequence(noise.seed).spawn(len(scene.frames))
    frames = []
    for i, f in enumerate(scene.frames):
        rng = np.random.default_rng(children[i])
        new_b = {}
        for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING):
            b = f.boundary(kind)
            if b is None:
                continue
            w = b.width
            base = rng.normal(0.0, 1.0, w) * noise.boundary_std
            out_mask = rng.random(w) < noise.outlier_rate
            out = rng.normal(0.0, 1.0, w) * noise.outlier_std
            delta = np.where(out_mask, out, base)
            s = kind.side   # LAT_MIN clear of the horizon and the pole (tan blowup)
            lat = b.lat if not np.any(delta) else \
                s * np.clip(s * (b.lat + delta), LAT_MIN, math.pi / 2 - LAT_MIN)
            new_b[kind] = SphericalBoundary(lat, kind)
        dt = rng.normal(0.0, 1.0, 2) * noise.pose_trans_std
        dyaw = float(rng.normal(0.0, 1.0)) * noise.pose_rot_std
        pose = f.pose
        if dt[0] != 0.0 or dt[1] != 0.0 or dyaw != 0.0:
            rotation = CameraPose.from_yaw(dyaw).rotation @ pose.rotation
            pose = replace(pose, rotation=rotation,
                           translation=pose.translation + np.array([dt[0], 0.0, dt[1]]))
        frames.append(ViewFrame(f.view_id, pose, new_b[BoundaryKind.FLOOR],
                                new_b.get(BoundaryKind.CEILING)))
    meta = dict(scene.meta)
    meta["noise"] = {
        "boundary_std": noise.boundary_std, "outlier_rate": noise.outlier_rate,
        "outlier_std": noise.outlier_std, "pose_trans_std": noise.pose_trans_std,
        "pose_rot_std": noise.pose_rot_std, "seed": int(noise.seed),
    }
    return Scene(frames, scene.image_width, scene.image_height,
                 scene.ground_truth, None, meta)
