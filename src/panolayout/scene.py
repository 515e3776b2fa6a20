"""Scene container: a set of views registered in one world frame.

Scene and CameraPose own every rule about a scene's values, so a scene built
in Python obeys the same rules as one loaded from a file: save_scene never
gets a scene that load_scene would reject. sceneio checks only what concerns
the JSON document itself.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import SceneFormatError
from .geometry import BoundaryKind, CameraPose, SphericalBoundary, WorldPolyline, \
    boundary_to_world, ceiling_height


def check_image_size(W, H) -> None:
    """Raise SceneFormatError unless W is an int >= 8 and H an int in [1, W]."""
    if not (type(W) is int and W >= 8):
        raise SceneFormatError("image_width must be an int >= 8")
    # Equirectangular panoramas are W/2 tall; evaluate allocates H-long rows.
    if not (type(H) is int and 1 <= H <= W):
        raise SceneFormatError("image_height must be an int in [1, image_width]")


_CONTROL = re.compile("[\x00-\x1f]")


def has_control(s: str) -> bool:
    """Whether s holds a control character, which no scene string may."""
    return _CONTROL.search(s) is not None


@dataclass
class ViewFrame:
    view_id: str
    pose: CameraPose
    boundary_floor: SphericalBoundary
    boundary_ceiling: SphericalBoundary | None = None

    def boundary(self, kind: BoundaryKind) -> SphericalBoundary | None:
        if kind == BoundaryKind.FLOOR:
            return self.boundary_floor
        return self.boundary_ceiling


@dataclass
class Scene:
    """Registered views sharing one world coordinate system.

    ground_truth maps view ids to their true boundaries, pseudo_labels maps
    view ids to labels produced by pseudolabel.fuse; every id names a frame.
    Construction raises SceneFormatError unless check_image_size passes,
    frame ids are distinct non-empty strings without control characters,
    every frame and ground-truth entry has a floor boundary and each boundary
    is of its kind and image_width columns, every pseudo-label array is
    image_width long with finite lat_bar and sigma and support counts that
    are whole and in [0, frames], and meta is a dict with str keys whose
    values are dicts, lists, tuples, strs, bools, None, finite floats or ints
    that str() can write, no string (keys included) holding a control
    character. It reads each pseudo-label array once and no boundary array
    (their values are SphericalBoundary's to check), plus a walk over meta.
    """

    frames: list[ViewFrame]
    image_width: int
    image_height: int
    ground_truth: dict[str, dict[BoundaryKind, SphericalBoundary]] | None = None
    pseudo_labels: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        W = self.image_width
        check_image_size(W, self.image_height)
        if not self.frames:
            raise SceneFormatError("scene has no frames")
        for f in self.frames:
            vid = f.view_id
            if not (isinstance(vid, str) and vid) or has_control(vid):
                raise SceneFormatError(f"frame id {vid!r}: must be a non-empty "
                                       f"string, control characters not allowed")
            self._check_boundaries(f"frame {vid!r}", f.boundary)
        ids = set(self.view_ids)
        if len(ids) != len(self.frames):
            raise SceneFormatError("duplicate view ids in scene")
        for key in ("ground_truth", "pseudo_labels"):
            for vid in getattr(self, key) or ():
                if vid not in ids:
                    raise SceneFormatError(f"{key} {vid!r}: names no frame")
        for vid, gt in (self.ground_truth or {}).items():
            self._check_boundaries(f"ground_truth {vid!r}", gt.get)
        for vid, pl in (self.pseudo_labels or {}).items():
            if any(np.shape(a) != (W,) for a in (pl.lat_bar, pl.sigma, pl.support)):
                raise SceneFormatError(
                    f"pseudo_labels {vid!r}: arrays must have length {W}")
            if not (np.isfinite(pl.lat_bar).all() and np.isfinite(pl.sigma).all()):
                raise SceneFormatError(
                    f"pseudo_labels {vid!r}: lat_bar and sigma must be finite")
            s = pl.support
            if not np.all((s >= 0) & (s <= len(self.frames)) & (s == np.floor(s))):
                raise SceneFormatError(
                    f"pseudo_labels {vid!r}: support must be whole view counts")
        if not isinstance(self.meta, dict):
            raise SceneFormatError("meta must be a JSON object")
        stack = [self.meta]
        while stack:
            v = stack.pop()
            if isinstance(v, dict):
                if not all(isinstance(k, str) for k in v):
                    raise SceneFormatError("meta: keys must be strings")
                stack += [*v.keys(), *v.values()]
            elif isinstance(v, (list, tuple)):
                stack += v
            elif not (v is None or isinstance(v, (str, float, int))):   # bool is an int
                raise SceneFormatError(f"meta: type {type(v).__name__} has no JSON form")
            # NaN, Infinity and 1e999 load as floats that no scene file can hold.
            elif (isinstance(v, str) and has_control(v)
                  or isinstance(v, float) and not math.isfinite(v)):
                raise SceneFormatError(f"meta: {v!r}: control characters are not "
                                       f"allowed in strings, numbers must be finite")
            elif isinstance(v, int):
                try:
                    str(v)
                except ValueError:   # beyond the interpreter's int digit limit
                    raise SceneFormatError("meta: an int too long to write") from None

    def _check_boundaries(self, what: str, boundary) -> None:
        """boundary(kind) for each kind: the floor present, each one present
        of that kind and image_width columns wide."""
        if boundary(BoundaryKind.FLOOR) is None:
            raise SceneFormatError(f"{what}: boundary_floor is required")
        for kind in BoundaryKind:
            b = boundary(kind)
            if b is not None and (b.kind is not kind or b.width != self.image_width):
                raise SceneFormatError(f"{what}: boundary_{kind.value} must be a "
                                       f"{kind.value} boundary of image_width columns")

    @property
    def view_ids(self) -> list[str]:
        return [f.view_id for f in self.frames]

    def frame(self, view_id: str) -> ViewFrame:
        for f in self.frames:
            if f.view_id == view_id:
                return f
        raise KeyError(f"view {view_id!r} not in scene")

    def view_ground_truth(self, view_id: str) -> dict[BoundaryKind, SphericalBoundary]:
        """One view's ground-truth boundaries; ValueError when it has none."""
        gt = (self.ground_truth or {}).get(view_id)
        if gt is None:
            raise ValueError(f"no ground truth for view {view_id!r}")
        return gt

    def kinds(self) -> list[BoundaryKind]:
        """Boundary kinds present in every frame."""
        ks = [BoundaryKind.FLOOR]
        if all(f.boundary_ceiling is not None for f in self.frames):
            ks.append(BoundaryKind.CEILING)
        return ks

    def resolved_pose(self, frame: ViewFrame, kind: BoundaryKind) -> CameraPose:
        """Pose with the ceiling height derived from the frame's current
        boundaries; floor projections use the pose as-is."""
        if kind == BoundaryKind.FLOOR:
            return frame.pose
        if frame.boundary_ceiling is None:
            raise SceneFormatError(f"view {frame.view_id!r} has no ceiling boundary")
        h_c = ceiling_height(frame.boundary_floor, frame.boundary_ceiling,
                             frame.pose.floor_height)   # positive and finite
        # A copy, not dataclasses.replace: the pose's rules already hold, and
        # re-checking its rotation on every lift costs more than the copy.
        pose = copy.copy(frame.pose)
        pose.ceil_height = h_c
        return pose

    def world_polylines(self, kinds: tuple[BoundaryKind, ...] = (
                            BoundaryKind.FLOOR, BoundaryKind.CEILING),
                        view_ids: list[str] | None = None) -> list[WorldPolyline]:
        """Lift the selected views' boundaries of the given kinds to world
        coordinates, frame by frame and in `kinds` order within a frame.

        Each kind is projected with resolved_pose; frames lacking a kind are
        skipped for it. This is the package's one scene-to-world lift.
        """
        frames = self.frames if view_ids is None else [self.frame(v) for v in view_ids]
        return [boundary_to_world(f.boundary(k), self.resolved_pose(f, k), f.view_id)
                for f in frames for k in kinds if f.boundary(k) is not None]

    def with_boundaries(self, boundaries: dict[str, dict[BoundaryKind, SphericalBoundary]]) -> "Scene":
        """Copy with some frames' boundaries replaced, stale pseudo-labels dropped."""
        frames = []
        for f in self.frames:
            upd = boundaries.get(f.view_id)
            if upd is None:
                frames.append(f)
                continue
            frames.append(ViewFrame(
                f.view_id, f.pose,
                upd.get(BoundaryKind.FLOOR, f.boundary_floor),
                upd.get(BoundaryKind.CEILING, f.boundary_ceiling)))
        return Scene(frames, self.image_width, self.image_height,
                     self.ground_truth, None, dict(self.meta))
