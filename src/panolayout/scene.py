"""Scene container: a set of views registered in one world frame."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import SceneFormatError
from .geometry import BoundaryKind, CameraPose, SphericalBoundary, WorldPolyline, \
    boundary_to_world, ceiling_height


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

    ground_truth, when present, mirrors the frames' boundaries (same ids).
    pseudo_labels maps view id to a fused label produced by pseudolabel.fuse.
    """

    frames: list[ViewFrame]
    image_width: int
    image_height: int
    ground_truth: dict[str, dict[BoundaryKind, SphericalBoundary]] | None = None
    pseudo_labels: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.frames:
            raise SceneFormatError("scene has no frames")
        ids = [f.view_id for f in self.frames]
        if len(set(ids)) != len(ids):
            raise SceneFormatError("duplicate view ids in scene")
        for f in self.frames:
            for b in (f.boundary_floor, f.boundary_ceiling):
                if b is not None and b.width != self.image_width:
                    raise SceneFormatError(
                        f"view {f.view_id!r}: boundary width {b.width} != "
                        f"image_width {self.image_width}")

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
                             frame.pose.floor_height)
        return replace(frame.pose, ceil_height=h_c)

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
