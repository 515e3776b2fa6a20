"""Multi-view consistency toolkit for 360-panorama room-layout boundaries.

Core pieces: spherical projection of per-column layout boundaries
(geometry), cross-view re-projection and stacking (reprojection),
median/uncertainty pseudo-label fusion and consistency losses
(pseudolabel), the top-view entropy metric (consistency), standard layout
metrics (evaluation), synthetic scenes with exact boundaries (synth), and a
consensus-refinement loop with entropy-based early stopping (selftrain).
"""

from .consistency import DensityGrid, data_bounds, density_entropy, density_map, \
    mlc_entropy, union_bounds
from .errors import CoverageError, GeometryError, LayoutError, MetricError, \
    SceneFormatError
from .evaluation import LayoutEvalReport, depth_metrics, evaluate_scene, \
    floor_polygon, footprint_ious, iou2d, iou3d, layout_depth
from .geometry import BoundaryKind, CameraPose, SphericalBoundary, WorldPolyline, \
    boundary_to_world, ceiling_height, column_longitudes, pixel_to_spherical, \
    world_to_boundary_samples
from .pseudolabel import PseudoLabel, fuse, l1_loss, wbc_loss
from .reprojection import BoundaryStack, build_stack, build_stacks, \
    resample_to_columns
from .scene import Scene, ViewFrame
from .sceneio import load_scene, save_scene
from .selftrain import TrainConfig, TrainTrajectory, run, self_train_step
from .synth import NoiseSpec, RoomSpec, generate_scene, lshape_room, ngon_room, \
    perturb, scene_from_poses, square_room

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind", "BoundaryStack", "CameraPose", "CoverageError",
    "DensityGrid", "GeometryError", "LayoutError", "LayoutEvalReport",
    "MetricError", "NoiseSpec", "PseudoLabel", "RoomSpec", "Scene",
    "SceneFormatError", "SphericalBoundary", "TrainConfig", "TrainTrajectory",
    "ViewFrame", "WorldPolyline", "boundary_to_world", "build_stack",
    "build_stacks", "ceiling_height", "column_longitudes", "data_bounds",
    "density_entropy", "density_map", "depth_metrics", "evaluate_scene",
    "floor_polygon", "footprint_ious", "fuse", "generate_scene", "iou2d",
    "iou3d", "l1_loss", "layout_depth", "load_scene", "lshape_room",
    "mlc_entropy", "ngon_room", "perturb", "pixel_to_spherical",
    "resample_to_columns", "run", "save_scene",
    "scene_from_poses", "self_train_step", "square_room", "union_bounds",
    "wbc_loss", "world_to_boundary_samples",
]
