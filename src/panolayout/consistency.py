"""Top-view density map of projected boundaries and its entropy.

Projected boundary points are histogrammed on a U x V grid over the x-z
plane; the entropy of the normalized histogram measures how well the views
agree: tightly aligned layouts concentrate mass in few cells (low entropy),
misaligned ones smear it out (high entropy). Entropy values are only
comparable between runs histogrammed on identical grid bounds.

The histogram is counted sparsely: one np.unique over the points' flat cell
indices gives the occupied cells and their counts. density_map scatters
those into a U x V grid. density_cells lists them as (u, v, phi), and the
entropy, the PGM and the cell rows are made from that list, so CLI metric
and render-density build no U x V float array, whose memory would grow with
the grid rather than with the points: the PGM is written from one zeroed
U*V byte buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .geometry import WorldPolyline

GRID_SIZE_DEFAULT = 512
PADDING_DEFAULT = 0.05

_NORM_TOL = 1e-9


@dataclass
class DensityGrid:
    """Normalized 2D histogram over the top view.

    bins[u, v] covers x in [origin_x + u*cell, origin_x + (u+1)*cell) and
    z likewise; cell_size is one square cell edge in meters.
    """

    bins: np.ndarray
    origin: np.ndarray
    cell_size: float

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=float)
        if bins.ndim != 2 or bins.size < 4:
            raise ValueError(f"bins must be 2D with U*V >= 4, got {bins.shape}")
        if not (self.cell_size > 0.0):
            raise ValueError("cell_size must be positive")
        self.bins = bins
        self.origin = np.asarray(self.origin, dtype=float)

    @property
    def shape(self) -> tuple[int, int]:
        return self.bins.shape

    @property
    def normalized(self) -> bool:
        return abs(float(self.bins.sum()) - 1.0) <= _NORM_TOL


def data_bounds(polylines: list[WorldPolyline]):
    """(xmin, xmax, zmin, zmax) over all polyline points, unpadded."""
    if not polylines:
        raise ValueError("need at least one polyline")
    pts = np.concatenate([p.points for p in polylines], axis=0)
    return (float(pts[:, 0].min()), float(pts[:, 0].max()),
            float(pts[:, 2].min()), float(pts[:, 2].max()))


def union_bounds(*bounds):
    """Union of (xmin, xmax, zmin, zmax) tuples, for comparable entropies."""
    b = np.asarray(bounds, dtype=float)
    return (float(b[:, 0].min()), float(b[:, 1].max()),
            float(b[:, 2].min()), float(b[:, 3].max()))


def check_grid(U: int, V: int, padding: float) -> None:
    """Raise ValueError unless density_map accepts this grid and padding."""
    if not (2 <= U <= 4096 and 2 <= V <= 4096):  # 4096^2 cells: 134 MB a map
        raise ValueError(f"grid sides must lie in [2, 4096], got {U}x{V}")
    if not 0.0 <= padding <= 1e6:  # wider ones can overflow the span to inf
        raise ValueError(f"padding must lie in [0, 1e6], got {padding!r}")


def _cell_counts(polylines: list[WorldPolyline], U: int, V: int, padding: float,
                 bounds):
    """(cells, counts, origin, cell) of density_map's grid, without the grid.

    cells holds the occupied flat cell indices u * V + v in increasing order
    and counts the points in each; origin and cell are the grid's.
    """
    check_grid(U, V, padding)
    if not polylines:
        raise ValueError("need at least one polyline")
    pts = np.concatenate([p.points for p in polylines], axis=0)
    x, z = pts[:, 0], pts[:, 2]
    if bounds is None:
        bounds = data_bounds(polylines)
    xmin, xmax, zmin, zmax = bounds
    pad_x, pad_z = padding * (xmax - xmin), padding * (zmax - zmin)
    span_x = (xmax - xmin) * (1.0 + 2.0 * padding)
    span_z = (zmax - zmin) * (1.0 + 2.0 * padding)
    cell = max(span_x / U, span_z / V)
    if cell <= 0.0:
        cell = 1.0
    ox = 0.5 * (xmin + xmax) - 0.5 * U * cell
    oz = 0.5 * (zmin + zmax) - 0.5 * V * cell
    # Points exactly on the far grid edge belong to the last cell. The
    # centred origin can round past the padded box, so a point inside that
    # box counts too, clamped into the edge cell.
    inside = (((x >= ox) & (x <= ox + U * cell)
               | (x >= xmin - pad_x) & (x <= xmax + pad_x))
              & ((z >= oz) & (z <= oz + V * cell)
                 | (z >= zmin - pad_z) & (z <= zmax + pad_z)))
    iu = np.clip(np.floor((x[inside] - ox) / cell).astype(np.int64), 0, U - 1)
    iv = np.clip(np.floor((z[inside] - oz) / cell).astype(np.int64), 0, V - 1)
    cells, counts = np.unique(iu * V + iv, return_counts=True)
    return cells, counts, np.array([ox, oz]), cell


def density_map(polylines: list[WorldPolyline], U: int = GRID_SIZE_DEFAULT,
                V: int = GRID_SIZE_DEFAULT, padding: float = PADDING_DEFAULT,
                bounds=None) -> DensityGrid:
    """Histogram all polyline points (x, z) on a U x V grid, normalized to 1.

    The grid covers the data bounding box (or explicit `bounds`) expanded by
    `padding` on each side, with square cells sized to the larger padded
    span and centered on the box. Floor and ceiling polylines both
    contribute; restrict the input list for floor-only maps. A degenerate
    (single-point) extent collapses into one occupied cell.
    """
    cells, counts, origin, cell = _cell_counts(polylines, U, V, padding, bounds)
    bins = np.zeros(U * V)
    if cells.size:
        bins[cells] = counts / int(counts.sum())
    return DensityGrid(bins.reshape(U, V), origin, cell)


def cell_entropy(phi: np.ndarray) -> float:
    """Entropy (nats) of the positive cell masses phi, summed in their order."""
    return float(np.sum(-phi * np.log(phi)))


def mlc_entropy(grid: DensityGrid) -> float:
    """Entropy (nats) of the normalized density grid, with 0*ln(0) := 0."""
    if not grid.normalized:
        raise MetricError("density grid is not normalized")
    return cell_entropy(grid.bins[grid.bins > 0.0])


def density_cells(polylines: list[WorldPolyline], U: int = GRID_SIZE_DEFAULT,
                  V: int = GRID_SIZE_DEFAULT, padding: float = PADDING_DEFAULT,
                  bounds=None):
    """(u, v, phi) of density_map(...)'s occupied cells, without the grid.

    u and v are int arrays and phi equals bins[u, v] bit for bit, in the
    order np.nonzero(bins > 0) lists the cells. An empty histogram, which no
    grid can normalize, raises MetricError.
    """
    cells, counts, _, _ = _cell_counts(polylines, U, V, padding, bounds)
    if not counts.size:
        raise MetricError("density grid is not normalized")
    u, v = np.divmod(cells, V)
    return u, v, counts / int(counts.sum())


def density_entropy(polylines: list[WorldPolyline], U: int = GRID_SIZE_DEFAULT,
                    V: int = GRID_SIZE_DEFAULT, padding: float = PADDING_DEFAULT,
                    bounds=None) -> float:
    """mlc_entropy(density_map(...)) bit for bit, without a U x V array.

    The occupied cells come in the order that the grid's bins > 0 lists
    them, so the same terms are summed in the same order.
    """
    return cell_entropy(density_cells(polylines, U, V, padding, bounds)[2])


def write_density_pgm(path, U: int, V: int, u: np.ndarray, v: np.ndarray,
                      phi: np.ndarray) -> None:
    """Write cells (u, v) of mass phi on a U x V grid as an 8-bit binary PGM.

    Each cell's value is floor(255 * phi / peak + 0.5), peak being the
    largest phi; cells not listed are 0. Image rows are the V axis (z),
    columns the U axis (x), so cell (u, v) is byte v * U + u of the image.
    """
    img = np.zeros(U * V, dtype=np.uint8)
    img[v * U + u] = np.floor(255.0 * phi / float(phi.max()) + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{U} {V}\n255\n".encode("ascii"))
        f.write(img)  # the buffer itself: no bytes copy

