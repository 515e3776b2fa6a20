import contextlib
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import cli
from panolayout.consistency import DensityGrid, cell_entropy, \
    check_grid, data_bounds, density_cells, density_entropy, density_map, \
    mlc_entropy, union_bounds, write_density_pgm
from panolayout.errors import MetricError
from panolayout.geometry import BoundaryKind, CameraPose, WorldPolyline
from panolayout.sceneio import format_float, load_scene, save_scene, \
    write_density_csv
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, ngon_room, \
    perturb, scene_from_poses, square_room

from conftest import rotation_about_y


def poly_from_xz(xz, y=1.6):
    xz = np.asarray(xz, float)
    pts = np.stack([xz[:, 0], np.full(len(xz), y), xz[:, 1]], axis=1)
    return WorldPolyline(pts, "p", BoundaryKind.FLOOR)


def reference_density_map(polylines, U, V, padding, bounds=None):
    """density_map as a dense np.add.at scatter into a U x V count grid.

    Returns (grid, number of points counted). A point counts when it lies in
    the grid or in the padded bounds box, with its cell clamped into range.
    """
    check_grid(U, V, padding)
    pts = np.concatenate([p.points for p in polylines], axis=0)
    x, z = pts[:, 0], pts[:, 2]
    xmin, xmax, zmin, zmax = data_bounds(polylines) if bounds is None else bounds
    span_x = (xmax - xmin) * (1.0 + 2.0 * padding)
    span_z = (zmax - zmin) * (1.0 + 2.0 * padding)
    cell = max(span_x / U, span_z / V)
    if cell <= 0.0:
        cell = 1.0
    ox = 0.5 * (xmin + xmax) - 0.5 * U * cell
    oz = 0.5 * (zmin + zmax) - 0.5 * V * cell
    pad_x, pad_z = padding * (xmax - xmin), padding * (zmax - zmin)
    in_x = ((x >= ox) & (x <= ox + U * cell)) | ((x >= xmin - pad_x) & (x <= xmax + pad_x))
    in_z = ((z >= oz) & (z <= oz + V * cell)) | ((z >= zmin - pad_z) & (z <= zmax + pad_z))
    inside = in_x & in_z
    # Only points inside are cast: outside ones may be far more cells away
    # than int64 holds when the bounds box is denormal-thin.
    iu = np.clip(np.floor((x[inside] - ox) / cell).astype(np.int64), 0, U - 1)
    iv = np.clip(np.floor((z[inside] - oz) / cell).astype(np.int64), 0, V - 1)
    counts = np.zeros((U, V), dtype=np.int64)
    np.add.at(counts, (iu, iv), 1)
    total = int(counts.sum())
    bins = counts / total if total > 0 else counts.astype(float)
    return DensityGrid(bins, np.array([ox, oz]), cell), total


_XZ = st.floats(-50.0, 50.0)
_POLYS = st.lists(st.lists(st.tuples(_XZ, _XZ), min_size=1, max_size=60),
                  min_size=1, max_size=4)
_BOUNDS = st.none() | st.tuples(_XZ, _XZ, _XZ, _XZ).map(
    lambda b: (min(b[0], b[1]), max(b[0], b[1]), min(b[2], b[3]), max(b[2], b[3])))


class TestDensityMap:
    def test_single_point(self):
        grid = density_map([poly_from_xz([[0.3, -0.2]] * 4)], 8, 8)
        assert grid.bins.sum() == pytest.approx(1.0)
        assert (grid.bins > 0).sum() == 1
        assert grid.bins.max() == pytest.approx(1.0)

    def test_four_points_four_cells(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        grid = density_map([poly_from_xz(pts)], 4, 4, padding=0.0)
        vals = np.sort(grid.bins[grid.bins > 0])
        assert len(vals) == 4
        assert np.allclose(vals, 0.25)

    def test_square_ring_occupancy(self):
        # Noise-free square scene: every occupied cell must lie on the
        # analytic wall ring; near-center cameras sample the perimeter
        # densely enough to cover >= 90% of it (measured 96.9%).
        room = square_room(4.0)
        poses = [CameraPose(rotation_about_y(y), np.array([x, 0.0, z]))
                 for x, z, y in [(0.0, 0.0, 0.1), (0.3, -0.2, 1.0),
                                 (-0.25, 0.35, -2.0), (0.1, 0.2, 2.5),
                                 (-0.3, -0.3, 0.7)]]
        scene = scene_from_poses(room, poses, 1024)
        grid = density_map(scene.world_polylines(), 512, 512)
        t = np.linspace(0, 1, 400000, endpoint=False)
        fp = room.footprint
        per = np.concatenate([fp[i] + t[:, None] * (fp[(i + 1) % 4] - fp[i])
                              for i in range(4)])
        iu = np.floor((per[:, 0] - grid.origin[0]) / grid.cell_size).astype(int)
        iv = np.floor((per[:, 1] - grid.origin[1]) / grid.cell_size).astype(int)
        ring = set(zip(iu.tolist(), iv.tolist()))
        occ = set(map(tuple, np.argwhere(grid.bins > 0).tolist()))
        assert occ <= ring
        assert len(occ & ring) / len(ring) >= 0.9

    def test_duplicate_polyline_is_invariant(self, rng):
        polys = [poly_from_xz(rng.uniform(-2, 2, (64, 2)))]
        g1 = density_map(polys, 32, 32)
        g2 = density_map(polys + polys, 32, 32)
        assert np.array_equal(g1.bins, g2.bins)
        assert mlc_entropy(g1) == mlc_entropy(g2)

    def test_explicit_bounds_drop_outside_points(self):
        inside = poly_from_xz([[0.5, 0.5]] * 4)
        outside = poly_from_xz([[10.0, 10.0]] * 4)
        grid = density_map([inside, outside], 8, 8, padding=0.0,
                           bounds=(0.0, 1.0, 0.0, 1.0))
        assert grid.bins.sum() == pytest.approx(1.0)
        assert (grid.bins > 0).sum() == 1

    def test_degenerate_bbox_single_cell(self):
        grid = density_map([poly_from_xz([[2.0, 3.0]] * 8)], 4, 4)
        assert (grid.bins > 0).sum() == 1
        assert grid.cell_size > 0

    def test_requires_polylines(self):
        with pytest.raises(ValueError):
            density_map([], 8, 8)


class TestSparseCounts:
    @settings(max_examples=300, deadline=None)
    @given(_POLYS, st.integers(2, 512), st.integers(2, 512),
           st.sampled_from((0.0, 0.05, 1.0)), _BOUNDS)
    @example([[(0.0, 0.0), (0.0, 24.857846386489907)]], 2, 3, 0.0, None)
    @example([[(0.0, 0.0), (60.0, 60.0)]], 512, 512, 0.05, (0.0, 1.0, 0.0, 1.0))
    @example([[(1.0, 0.0)]], 2, 2, 0.0, (0.0, 0.0, 0.0, 3.1963473829453225e-209))
    def test_matches_dense_reference_bit_for_bit(self, polys, U, V, padding,
                                                 bounds):
        polylines = [poly_from_xz(p) for p in polys]
        ref, counted = reference_density_map(polylines, U, V, padding, bounds)
        grid = density_map(polylines, U, V, padding, bounds=bounds)
        assert grid.bins.tobytes() == ref.bins.tobytes()
        assert grid.origin.tobytes() == ref.origin.tobytes()
        assert grid.cell_size == ref.cell_size
        if bounds is None:  # every point lies in its own padded bounds box
            assert counted == sum(len(p) for p in polys)
        if counted:
            h = density_entropy(polylines, U, V, padding, bounds=bounds)
            assert h.hex() == mlc_entropy(grid).hex()
        else:
            with pytest.raises(MetricError):
                density_entropy(polylines, U, V, padding, bounds=bounds)
            with pytest.raises(MetricError):
                mlc_entropy(grid)

    def test_scene_entropy_matches_grid_entropy(self):
        scene = perturb(generate_scene(square_room(4.0), 6, 256, seed=2),
                        NoiseSpec(boundary_std=0.03, seed=3))
        polys = scene.world_polylines()
        bounds = data_bounds(polys[:3])
        for kw in ({}, {"bounds": bounds}, {"padding": 0.0}):
            assert density_entropy(polys, **kw) == \
                mlc_entropy(density_map(polys, **kw))


class TestEntropy:
    def test_single_cell_zero(self):
        grid = density_map([poly_from_xz([[0.0, 0.0]] * 4)], 8, 8)
        assert mlc_entropy(grid) == 0.0

    def test_uniform_k_is_ln_k_exact(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        grid = density_map([poly_from_xz(pts)], 4, 4, padding=0.0)
        assert mlc_entropy(grid) == math.log(4.0)
        bins = np.zeros((4, 4))
        bins.flat[:16] = 1 / 16
        assert mlc_entropy(DensityGrid(bins, np.zeros(2), 1.0)) == math.log(16.0)

    def test_bounds_and_cell_permutation_invariance(self, rng):
        for _ in range(10):
            U, V = int(rng.integers(2, 16)), int(rng.integers(2, 16))
            raw = rng.random((U, V)) * (rng.random((U, V)) < 0.5)
            if raw.sum() == 0:
                raw[0, 0] = 1.0
            bins = raw / raw.sum()
            grid = DensityGrid(bins, np.zeros(2), 0.1)
            h = mlc_entropy(grid)
            assert 0.0 <= h <= math.log(U * V) + 1e-12
            shuffled = rng.permutation(bins.reshape(-1)).reshape(U, V)
            assert mlc_entropy(DensityGrid(shuffled, np.zeros(2), 0.1)) \
                == pytest.approx(h, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.floats(-50.0, 50.0),
                                       st.floats(-50.0, 50.0)),
                             min_size=1, max_size=60), min_size=1, max_size=4),
           st.integers(2, 64), st.integers(2, 64), st.sampled_from((0.0, 0.05, 1.0)))
    @example([[(0.0, 0.0), (0.0, 24.857846386489907)]], 2, 3, 0.0)
    def test_entropy_within_bounds_for_random_polylines(self, polys, U, V,
                                                        padding):
        grid = density_map([poly_from_xz(p) for p in polys], U, V, padding)
        h = mlc_entropy(grid)
        # 1e-12 absorbs summation rounding at a uniform grid, where H = ln k.
        assert 0.0 <= h <= math.log(U * V) + 1e-12
        assert h <= math.log(np.count_nonzero(grid.bins)) + 1e-12

    def test_unnormalized_grid_rejected(self):
        grid = DensityGrid(np.full((4, 4), 0.25), np.zeros(2), 1.0)
        with pytest.raises(MetricError):
            mlc_entropy(grid)

    def test_noise_increases_entropy(self):
        # Fixed union bounds across noise levels; 10-seed means must be
        # strictly ordered (measured 6.23 / 7.42 / 7.85).
        room = square_room(4.0)
        levels = (0.0, 0.01, 0.05)
        sums = {lv: 0.0 for lv in levels}
        for seed in range(10):
            base = generate_scene(room, 6, 256, seed=seed)
            scenes = {lv: base if lv == 0 else
                      perturb(base, NoiseSpec(boundary_std=lv, seed=seed + 500))
                      for lv in levels}
            bounds = union_bounds(*[data_bounds(s.world_polylines())
                                    for s in scenes.values()])
            for lv, s in scenes.items():
                g = density_map(s.world_polylines(), 512, 512, bounds=bounds)
                sums[lv] += mlc_entropy(g)
        assert sums[0.0] < sums[0.01] < sums[0.05]

    def test_model_selection_ordering(self):
        # The early-stopping comparison: clean boundaries always win on a
        # shared grid.
        base = generate_scene(square_room(4.0), 5, 256, seed=42)
        noisy = perturb(base, NoiseSpec(boundary_std=0.05, seed=43))
        bounds = union_bounds(data_bounds(base.world_polylines()),
                              data_bounds(noisy.world_polylines()))
        h_clean = mlc_entropy(density_map(base.world_polylines(), bounds=bounds))
        h_noisy = mlc_entropy(density_map(noisy.world_polylines(), bounds=bounds))
        assert h_clean < h_noisy


class TestRenderDensity:
    def test_single_cell_golden_bytes(self, tmp_path):
        path = tmp_path / "single.pgm"
        write_density_pgm(path, 4, 4, np.array([1]), np.array([2]), np.array([1.0]))
        payload = bytearray(16)
        payload[2 * 4 + 1] = 255  # row v=2, column u=1
        assert path.read_bytes() == b"P5\n4 4\n255\n" + bytes(payload)

    def test_uniform_grid_all_white(self, tmp_path):
        path = tmp_path / "uniform.pgm"
        write_density_pgm(path, 2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                          np.full(4, 0.25))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + b"\xff" * 4

    def test_deterministic_bytes(self, tmp_path):
        scene = generate_scene(square_room(4.0), 4, 128, seed=9)
        cells = density_cells(scene.world_polylines(), 64, 64)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_density_pgm(p1, 64, 64, *cells)
        write_density_pgm(p2, 64, 64, *cells)
        assert p1.read_bytes() == p2.read_bytes()


def dense_render_density(grid, path):
    """The former render_density, which scaled and transposed the whole grid,
    kept as the oracle."""
    if not grid.normalized:
        raise MetricError("density grid is not normalized")
    peak = float(grid.bins.max())
    img = np.floor(255.0 * grid.bins / peak + 0.5).astype(np.uint8)
    U, V = grid.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{U} {V}\n255\n".encode("ascii"))
        f.write(img.T.tobytes(order="C"))


def dense_occupied_cells(grid):
    """The former occupied_cells, kept as the oracle."""
    u, v = np.nonzero(grid.bins > 0.0)
    return np.stack([u.astype(float), v.astype(float), grid.bins[u, v]], axis=1)


def dense_metric(polylines, U, V, padding, out_map, out, bounds=None):
    """The former CLI metric --out-map --out, from a U x V grid, kept as the
    oracle. Returns its stdout line."""
    grid = density_map(polylines, U, V, padding, bounds)
    h = mlc_entropy(grid)
    dense_render_density(grid, out_map)
    write_density_csv(*dense_occupied_cells(grid).T, out)
    return f"H_MLC={format_float(h)}\n"


def _bytes(*paths):
    return [Path(p).read_bytes() for p in paths]


class TestOutputsFromOccupiedCells:
    """H_MLC, the PGM and the cell CSV from density_cells equal the dense
    grid's bytes."""

    @settings(max_examples=200, deadline=None)
    @given(_POLYS, st.integers(2, 300), st.integers(2, 300),
           st.sampled_from((0.0, 0.05, 1.0)), _BOUNDS)
    @example([[(2.0, 3.0)]], 7, 3, 0.05, None)                  # one point
    @example([[(2.0, 3.0), (2.0, 3.0)], [(2.0, 3.0)]], 2, 2, 0.0, None)
    @example([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]], 5, 2, 0.0,
             None)                                              # far edges
    @example([[(0.0, 0.0), (0.0, 24.857846386489907)]], 2, 3, 0.0, None)
    @example([[(0.0, 0.0)], [(-3.0, 4.0)]], 3, 4, 0.0, (0.0, 1.0, 0.0, 1.0))
    @example([[(5.0, 5.0)]], 4, 4, 0.0, (0.0, 1.0, 0.0, 1.0))   # empty
    def test_library_path_matches_dense_oracle(self, polys, U, V, padding, bounds):
        polylines = [poly_from_xz(p) for p in polys]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            try:
                expected = dense_metric(polylines, U, V, padding, d / "a.pgm",
                                        d / "a.csv", bounds)
            except MetricError:
                with pytest.raises(MetricError):
                    density_cells(polylines, U, V, padding, bounds)
                return
            u, v, phi = density_cells(polylines, U, V, padding, bounds)
            write_density_pgm(d / "b.pgm", U, V, u, v, phi)
            write_density_csv(u, v, phi, d / "b.csv")
            assert f"H_MLC={format_float(cell_entropy(phi))}\n" == expected
            assert _bytes(d / "b.pgm", d / "b.csv") == \
                _bytes(d / "a.pgm", d / "a.csv")
            grid = density_map(polylines, U, V, padding, bounds)
            u_d, v_d, phi_d = dense_occupied_cells(grid).T
            assert np.array_equal(u, u_d) and np.array_equal(v, v_d)
            assert phi.tobytes() == phi_d.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((square_room(4.0), lshape_room(4.0), ngon_room(7, 2.0))),
           st.integers(1, 5), st.integers(0, 2 ** 16),
           st.tuples(st.integers(2, 300), st.integers(2, 300)),
           st.sampled_from((0.0, 0.05, 0.3)), st.booleans())
    def test_cli_matches_dense_oracle(self, room, n, seed, grid, padding,
                                      floor_only):
        scene = perturb(generate_scene(room, n, 64, seed=seed),
                        NoiseSpec(boundary_std=0.03, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            save_scene(scene, d / "s.json")
            flags = ["--scene", str(d / "s.json"), "--grid", *map(str, grid),
                     "--padding", str(padding)] + ["--floor-only"] * floor_only
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["metric", *flags, "--out-map", str(d / "m.pgm"),
                                 "--out", str(d / "m.csv")]) == 0
                assert cli.main(["render-density", *flags,
                                 "--out", str(d / "r.pgm")]) == 0
            loaded = load_scene(d / "s.json")
            polys = loaded.world_polylines((BoundaryKind.FLOOR,)) if floor_only \
                else loaded.world_polylines()
            assert out.getvalue() == dense_metric(polys, *grid, padding,
                                                  d / "a.pgm", d / "a.csv")
            assert _bytes(d / "m.pgm", d / "m.csv", d / "r.pgm") == \
                _bytes(d / "a.pgm", d / "a.csv", d / "a.pgm")

    def test_metric_at_largest_grid_builds_no_float_grid(self, tmp_path):
        # A dense 4096 x 4096 grid and its rendering peaked at 384 MB traced.
        path = tmp_path / "s.json"
        save_scene(generate_scene(square_room(4.0), 5, 256, seed=7), path)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(["metric", "--scene", str(path), "--grid", "4096",
                               "4096", "--out-map", str(tmp_path / "m.pgm"),
                               "--out", str(tmp_path / "m.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and out.getvalue().startswith("H_MLC=")
        assert peak < 40 * 2 ** 20
        assert (tmp_path / "m.pgm").stat().st_size == len(b"P5\n4096 4096\n255\n") \
            + 4096 * 4096
