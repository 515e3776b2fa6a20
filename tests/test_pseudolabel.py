import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panolayout.geometry import BoundaryKind
from panolayout.pseudolabel import SIGMA_FLOOR_DEFAULT, PseudoLabel, fuse, \
    l1_loss, wbc_loss
from panolayout.reprojection import BoundaryStack, build_stack
from panolayout.synth import NoiseSpec, generate_scene, perturb, square_room

from conftest import coaxial_cylinder_scene


def stack_from(lat_rows, kind=BoundaryKind.FLOOR):
    """Stack with N views from a list of per-view latitude rows (each (W,)),
    NaN marking an invalid entry."""
    lat = np.stack([np.asarray(r, float) for r in lat_rows], axis=1)
    return BoundaryStack("t", lat, kind, [f"v{i}" for i in range(lat.shape[1])])


def reference_fuse(stack, estimator="median", sigma_floor=SIGMA_FLOOR_DEFAULT):
    """The former fuse with one nanmean pass per mean, kept as the oracle."""
    lat = np.where(stack.valid, stack.lat, np.nan)
    support = stack.valid.sum(axis=1)
    order = np.sort(lat, axis=1)
    if estimator == "median":
        idx = (support - 1) // 2
        lat_bar = np.take_along_axis(order, idx[:, None], axis=1)[:, 0]
    else:
        lat_bar = np.nanmean(order, axis=1)
    mean = np.nanmean(order, axis=1)
    var = np.nanmean((order - mean[:, None]) ** 2, axis=1)
    sigma = np.maximum(np.sqrt(var), sigma_floor)
    return PseudoLabel(lat_bar, sigma, support.astype(np.int64))


@st.composite
def fusion_cases(draw):
    """(stack, estimator, sigma_floor): finite valid entries drawn from a small
    pool (ties, signed zeros), NaN invalid entries, columns with one valid
    entry or an even count, and at times one column with none."""
    W = draw(st.integers(1, 48))
    N = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6))
                    + [-0.0, 0.0])
    lat = np.where(rng.random((W, N)) < 0.5, rng.choice(pool, (W, N)),
                   rng.uniform(-1.5, 1.5, (W, N)))
    valid = rng.random((W, N)) < draw(st.sampled_from((0.2, 0.6, 1.0)))
    for c in range(W):
        shape = rng.integers(0, 4)
        if shape == 1:                                   # single entry
            valid[c] = False
            valid[c, rng.integers(0, N)] = True
        elif shape == 2 and N >= 2:                      # even count
            k = 2 * rng.integers(1, N // 2 + 1)
            valid[c] = False
            valid[c, rng.choice(N, k, replace=False)] = True
    if draw(st.booleans()):
        valid[rng.integers(0, W)] = False                # no valid entry
    lat[~valid] = np.nan
    stack = BoundaryStack("t", lat, BoundaryKind.FLOOR, [f"v{i}" for i in range(N)])
    return stack, draw(st.sampled_from(("median", "mean"))), \
        draw(st.sampled_from((SIGMA_FLOOR_DEFAULT, 1e-12, 0.5)))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None)
@given(fusion_cases())
def test_fuse_matches_reference_bits(case):
    stack, estimator, sigma_floor = case
    # A column without valid entries makes both warn about an empty mean.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = fuse(stack, estimator, sigma_floor)
        ref = reference_fuse(stack, estimator, sigma_floor)
    assert_same_bits(got.lat_bar, ref.lat_bar)
    assert_same_bits(got.sigma, ref.sigma)
    assert_same_bits(got.support, ref.support)


class TestFuse:
    def test_three_entry_median(self):
        stack = stack_from([np.full(8, -0.30), np.full(8, -0.31),
                            np.full(8, -0.29)])
        label = fuse(stack)
        assert np.allclose(label.lat_bar, -0.30, atol=1e-15)
        expected_sigma = max(np.std([-0.30, -0.31, -0.29]), 1e-3)
        assert np.allclose(label.sigma, expected_sigma, atol=1e-12)
        assert (label.support == 3).all()

    def test_masked_outlier_is_ignored(self):
        lat = np.stack([np.full(8, -0.30)] * 3 + [np.full(8, 0.40)], axis=1)
        lat[:, 3] = np.nan  # sign-flipped entry masked upstream
        label = fuse(BoundaryStack("t", lat, BoundaryKind.FLOOR,
                                   ["a", "b", "c", "d"]))
        assert np.allclose(label.lat_bar, -0.30)
        assert (label.support == 3).all()

    def test_lower_median_for_even_counts(self):
        stack = stack_from([np.full(8, v) for v in (-0.4, -0.3, -0.2, -0.1)])
        label = fuse(stack)
        assert np.allclose(label.lat_bar, -0.3)

    def test_mean_estimator(self):
        stack = stack_from([np.full(8, v) for v in (-0.4, -0.1)])
        label = fuse(stack, estimator="mean")
        assert np.allclose(label.lat_bar, -0.25)
        with pytest.raises(ValueError):
            fuse(stack, estimator="mode")

    def test_error_decreases_with_view_count(self):
        # Monte-Carlo oracle: same room, i.i.d. boundary noise of 0.02 rad,
        # pseudo-label error averaged over 20 seeds must drop from N=3 to
        # N=9 (measured ~0.0122 -> ~0.0078).
        def mean_err(n_views, seed):
            clean = generate_scene(square_room(4.0), n_views, 128, seed=seed)
            noisy = perturb(clean, NoiseSpec(boundary_std=0.02, seed=seed + 1000))
            target = noisy.view_ids[0]
            label = fuse(build_stack(noisy, target, BoundaryKind.FLOOR))
            truth = clean.ground_truth[target][BoundaryKind.FLOOR].lat
            return float(np.mean(np.abs(label.lat_bar - truth)))

        err3 = np.mean([mean_err(3, s) for s in range(20)])
        err9 = np.mean([mean_err(9, s) for s in range(20)])
        assert err9 < err3

    def test_noise_free_coaxial_scene_recovers_truth(self):
        scene = coaxial_cylinder_scene(W=128)
        for f in scene.frames:
            label = fuse(build_stack(scene, f.view_id, BoundaryKind.FLOOR))
            truth = scene.ground_truth[f.view_id][BoundaryKind.FLOOR].lat
            assert np.max(np.abs(label.lat_bar - truth)) < 1e-12
            assert np.allclose(label.sigma, 1e-3)  # floored everywhere

    def test_permutation_invariant_over_views(self, rng):
        rows = [rng.uniform(-1.0, -0.1, 16) for _ in range(7)]
        base = fuse(stack_from(rows))
        perm = rng.permutation(7)
        shuffled = fuse(stack_from([rows[i] for i in perm]))
        assert np.array_equal(base.lat_bar, shuffled.lat_bar)
        assert np.array_equal(base.sigma, shuffled.sigma)

    def test_lat_bar_bounded_by_valid_entries(self, rng):
        for estimator in ("median", "mean"):
            rows = [rng.uniform(-1.2, -0.05, 32) for _ in range(6)]
            stack = stack_from(rows)
            label = fuse(stack, estimator=estimator)
            lo = stack.lat.min(axis=1)
            hi = stack.lat.max(axis=1)
            assert np.all(label.lat_bar >= lo - 1e-15)
            assert np.all(label.lat_bar <= hi + 1e-15)

    def test_median_robust_mean_not(self, rng):
        # Fewer than half of the entries replaced by arbitrary values: the
        # median stays inside the untouched range, the mean escapes it.
        clean = [np.full(8, v) for v in (-0.31, -0.30, -0.29, -0.28, -0.27)]
        corrupted = clean[:2] + [np.full(8, -40.0), np.full(8, -45.0)] + clean[2:]
        stack = stack_from(corrupted)
        med = fuse(stack, estimator="median")
        mean = fuse(stack, estimator="mean")
        assert np.all(med.lat_bar >= -0.31) and np.all(med.lat_bar <= -0.27)
        assert np.all(mean.lat_bar < -0.31)


class TestLosses:
    def test_zero_at_exact_match(self):
        label = PseudoLabel(np.full(8, -0.3), np.full(8, 0.01), np.full(8, 3))
        assert wbc_loss(np.full(8, -0.3), label) == 0.0
        assert l1_loss(np.full(8, -0.3), label) == 0.0

    def test_wbc_arithmetic(self):
        label = PseudoLabel(np.array([0.0, 0.0]), np.array([0.1, 0.2]),
                            np.array([2, 2]))
        assert wbc_loss(np.array([0.1, 0.2]), label) == pytest.approx(15.0)

    def test_doubling_sigma_quarters_wbc(self, rng):
        pred = rng.uniform(-1.0, -0.1, 16)
        bar = rng.uniform(-1.0, -0.1, 16)
        sigma = rng.uniform(0.01, 0.1, 16)
        l1x = wbc_loss(pred, PseudoLabel(bar, sigma, np.full(16, 3)))
        l2x = wbc_loss(pred, PseudoLabel(bar, 2 * sigma, np.full(16, 3)))
        assert l2x == pytest.approx(l1x / 4.0, rel=1e-12)

    def test_l1_arithmetic_and_unit_sigma_equivalence(self):
        label = PseudoLabel(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                            np.array([2, 2]))
        pred = np.array([0.1, 0.2])
        assert l1_loss(pred, label) == pytest.approx(0.3)
        assert wbc_loss(pred, label) == pytest.approx(l1_loss(pred, label))

    def test_length_mismatch_rejected(self):
        label = PseudoLabel(np.zeros(8), np.ones(8), np.ones(8, dtype=int))
        with pytest.raises(ValueError):
            wbc_loss(np.zeros(9), label)
        with pytest.raises(ValueError):
            l1_loss(np.zeros(9), label)

    def test_columnwise_convexity(self, rng):
        label = PseudoLabel(rng.uniform(-1, -0.1, 8), rng.uniform(0.01, 0.1, 8),
                            np.full(8, 3))
        a = rng.uniform(-1.2, -0.05, 8)
        b = rng.uniform(-1.2, -0.05, 8)
        for loss in (wbc_loss, l1_loss):
            mid = loss((a + b) / 2, label)
            assert mid <= (loss(a, label) + loss(b, label)) / 2 + 1e-12
