"""Fusing boundary stacks into pseudo-labels and the consistency losses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reprojection import BoundaryStack

SIGMA_FLOOR_DEFAULT = 1e-3

ESTIMATORS = ("median", "mean")


@dataclass
class PseudoLabel:
    """Fused per-column boundary with its uncertainty.

    lat_bar: (W,) fused latitude; sigma: (W,) spread, floored at sigma_floor;
    support: (W,) count of valid stack entries used per column.
    """

    lat_bar: np.ndarray
    sigma: np.ndarray
    support: np.ndarray

    @property
    def width(self) -> int:
        return self.lat_bar.shape[0]


def check_fusion(estimator: str, sigma_floor: float) -> None:
    """Raise ValueError unless fuse accepts this estimator and sigma floor."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    # Below 1e-12 rad, 1/sigma^2 in the weighted loss can overflow.
    if not (1e-12 <= sigma_floor < math.inf):
        raise ValueError(f"sigma_floor must be finite and at least 1e-12 rad, "
                         f"got {sigma_floor!r}")


def fuse(stack: BoundaryStack, estimator: str = "median",
         sigma_floor: float = SIGMA_FLOOR_DEFAULT) -> PseudoLabel:
    """Per-column median (or mean) and population std over valid entries.

    The lower median is used for even counts, so lat_bar is always one of
    the observed values; sigma is floored at sigma_floor (columns with a
    single valid entry have zero spread, and the floor keeps the weighted
    loss finite).
    """
    check_fusion(estimator, sigma_floor)
    # Reductions run over value-sorted entries, invalid (NaN) ones last, which
    # makes the result exactly invariant to any permutation of the view axis.
    order = np.sort(stack.lat, axis=1)
    filled = ~np.isnan(order)
    support = filled.sum(axis=1)
    if estimator == "median":
        # Lower median: index (n-1)//2 of the sorted valid entries.
        idx = (support - 1) // 2
        lat_bar = np.take_along_axis(order, idx[:, None], axis=1)[:, 0]
    # nanmean of the sorted entries: the same sums with the invalid (NaN)
    # entries zeroed, divided by the valid count, in both passes.
    mean = np.where(filled, order, 0.0).sum(axis=1) / support
    if estimator == "mean":
        lat_bar = mean
    var = np.where(filled, (order - mean[:, None]) ** 2, 0.0).sum(axis=1) / support
    sigma = np.maximum(np.sqrt(var), sigma_floor)
    return PseudoLabel(lat_bar, sigma, support.astype(np.int64))


def _abs_diff(pred, pl: PseudoLabel) -> np.ndarray:
    """|pred - lat_bar| per column; pred is a boundary or its latitudes."""
    lat = np.asarray(getattr(pred, "lat", pred), dtype=float)
    if lat.shape[0] != pl.width:
        raise ValueError(f"length mismatch: pred {lat.shape[0]} vs label {pl.width}")
    return np.abs(lat - pl.lat_bar)


def wbc_loss(pred, pl: PseudoLabel) -> float:
    """Uncertainty-weighted boundary consistency: sum |diff| / sigma^2."""
    return float(np.sum(_abs_diff(pred, pl) / pl.sigma ** 2))


def l1_loss(pred, pl: PseudoLabel) -> float:
    """Unweighted variant: sum |diff|."""
    return float(np.sum(_abs_diff(pred, pl)))
