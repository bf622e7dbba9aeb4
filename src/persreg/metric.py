"""Covariate metrics, the learned weighted distance, the pairwise distance
cache, and neighbor-ball queries over the loading space.

The per-covariate distances never change during training, so they are
computed once into a (k, n, n) cache.  Neighbor balls live on squared
Euclidean distance between loading columns: one dense (n, n) matrix per
query, from which both the automatic radius and the neighbor pairs are
read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CATEGORICAL, CONTINUOUS, COVARIATE_KINDS, CovariateTable

RADIUS_NUDGE = 1e-12
# entries of the scratch block pairwise_squared fills per pass (512 KB)
PAIRWISE_BLOCK = 1 << 16


def feature_distance(kind: str, a, b) -> float:
    """Distance between two values of a single covariate.

    Continuous columns use absolute difference, categorical columns the
    0/1 discrete metric.
    """
    if kind == CONTINUOUS:
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("continuous covariate values must be finite")
        return abs(a - b)
    if kind == CATEGORICAL:
        return 0.0 if str(a) == str(b) else 1.0
    raise ValueError(f"unknown metric kind {kind!r}, expected one of {COVARIATE_KINDS}")


def weighted_distance(weights, u, v, kinds) -> float:
    """Learned covariate distance: nonnegative weighted sum of per-column
    metrics, evaluated from raw covariate rows."""
    weights = np.asarray(weights, dtype=float)
    u, v = tuple(u), tuple(v)
    if not (weights.shape[0] == len(u) == len(v) == len(kinds)):
        raise ValueError(
            f"weights ({weights.shape[0]}), rows ({len(u)}, {len(v)}) and kinds "
            f"({len(kinds)}) must have equal length"
        )
    total = 0.0
    for idx in range(weights.shape[0]):
        total += float(weights[idx]) * feature_distance(kinds[idx], u[idx], v[idx])
    return total


@dataclass(frozen=True)
class DistanceCache:
    """Per-covariate pairwise distances, (k, n, n), symmetric, zero diagonal."""

    distances: np.ndarray
    kinds: tuple

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 3 or d.shape[1] != d.shape[2]:
            raise ValueError("cache must be a (k, n, n) array")
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)

    @property
    def width(self) -> int:
        return self.distances.shape[0]

    @property
    def n_samples(self) -> int:
        return self.distances.shape[1]

    def pair_distance(self, weights, i: int, j: int) -> float:
        """Learned distance between training samples i and j."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] != self.width:
            raise ValueError("weights length must match cache width")
        total = 0.0
        for idx in range(self.width):
            total += float(weights[idx]) * float(self.distances[idx, i, j])
        return total


def precompute_cache(covariates: CovariateTable) -> DistanceCache:
    """Build the (k, n, n) per-covariate distance cache for a training table."""
    n = len(covariates)
    mats = np.empty((covariates.width, n, n), dtype=float)
    for idx, (col, kind) in enumerate(zip(covariates.columns, covariates.kinds)):
        if kind == CONTINUOUS:
            vals = np.asarray(col, dtype=float)
            mats[idx] = np.abs(vals[:, None] - vals[None, :])
        else:
            labels = np.asarray(col, dtype=object)
            mats[idx] = (labels[:, None] != labels[None, :]).astype(float)
    return DistanceCache(distances=mats, kinds=covariates.kinds)


def pairwise_squared(loadings: np.ndarray) -> np.ndarray:
    """Full (n, n) squared Euclidean distances between loading columns.

    Accumulated dimension by dimension, so every entry equals a per-pair
    loop over the dimensions bit for bit, and the matrix is exactly
    symmetric with a zero diagonal.
    """
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 2:
        raise ValueError("loadings must be a (q, n) array")
    n = loadings.shape[1]
    sq = np.empty((n, n), dtype=float)
    # a few rows at a time, so the scratch buffer stays in cache
    rows = max(1, PAIRWISE_BLOCK // max(n, 1))
    diff = np.empty((rows, n), dtype=float)
    for start in range(0, n, rows):
        out = sq[start : start + rows]
        scratch = diff[: out.shape[0]]
        out.fill(0.0)
        for row in loadings:
            np.subtract(row[start : start + rows, None], row[None, :], out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            out += scratch
    return sq


def neighbor_sets(sq: np.ndarray, radius: float) -> np.ndarray:
    """Neighbor balls as an (n, n) boolean membership matrix.

    Entry (i, j) is set when the squared loading distance in ``sq`` (from
    ``pairwise_squared``) lies strictly below ``radius``; no sample is its
    own neighbor.
    """
    if not radius > 0:
        raise ValueError("radius must be > 0")
    members = sq < radius
    np.fill_diagonal(members, False)
    return members


def neighbor_pairs(members: np.ndarray) -> tuple:
    """Ordered-pair index arrays (i_idx, j_idx) of a membership matrix.

    Pairs come out sorted ascending by (i, j); every mutual pair appears in
    both directions.  This fixed order is what makes downstream reductions
    reproducible.
    """
    flat = np.flatnonzero(members)
    return np.divmod(flat, members.shape[1])


def auto_radius(sq: np.ndarray, target_avg: float) -> float:
    """Radius giving roughly ``target_avg`` neighbors per sample.

    Takes the m-th smallest squared distance over unordered pairs, with
    m = ceil(target_avg * n / 2) clipped to n(n - 1) / 2, then nudges it up
    by a relative 1e-12 so the strict inequality keeps those m pairs inside.
    ``sq`` is the matrix of ``pairwise_squared``: it is exactly symmetric
    with n zeros on its diagonal, so its flattened order statistic
    n + 2m - 1 is that pair distance (the diagonal sorts first and every
    pair appears twice).
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("need at least two samples to pick a radius")
    if not (0 < target_avg <= n - 1):
        raise ValueError(f"target_avg must lie in (0, {n - 1}], got {target_avg}")
    m = min(int(np.ceil(target_avg * n / 2.0)), n * (n - 1) // 2)
    kth = n + 2 * m - 1
    value = float(np.partition(sq.ravel(), kth)[kth])
    if value == 0.0:
        return RADIUS_NUDGE
    return value * (1.0 + RADIUS_NUDGE)
