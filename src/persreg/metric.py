"""The learned covariate metric over an encoded table, and neighbor-ball
queries over the loading space.

The covariate metric reads the training table in an encoded form, built
once per table on first use: continuous columns as float64, each
categorical column as integer codes into its sorted distinct labels.
Training reads per-covariate distances only at the neighbor pairs of each
step, and prediction only from one row to every sample, so no pairwise
matrix over the covariates is ever built.  Neighbor balls live on squared
Euclidean distance between loading columns: one dense (n, n) matrix per
query, from which both the automatic radius and the neighbor pairs are
read.
"""

from __future__ import annotations

import numpy as np

from .model import CONTINUOUS, CovariateTable

RADIUS_NUDGE = 1e-12
# entries of the scratch block pairwise_squared fills per pass (512 KB)
PAIRWISE_BLOCK = 1 << 16


class CovariateMetric:
    """Per-covariate distances over an encoded covariate table.

    Continuous columns use absolute difference, categorical columns the
    0/1 discrete metric, evaluated as an inequality of integer codes.  The
    learned distance is the nonnegative weighted sum of the per-covariate
    distances.
    """

    def __init__(self, table: CovariateTable):
        values, labels = [], []
        for col, kind in zip(table.columns, table.kinds):
            if kind == CONTINUOUS:
                values.append(col)
                labels.append(None)
            else:
                distinct, codes = np.unique(col, return_inverse=True)
                values.append(codes)
                labels.append(distinct)
        self.values = tuple(values)
        self.labels = tuple(labels)

    @property
    def width(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values[0])

    def pair_distances(self, i_idx, j_idx) -> np.ndarray:
        """(k, P) per-covariate distances between samples i_idx[p] and
        j_idx[p]."""
        out = np.empty((self.width, len(i_idx)), dtype=float)
        for dist, vals, labels in zip(out, self.values, self.labels):
            if labels is None:
                np.abs(vals[i_idx] - vals[j_idx], out=dist)
            else:
                np.not_equal(vals[i_idx], vals[j_idx], out=dist)
        return out

    def row_distances(self, weights, row) -> np.ndarray:
        """Learned distance from one covariate row to every sample.

        ``row`` follows the table's schema (``CovariateTable.validate_row``).
        The weighted per-covariate distances are added column by column.  A
        label absent from the table gets code -1, so it differs from every
        sample.
        """
        if not len(weights) == len(row) == self.width:
            raise ValueError("weights and row must cover every covariate")
        dists = np.zeros(len(self), dtype=float)
        per = np.empty(len(self), dtype=float)
        for w, vals, labels, value in zip(weights, self.values, self.labels, row):
            if labels is None:
                np.subtract(vals, value, out=per)
                np.abs(per, out=per)
            else:
                pos = int(np.searchsorted(labels, value))
                code = pos if pos < len(labels) and labels[pos] == value else -1
                np.not_equal(vals, code, out=per)
            per *= w
            dists += per
        return dists


def precompute_cache(covariates: CovariateTable) -> CovariateMetric:
    """The covariate metric of a training table, encoded on first use and
    kept by the table."""
    return covariates.metric


def pairwise_squared(loadings: np.ndarray, out=None) -> np.ndarray:
    """Full (n, n) squared Euclidean distances between loading columns,
    written into ``out`` when given.

    Accumulated dimension by dimension, so every entry equals a per-pair
    loop over the dimensions bit for bit, and the matrix is exactly
    symmetric with a zero diagonal.
    """
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 2:
        raise ValueError("loadings must be a (q, n) array")
    n = loadings.shape[1]
    sq = np.empty((n, n), dtype=float) if out is None else out
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


def auto_radius(sq: np.ndarray, target_avg: float, scratch=None) -> float:
    """Radius giving roughly ``target_avg`` neighbors per sample.

    Takes the m-th smallest squared distance over unordered pairs, with
    m = ceil(target_avg * n / 2) clipped to n(n - 1) / 2, then nudges it up
    by a relative 1e-12 so the strict inequality keeps those m pairs inside.
    ``sq`` is the matrix of ``pairwise_squared``: it is exactly symmetric
    with n zeros on its diagonal, so its flattened order statistic
    n + 2m - 1 is that pair distance (the diagonal sorts first and every
    pair appears twice).  The order statistic is selected in a copy of
    ``sq``, held in ``scratch`` (n * n floats) when given.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("need at least two samples to pick a radius")
    if not (0 < target_avg <= n - 1):
        raise ValueError(f"target_avg must lie in (0, {n - 1}], got {target_avg}")
    m = min(int(np.ceil(target_avg * n / 2.0)), n * (n - 1) // 2)
    kth = n + 2 * m - 1
    flat = np.empty(sq.size, dtype=float) if scratch is None else scratch
    np.copyto(flat, sq.ravel())
    flat.partition(kth)
    value = float(flat[kth])
    if value == 0.0:
        return RADIUS_NUDGE
    return value * (1.0 + RADIUS_NUDGE)
