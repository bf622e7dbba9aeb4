"""Independent reference implementations used to check the library.

These deliberately recompute things the slow, obvious way: plain double
loops for neighbor queries and covariate distances, scalar accumulation
for the distance-matching terms (walking ordered pairs ascending and
mirroring the library's documented accumulation order so exact comparison
is meaningful), and central finite differences for gradients.
"""

from __future__ import annotations

import numpy as np

from persreg.metric import (
    NeighborPairs,
    candidate_pairs,
    neighbor_pairs,
    neighbor_sets,
)


def brute_neighbor_sets(loadings: np.ndarray, radius: float) -> list:
    """Double-loop neighbor query with strict squared-distance inequality."""
    q, n = loadings.shape
    sets = []
    for i in range(n):
        members = []
        for j in range(n):
            if j == i:
                continue
            sq = 0.0
            for d in range(q):
                diff = loadings[d, i] - loadings[d, j]
                sq += diff * diff
            if sq < radius:
                members.append(j)
        sets.append(np.asarray(members, dtype=np.int64))
    return sets


def covariate_distance_matrices(rows, kinds) -> list:
    """Dense per-covariate distance matrices, one (n, n) array per column,
    from raw covariate rows by a plain double loop."""
    n = len(rows)
    mats = []
    for idx, kind in enumerate(kinds):
        mat = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                a, b = rows[i][idx], rows[j][idx]
                if kind == "continuous":
                    mat[i, j] = abs(float(a) - float(b))
                else:
                    mat[i, j] = 1.0 if str(a) != str(b) else 0.0
        mats.append(mat)
    return mats


def _ordered_pairs(sets):
    pairs = []
    for i, members in enumerate(sets):
        for j in members:
            pairs.append((i, int(j)))
    return pairs


def _pair_mismatch_scalar(loadings, weights, cache_mats, i, j) -> float:
    rho = 0.0
    for idx in range(len(cache_mats)):
        rho += weights[idx] * cache_mats[idx][i, j]
    sq = 0.0
    for d in range(loadings.shape[0]):
        diff = loadings[d, i] - loadings[d, j]
        sq += diff * diff
    return rho - sq


def match_values_reference(loadings, weights, cache_mats, sets, strength):
    """Scalar-accumulated distance-matching penalties, pair order ascending."""
    n = loadings.shape[1]
    acc = np.zeros(n)
    for i, j in _ordered_pairs(sets):
        mis = _pair_mismatch_scalar(loadings, weights, cache_mats, i, j)
        acc[i] += mis * mis
    return 0.5 * strength * acc


def match_gradients_reference(loadings, weights, cache_mats, sets, strength):
    """Scalar-accumulated gradients mirroring the library's two-pass
    scatter (all own-ball contributions per dimension, then all cross
    contributions)."""
    q, n = loadings.shape
    k = len(cache_mats)
    pairs = _ordered_pairs(sets)
    mis = [
        _pair_mismatch_scalar(loadings, weights, cache_mats, i, j) for i, j in pairs
    ]
    gz = np.zeros((q, n))
    for d in range(q):
        for (i, j), m in zip(pairs, mis):
            gz[d, i] += (-2.0 * strength * m) * (loadings[d, i] - loadings[d, j])
        for (i, j), m in zip(pairs, mis):
            gz[d, j] += -((-2.0 * strength * m) * (loadings[d, i] - loadings[d, j]))
    gw = np.zeros(k)
    for idx in range(k):
        per_sample = np.zeros(n)
        for (i, j), m in zip(pairs, mis):
            per_sample[i] += m * cache_mats[idx][i, j]
        gw[idx] = strength * float(np.sum(per_sample))
    return gz, gw


def central_difference(fn, x0: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    base = x0.copy()
    for idx in range(base.size):
        saved = base.ravel()[idx]
        base.ravel()[idx] = saved + h
        up = fn(base)
        base.ravel()[idx] = saved - h
        down = fn(base)
        base.ravel()[idx] = saved
        flat[idx] = (up - down) / (2.0 * h)
    return grad


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    scale = max(1e-12, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


def pairwise_squared(loadings: np.ndarray) -> np.ndarray:
    """Dense (n, n) squared Euclidean distances between loading columns,
    accumulated dimension by dimension in row order."""
    loadings = np.asarray(loadings, dtype=float)
    n = loadings.shape[1]
    sq = np.zeros((n, n))
    for row in loadings:
        diff = row[:, None] - row[None, :]
        sq += diff * diff
    return sq


def oracle_matrices(table) -> list:
    """The oracle's dense per-covariate distance matrices of a table."""
    rows = [table.row(i) for i in range(len(table))]
    return covariate_distance_matrices(rows, table.kinds)


def pairs_within(loadings, radius, table) -> NeighborPairs:
    """Neighbor pairs of the loadings at a fixed radius, found by the
    library's grid pass, with their covariate distances over ``table``."""
    near = candidate_pairs(loadings, radius)
    return neighbor_pairs(neighbor_sets(near, radius), table)
