"""Test-time model assembly: average the coefficient vectors of the nearest
training samples under the learned covariate metric.

Neighbor selection sees only the covariates, never the predictors, so the
assembled coefficients stay interpretable with respect to the predictors.
Each query row is encoded once (``CovariateTable.encode_row``), and its
label codes both find its group and feed every distance pass.

The search for the k nearest training rows is exact and prunes by label.
A distance is a sum of nonnegative per-covariate terms and float addition
is monotone, so a sum is never below any one of its terms.  A training row
whose label differs from the query's on a positive-weight categorical
covariate therefore lies at least that weight away.  So the search first
measures only the training rows that share all of the query's labels on
those covariates (the model's ``label_partition``).  If that group holds k
rows and its k-th distance is below the smallest such weight, every other
row is strictly farther, and these k are the answer.  Otherwise, when the
query carries a label unseen in training, its group has fewer than k rows,
or its k-th distance reaches that weight, a pass measures every training
row.  Groups keep their rows in ascending index order, so ties still go to
the lower training index, and both paths return the same neighbors,
distances and predictions bit for bit.

A batch is searched in blocks.  Its queries are grouped by label, and each
group's queries are measured against that group's contiguous rows in the
partition's table as one (queries, rows) block; the queries its group
cannot answer are measured against every training row in blocks of their
own.  Every block holds at most ``BLOCK_CELLS`` distances, so the search's
distance arrays stay bounded whatever the batch size.  A single query skips
the grouping and goes straight to its group.  The coefficients of the whole
batch come from one stacked matrix product that makes, per query, the same
product of the same layout as a single query's, so a batch and a loop of
single predictions agree bit for bit.  That product is not chunked: it
holds the batch's neighbor loadings, queries x factors x k floats, at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CLASSIFICATION, TrainedModel
from .objective import sigmoid

# query rows times training rows of one distance block: a search holds at
# most a few float arrays of this many cells, whatever the batch size
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Prediction:
    coefficients: np.ndarray
    y_hat: float
    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray


def _nearest(dists: np.ndarray, k: int) -> tuple:
    """Per row of the (m, n) ``dists``, the indices of its k smallest
    distances, nearest first, ties to the lower index, and those distances,
    as two lists of m arrays: a stable sort of the row's candidates at or
    below its k-th smallest."""
    partitioned = dists.copy()
    partitioned.partition(k - 1, axis=1)
    chosen, near = [], []
    for d, at_most in zip(dists, dists <= partitioned[:, k - 1:k]):
        candidates = at_most.nonzero()[0]
        chosen.append(candidates[d[candidates].argsort(kind="stable")[:k]])
        near.append(d[chosen[-1]])
    return chosen, near


def _blocks(members: list, width: int) -> list:
    """``members`` in runs of at most ``BLOCK_CELLS // width`` queries (at
    least one), one distance block each."""
    step = max(1, BLOCK_CELLS // width)
    return [members[a:a + step] for a in range(0, len(members), step)]


def _group(model: TrainedModel, row: tuple, k: int) -> slice | None:
    """The slice of ``label_partition.order`` holding the encoded row's
    label group, or None when the model has no partition, the row carries a
    label unseen in training (code -1), or its group holds fewer than k rows."""
    part = model.label_partition
    if part is None:
        return None
    span = part.groups.get(tuple([row[c] for c in part.columns]))
    return span if span is not None and span.stop - span.start >= k else None


def _one_nearest(model: TrainedModel, row: tuple, k: int) -> tuple:
    """The search of ``_k_nearest`` for one query row, without its grouping
    and blocks, which cost a single row more than they save."""
    part, span = model.label_partition, _group(model, row, k)
    if span is not None:
        dists = part.table.row_distances(part.weights, [row], span)
        (chosen,), (near,) = _nearest(dists, k)
        if near[-1] < part.min_weight:
            return part.order[span][chosen][None], near[None]
    (chosen,), (near,) = _nearest(
        model.train_covariates.row_distances(model.weights, [row]), k
    )
    return chosen[None], near[None]


def _k_nearest(model: TrainedModel, rows: list, k: int) -> tuple:
    """The k nearest training rows to each of m encoded covariate rows,
    nearest first, and their distances, as (m, k) arrays.  The rows of one
    label group are measured against it in blocks; those whose group does
    not provably hold their k nearest, in blocks against every training
    row."""
    if len(rows) == 1:
        return _one_nearest(model, rows[0], k)
    part = model.label_partition
    ids = np.empty((len(rows), k), dtype=np.intp)
    dists = np.empty((len(rows), k), dtype=float)
    full, groups = [], {}
    for i, row in enumerate(rows):
        span = _group(model, row, k)
        if span is None:
            full.append(i)
        else:
            groups.setdefault(span.start, (span, []))[1].append(i)
    for span, members in groups.values():
        order = part.order[span]
        for block in _blocks(members, span.stop - span.start):
            queries = [rows[i] for i in block]
            measured = part.table.row_distances(part.weights, queries, span)
            for i, c, d in zip(block, *_nearest(measured, k)):
                if d[-1] < part.min_weight:
                    ids[i], dists[i] = order[c], d
                else:
                    full.append(i)
    table = model.train_covariates
    for block in _blocks(full, len(table)):
        ids[block], dists[block] = _nearest(
            table.row_distances(model.weights, [rows[i] for i in block]), k
        )
    return ids, dists


def rank_neighbors(model: TrainedModel, u_row) -> np.ndarray:
    """Training indices ordered nearest first, ties broken by index: the
    k = n case of the nearest-row search."""
    row = model.train_covariates.encode_row(u_row)
    return _k_nearest(model, [row], model.n_train)[0][0]


def predict_batch(model: TrainedModel, X, covariate_rows) -> list:
    """Assemble a sample-specific model for each test point (a row of X and
    its covariate row) and apply it.

    The coefficients are the unweighted mean over the nearest training
    columns (neighbor count clipped to the training size, ties to the lower
    index), averaged in ascending index order so the all-neighbors case
    reproduces the training center of mass exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_predictors:
        raise ValueError(
            f"predictor matrix has shape {X.shape}, expected (m, {model.n_predictors})"
        )
    if not np.isfinite(X).all():
        raise ValueError("predictors contain non-finite values")
    rows = [model.train_covariates.encode_row(row) for row in covariate_rows]
    if len(rows) != X.shape[0]:
        raise ValueError("predictor rows and covariate rows must align")
    kn = min(model.hyper.n_neighbors, model.n_train)
    fact = model.factorization
    # an overflowed distance ranks farthest and an overflowed score is
    # refused where it is written, so neither needs a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        ids, dists = _k_nearest(model, rows, kn)
        # each query's (q, k) neighbor loadings, contiguous, make one gemm of
        # the same shape and layout as a single row's
        loadings = np.ascontiguousarray(
            fact.loadings.take(np.sort(ids, axis=1), axis=1).transpose(1, 0, 2)
        )
        coefficients = np.matmul(fact.dictionary.T, loadings).sum(axis=2) / kn
        # one dot product per row, the same call as a single row's x @ c
        z = (X[:, None, :] @ coefficients[:, :, None]).ravel()
    y_hat = sigmoid(z) if model.task == CLASSIFICATION else z
    return [
        Prediction(c, float(y), i, d)
        for c, y, i, d in zip(coefficients, y_hat, ids, dists)
    ]


def predict_point(model: TrainedModel, x, u_row) -> Prediction:
    """The prediction for one test point: ``predict_batch`` of one row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_predictors,):
        raise ValueError(
            f"predictor row has shape {x.shape}, expected ({model.n_predictors},)"
        )
    return predict_batch(model, x[None, :], [u_row])[0]
