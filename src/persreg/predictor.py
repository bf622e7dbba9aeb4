"""Test-time model assembly: average the coefficient vectors of the nearest
training samples under the learned covariate metric.

Neighbor selection sees only the covariates, never the predictors, so the
assembled coefficients stay interpretable with respect to the predictors.

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
or its k-th distance reaches that weight, one pass measures every training
row.  Groups keep their rows in ascending index order, so ties still go to
the lower training index, and both paths return the same neighbors,
distances and predictions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CLASSIFICATION, TrainedModel
from .objective import sigmoid


@dataclass(frozen=True)
class Prediction:
    coefficients: np.ndarray
    y_hat: float
    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances, nearest first, ties to the lower
    index: a stable sort of the candidates at or below the k-th smallest."""
    candidates = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    order = np.argsort(dists[candidates], kind="stable")
    return candidates[order[:k]]


def _k_nearest(model: TrainedModel, row: tuple, k: int) -> tuple:
    """The k nearest training rows to a validated covariate row, nearest
    first, and their distances: from the row's label group when that
    provably holds them, else from a pass over every training row."""
    table, part = model.train_covariates, model.label_partition
    if part is not None:
        key = tuple(table.encoding[c][1].get(row[c]) for c in part.columns)
        rows = part.groups.get(key)
        if rows is not None and len(rows) >= k:
            dists = table.row_distances(part.weights, row, rows)
            chosen = _nearest(dists, k)
            if dists[chosen[-1]] < part.min_weight:
                return rows[chosen], dists[chosen]
    dists = table.row_distances(model.weights, row)
    chosen = _nearest(dists, k)
    return chosen, dists[chosen]


def rank_neighbors(model: TrainedModel, u_row) -> np.ndarray:
    """Training indices ordered nearest first, ties broken by index: the
    k = n case of the nearest-row search."""
    row = model.train_covariates.validate_row(u_row)
    return _k_nearest(model, row, model.n_train)[0]


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
    if not np.all(np.isfinite(X)):
        raise ValueError("predictors contain non-finite values")
    table = model.train_covariates
    rows = [table.validate_row(row) for row in covariate_rows]
    if len(rows) != X.shape[0]:
        raise ValueError("predictor rows and covariate rows must align")
    kn = min(model.hyper.n_neighbors, model.n_train)
    fact = model.factorization
    picks = []
    # an overflowed distance ranks farthest and an overflowed score is
    # refused where it is written, so neither needs a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            chosen, dists = _k_nearest(model, row, kn)
            columns = fact.dictionary.T @ fact.loadings[:, np.sort(chosen)]
            picks.append((columns.sum(axis=1) / kn, chosen, dists))
        z = np.array([x @ c for x, (c, _, _) in zip(X, picks)], dtype=float)
    y_hat = sigmoid(z) if model.task == CLASSIFICATION else z
    return [Prediction(c, float(y), ids, d) for (c, ids, d), y in zip(picks, y_hat)]


def predict_point(model: TrainedModel, x, u_row) -> Prediction:
    """The prediction for one test point: ``predict_batch`` of one row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_predictors,):
        raise ValueError(
            f"predictor row has shape {x.shape}, expected ({model.n_predictors},)"
        )
    return predict_batch(model, x[None, :], [u_row])[0]
