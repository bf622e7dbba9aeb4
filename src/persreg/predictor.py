"""Test-time model assembly: average the coefficient vectors of the nearest
training samples under the learned covariate metric.

Neighbor selection sees only the covariates, never the predictors, so the
assembled coefficients stay interpretable with respect to the predictors.
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
    if k < len(dists):
        candidates = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    else:
        candidates = np.arange(len(dists))
    order = np.argsort(dists[candidates], kind="stable")
    return candidates[order[:k]]


def rank_neighbors(model: TrainedModel, u_row) -> np.ndarray:
    """Training indices ordered nearest first, ties broken by index."""
    table = model.train_covariates
    dists = table.row_distances(model.weights, table.validate_row(u_row))
    return _nearest(dists, len(dists))


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
    picks, z = [], np.empty(len(rows), dtype=float)
    for i, row in enumerate(rows):
        dists = table.row_distances(model.weights, row)
        chosen = _nearest(dists, kn)
        columns = fact.dictionary.T @ fact.loadings[:, np.sort(chosen)]
        coefficients = columns.sum(axis=1) / kn
        z[i] = X[i] @ coefficients
        picks.append((coefficients, chosen, dists[chosen]))
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
