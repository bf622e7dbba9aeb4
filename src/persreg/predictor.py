"""Test-time model assembly: average the coefficient vectors of the nearest
training samples under the learned covariate metric.

Neighbor selection sees only the covariates, never the predictors, so the
assembled coefficients stay interpretable with respect to the predictors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CLASSIFICATION, TrainedModel


@dataclass(frozen=True)
class Prediction:
    coefficients: np.ndarray
    y_hat: float
    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray


def rank_neighbors(model: TrainedModel, u_row) -> np.ndarray:
    """Training indices ordered nearest first, ties broken by index."""
    table = model.train_covariates
    dists = table.metric.row_distances(model.weights, table.validate_row(u_row))
    return np.lexsort((np.arange(len(dists)), dists))


def predict_point(model: TrainedModel, x, u_row) -> Prediction:
    """Assemble a sample-specific model for one test point and apply it.

    The coefficients are the unweighted mean over the nearest training
    columns (neighbor count clipped to the training size); the selected
    columns are averaged in ascending index order so the all-neighbors case
    reproduces the training center of mass exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_predictors,):
        raise ValueError(
            f"predictor row has shape {x.shape}, expected ({model.n_predictors},)"
        )
    table = model.train_covariates
    dists = table.metric.row_distances(model.weights, table.validate_row(u_row))
    order = np.lexsort((np.arange(len(dists)), dists))
    kn = min(model.hyper.n_neighbors, model.n_train)
    chosen = order[:kn]
    fact = model.factorization
    columns = fact.dictionary.T @ fact.loadings[:, np.sort(chosen)]
    coefficients = columns.mean(axis=1)
    z = float(x @ coefficients)
    if model.task == CLASSIFICATION:
        y_hat = float(1.0 / (1.0 + np.exp(-z))) if z >= 0 else float(
            np.exp(z) / (1.0 + np.exp(z))
        )
    else:
        y_hat = z
    return Prediction(
        coefficients=coefficients,
        y_hat=y_hat,
        neighbor_ids=chosen.copy(),
        neighbor_dists=dists[chosen],
    )


def predict_batch(model: TrainedModel, X, covariate_rows) -> list:
    """Predictions for many test points (rows of X and covariate rows)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d predictor matrix")
    rows = list(covariate_rows)
    if len(rows) != X.shape[0]:
        raise ValueError("predictor rows and covariate rows must align")
    return [predict_point(model, X[i], rows[i]) for i in range(X.shape[0])]
