"""Synthetic data with known per-sample coefficients, plus every score of
an estimator: coefficient recovery against the ground truth, and the
regression and classification scores of its predictions.

Each coefficient follows a threshold-plus-sine function of one uniformly
chosen covariate, which makes the true coefficient surface discontinuous in
the covariates; responses add Gaussian noise with standard deviation 0.1
(variance 0.01).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CLASSIFICATION,
    REGRESSION,
    CovariateTable,
    Dataset,
    validate_task,
)

NOISE_STD = 0.1
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class SyntheticInstance:
    dataset: Dataset
    coefficients_true: np.ndarray  # p x n, column per sample
    thresholds: np.ndarray  # p
    sine_scales: np.ndarray  # p
    covariate_index: np.ndarray  # p, which covariate drives each coefficient
    train_rows: np.ndarray
    test_rows: np.ndarray
    seed: int

    def train_dataset(self) -> Dataset:
        return self.dataset.take(self.train_rows)

    def test_dataset(self) -> Dataset:
        return self.dataset.take(self.test_rows)


def generate(
    n: int,
    p: int,
    n_covariates: int,
    seed: int,
    noise_std: float = NOISE_STD,
    normalize_rows: bool = False,
) -> SyntheticInstance:
    """Draw one synthetic instance, fully determined by the seed.

    Predictors are uniform on (-1, 1), covariates uniform on (0, 1).
    Coefficient j of sample i is  1{U[i, c_j] > a_j} + b_j * sin(U[i, c_j])
    with a, b uniform on (0, 1) and c_j a uniform covariate choice.

    ``normalize_rows`` rescales every predictor row to unit l1 norm (which
    also bounds entries by one) and recomputes responses from the rescaled
    predictors; instrumented training runs require that normalization.
    """
    if min(n, p, n_covariates) < 1:
        raise ValueError("n, p and n_covariates must all be >= 1")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, p))
    U = rng.uniform(0.0, 1.0, size=(n, n_covariates))
    thresholds = rng.uniform(0.0, 1.0, size=p)
    sine_scales = rng.uniform(0.0, 1.0, size=p)
    covariate_index = rng.integers(0, n_covariates, size=p)
    noise = rng.normal(0.0, noise_std, size=n)
    perm = rng.permutation(n)

    driving = U[:, covariate_index]  # n x p
    coefficients = (driving > thresholds[None, :]).astype(float) + sine_scales[
        None, :
    ] * np.sin(driving)

    if normalize_rows:
        norms = np.sum(np.abs(X), axis=1)
        norms[norms == 0.0] = 1.0
        X = X / norms[:, None]
    responses = np.einsum("ij,ij->i", X, coefficients) + noise

    n_train = int(np.ceil(TRAIN_FRACTION * n)) if n > 1 else 1
    train_rows = np.sort(perm[:n_train])
    test_rows = np.sort(perm[n_train:])

    dataset = Dataset(
        predictors=X,
        responses=responses,
        covariates=CovariateTable.continuous(U),
        task=REGRESSION,
    )
    return SyntheticInstance(
        dataset=dataset,
        coefficients_true=coefficients.T,
        thresholds=thresholds,
        sine_scales=sine_scales,
        covariate_index=covariate_index,
        train_rows=train_rows,
        test_rows=test_rows,
        seed=int(seed),
    )


@dataclass(frozen=True)
class RecoveryMetrics:
    recovery: float
    r2: float
    mse: float
    r2_degenerate: bool = False


def auroc_rank_sum(scores, labels) -> float:
    """Area under the ROC curve via the rank-sum statistic; each run of tied
    scores shares the mean of its 1-based ranks."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n_pos = int(np.sum(labels == 1.0))
    n_neg = int(np.sum(labels == 0.0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    pos_sum = float(np.sum(ranks[labels == 1.0]))
    return (pos_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def score_predictions(y_pred, y_true, task=REGRESSION) -> dict:
    """``mse`` and squared-Pearson ``r2`` of predictions against responses,
    with ``r2_degenerate`` only when R^2 is undefined (reported as 0).  A
    classification task adds ``auroc`` and ``accuracy`` at threshold 0.5
    and requires 0/1 responses."""
    y_pred = np.asarray(y_pred, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if y_pred.shape != y_true.shape:
        raise ValueError(
            f"predictions of shape {y_pred.shape} do not match responses of "
            f"shape {y_true.shape}"
        )
    scores: dict = {
        "mse": float(np.mean((y_pred - y_true) ** 2)) if y_true.size else 0.0
    }
    # fewer than two values, or a constant vector, leave R^2 undefined
    if y_pred.size < 2 or float(np.std(y_pred)) == 0.0 or float(np.std(y_true)) == 0.0:
        scores["r2"], scores["r2_degenerate"] = 0.0, True
    else:
        corr = float(np.corrcoef(y_pred, y_true)[0, 1])
        scores["r2"] = corr * corr
    if validate_task(task) == CLASSIFICATION:
        if not np.all(np.isin(y_true, (0.0, 1.0))):
            raise ValueError("classification truth must be 0/1")
        scores["auroc"] = auroc_rank_sum(y_pred, y_true)
        scores["accuracy"] = float(np.mean((y_pred >= 0.5) == (y_true == 1.0)))
    return scores


def recovery_error(estimated, true) -> float:
    """Frobenius norm of the difference of two coefficient matrices."""
    estimated = np.asarray(estimated, dtype=float)
    true = np.asarray(true, dtype=float)
    if estimated.shape != true.shape:
        raise ValueError(
            f"coefficient matrices must match, got {estimated.shape} vs {true.shape}"
        )
    return float(np.linalg.norm(estimated - true))


def evaluate_recovery(estimated, true, y_pred, y_true) -> RecoveryMetrics:
    """``recovery_error`` plus the regression scores of ``score_predictions``."""
    recovery = recovery_error(estimated, true)
    scores = score_predictions(y_pred, y_true)
    return RecoveryMetrics(
        recovery=recovery,
        r2=scores["r2"],
        mse=scores["mse"],
        r2_degenerate=scores.get("r2_degenerate", False),
    )
