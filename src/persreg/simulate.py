"""Synthetic data with known per-sample coefficients, plus the recovery and
prediction metrics used to score estimators against the ground truth.

Each coefficient follows a threshold-plus-sine function of one uniformly
chosen covariate, which makes the true coefficient surface discontinuous in
the covariates; responses add Gaussian noise with standard deviation 0.1
(variance 0.01).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CovariateTable, Dataset, REGRESSION

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


def r_squared(y_pred, y_true) -> tuple:
    """Squared Pearson correlation of predictions and responses, and
    whether it is degenerate.

    Fewer than two values, or a constant vector, leave the correlation
    undefined; that case gives (0.0, True).
    """
    if y_pred.size < 2 or float(np.std(y_pred)) == 0.0 or float(np.std(y_true)) == 0.0:
        return 0.0, True
    corr = float(np.corrcoef(y_pred, y_true)[0, 1])
    return corr * corr, False


def evaluate_recovery(estimated, true, y_pred, y_true) -> RecoveryMetrics:
    """Frobenius recovery error plus squared-Pearson R^2 and MSE.

    A constant prediction or response vector leaves the correlation
    undefined; that case reports R^2 = 0 and sets the degenerate flag.
    """
    estimated = np.asarray(estimated, dtype=float)
    true = np.asarray(true, dtype=float)
    if estimated.shape != true.shape:
        raise ValueError(
            f"coefficient matrices must match, got {estimated.shape} vs {true.shape}"
        )
    y_pred = np.asarray(y_pred, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if y_pred.shape != y_true.shape:
        raise ValueError("prediction and truth vectors must match")

    recovery = float(np.linalg.norm(estimated - true))
    mse = float(np.mean((y_pred - y_true) ** 2)) if y_pred.size else 0.0

    r2, degenerate = r_squared(y_pred, y_true)
    return RecoveryMetrics(
        recovery=recovery, r2=r2, mse=mse, r2_degenerate=degenerate
    )
