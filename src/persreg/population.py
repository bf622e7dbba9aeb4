"""Elastic-net population estimator.

Used both to anchor personalized training and as the comparison baseline.
Solved by proximal gradient descent with a backtracking (halving) line
search; the solver insists on a small first-order optimality residual
because downstream center-of-mass bookkeeping relies on the population
coefficients being stationary for the averaged loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import REGRESSION, Dataset, NumericalError, validate_task
from .objective import score_terms


class ElasticNetConvergenceError(NumericalError):
    """Raised when the solver runs out of iterations; carries the last
    iterate and its stationarity residual."""

    def __init__(self, coef: np.ndarray, residual: float, max_iters: int):
        super().__init__(
            f"elastic net did not reach the target residual within {max_iters} "
            f"iterations (residual {residual:.3e})"
        )
        self.coef = coef
        self.residual = residual


@dataclass(frozen=True)
class ElasticNetConfig:
    l1: float = 1e-1
    l2: float = 0.0
    max_iters: int = 200_000
    rel_tol: float = 1e-8
    fit_task: str = REGRESSION

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization strengths must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        validate_task(self.fit_task)


def _smooth_terms(X, y, coef, l2, task) -> tuple:
    """Value and gradient of the smooth part, the mean loss plus
    l2 * |coef|^2, at ``coef``; a non-finite value is a NumericalError."""
    losses, slopes = score_terms(X @ coef, y, task)
    value = float(np.mean(losses)) + l2 * float(coef @ coef)
    if not math.isfinite(value):
        raise NumericalError("non-finite elastic-net objective")
    return value, X.T @ slopes / X.shape[0] + 2.0 * l2 * coef


def _soft_threshold(v: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - amount, 0.0)


def stationarity_residual(coef, grad, l1: float) -> float:
    """Infinity-norm distance of zero from the objective's subdifferential,
    given the smooth part's gradient ``grad`` at ``coef``."""
    res = np.where(
        coef != 0.0,
        np.abs(grad + l1 * np.sign(coef)),
        np.maximum(np.abs(grad) - l1, 0.0),
    )
    return float(np.max(res)) if res.size else 0.0


def fit_population(dataset: Dataset, cfg: ElasticNetConfig, on_iterate=None) -> np.ndarray:
    """Fit the shared coefficient vector by proximal gradient descent.

    Deterministic: starts from zero, backtracks by halving the step whenever
    the quadratic upper bound fails, and stops once the stationarity
    residual drops to ``cfg.rel_tol`` in infinity norm.  ``on_iterate``,
    when given, is called with the full objective value after every
    accepted step.  ``cfg.fit_task`` must be the dataset's task: the
    center-of-mass bookkeeping needs the coefficients stationary for the
    loss that training uses.  A non-finite trial value, or gradient of an
    accepted step, raises ``NumericalError``, and so does a line search
    that halves the step below 1e-18 while its trial still raises the
    smooth objective (badly scaled predictors).
    """
    if cfg.fit_task != dataset.task:
        raise ValueError(
            f"population fit_task {cfg.fit_task!r} does not match the "
            f"dataset's task {dataset.task!r}"
        )
    X = dataset.predictors
    y = dataset.responses
    coef = np.zeros(dataset.p, dtype=float)
    step = 1.0
    value, grad = _smooth_terms(X, y, coef, cfg.l2, cfg.fit_task)
    for iteration in range(cfg.max_iters + 1):
        residual = stationarity_residual(coef, grad, cfg.l1)
        if residual <= cfg.rel_tol:
            return coef
        if not math.isfinite(residual):
            raise NumericalError("non-finite elastic-net gradient")
        if iteration == cfg.max_iters:
            raise ElasticNetConvergenceError(coef, residual, cfg.max_iters)
        while True:
            trial = _soft_threshold(coef - step * grad, step * cfg.l1)
            delta = trial - coef
            trial_value, trial_grad = _smooth_terms(X, y, trial, cfg.l2, cfg.fit_task)
            bound = value + float(grad @ delta) + float(delta @ delta) / (2.0 * step)
            # the slack scales with the objective, as its rounding does
            if trial_value <= bound + 1e-15 * max(1.0, abs(value)):
                break
            step *= 0.5
            if step < 1e-18:
                if trial_value > value:
                    raise NumericalError(
                        "elastic-net line search stalled: below a step of "
                        "1e-18 the objective still rises; rescale the predictors"
                    )
                break
        coef, value, grad = trial, trial_value, trial_grad
        step *= 1.1  # gentle growth so halving stays responsive
        if on_iterate is not None:
            on_iterate(value + cfg.l1 * float(np.sum(np.abs(coef))))
