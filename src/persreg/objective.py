"""Loss and regularizer values and (sub)gradients, plus the composite
objective consumed by the optimizer.

All gradients are closed form.  ``resolve_pairs`` finds a step's neighbors
as one ``metric.NeighborPairs``: ordered pairs sorted ascending by (i, j)
with their covariate distances.  The distance-matching terms iterate those
pairs in order, accumulate covariate columns and latent dimensions in
ascending order, and scatter with ``np.bincount``, which adds in sequence.
That fixed arithmetic order is a contract: a brute-force oracle that walks
pairs the same way reproduces every value bit for bit, and runs are
reproducible regardless of how the pair list was discovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import (
    NeighborPairs,
    auto_radius,
    candidate_pairs,
    neighbor_pairs,
    neighbor_sets,
)
from .model import (
    REGRESSION,
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    coefficient_matrix,
)


class NumericalError(RuntimeError):
    """Non-finite value encountered, or a line search that cannot lower the
    objective; carries the offending sample index when one is known."""

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


@dataclass(frozen=True)
class GradientBundle:
    """Composite objective value with the three gradient blocks, and the
    per-sample coefficients they were evaluated at."""

    value: float
    coefficients: np.ndarray  # p x n
    grad_loadings: np.ndarray  # q x n
    grad_dictionary: np.ndarray  # q x p
    grad_weights: np.ndarray  # k


def _logistic(z, e) -> np.ndarray:
    """The logistic link at z, given e = exp(-|z|)."""
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(z) -> np.ndarray:
    """The logistic link, elementwise, in the form that cannot overflow:
    1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, both
    read off exp(-|z|) <= 1."""
    return _logistic(z, np.exp(-np.abs(z)))


def score_terms(z, y, task: str) -> tuple:
    """Per-sample losses at linear scores z and their derivatives with
    respect to z.  Regression: squared error and -2 (y - z).
    Classification: log loss, written as max(z, 0) - y z + log1p(exp(-|z|))
    so large |z| cannot overflow, and sigmoid(z) - y, both from one
    exp(-|z|)."""
    if task == REGRESSION:
        r = y - z
        return r * r, -2.0 * r
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) - y * z + np.log1p(e), _logistic(z, e) - y


def batch_loss_terms(X, y, coefficients, task: str) -> tuple:
    """Per-sample losses (length n) and loss subgradients (p x n, column i
    for sample i) for coefficient columns (p x n) against (n, p) data."""
    z = np.einsum("ij,ji->i", X, coefficients)
    losses, slopes = score_terms(z, y, task)
    return losses, X.T * slopes[None, :]


def resolve_pairs(loadings, covariates: CovariateTable, hyper: HyperParams) -> tuple:
    """Neighbor-ball radius and pairs of the current loadings.

    One set of grid candidates gives both: the fixed radius if configured,
    otherwise the automatic choice with the neighbor target clipped to
    n - 1.  Without distance matching, or with fewer than two samples, the
    radius is None and there are no pairs.
    """
    n = loadings.shape[1]
    if n < 2 or hyper.distance_match == 0.0:
        none = np.empty(0, dtype=np.intp)
        return None, neighbor_pairs((none, none), covariates)
    if hyper.radius is not None:
        radius = float(hyper.radius)
        near = candidate_pairs(loadings, radius)
    else:
        target = min(float(hyper.target_neighbors), float(n - 1))
        radius, near = auto_radius(loadings, target)
    return radius, neighbor_pairs(neighbor_sets(near, radius), covariates)


def distance_match(loadings, weights, pairs: NeighborPairs, strength) -> tuple:
    """Distance-matching penalties and their gradients, from one pass over
    the pairs.

    Returns (per-sample values length n, grad_loadings q x n, grad_weights
    k).  Value i is (strength / 2) times the sum over i's neighbor ball of
    the squared gap between the learned covariate distance and the squared
    loading distance.  Loading column i collects
    -2 * strength * mismatch * (Z_i - Z_j) from its own ball plus the equal
    cross terms from balls it belongs to; all i-side contributions are
    scattered before the j-side ones.  The columns sum to zero by the
    antisymmetry of the pair terms.
    """
    loadings = np.asarray(loadings, dtype=float)
    weights = np.asarray(weights, dtype=float)
    i_idx, j_idx, distances = pairs
    q, n = loadings.shape
    k = distances.shape[0]
    if weights.shape != (k,):
        raise ValueError("weights length must match the number of covariates")
    grad_loadings = np.zeros((q, n), dtype=float)
    grad_weights = np.zeros(k, dtype=float)
    if strength == 0.0 or len(i_idx) == 0:
        return np.zeros(n, dtype=float), grad_loadings, grad_weights

    # mismatch rho(i,j) - ||Z_i - Z_j||^2 per pair
    rho = np.zeros(len(i_idx), dtype=float)
    for w, dist in zip(weights, distances):
        rho += w * dist
    deltas = loadings[:, i_idx] - loadings[:, j_idx]
    sq = np.zeros(len(i_idx), dtype=float)
    for delta in deltas:
        sq += delta * delta
    mis = rho - sq

    values = 0.5 * strength * np.bincount(i_idx, mis * mis, n)
    coeff = -2.0 * strength * mis
    both = np.concatenate((i_idx, j_idx))
    for d, delta in enumerate(deltas):
        contrib = coeff * delta
        grad_loadings[d] = np.bincount(both, np.concatenate((contrib, -contrib)), n)
    for idx, dist in enumerate(distances):
        grad_weights[idx] = strength * float(np.sum(np.bincount(i_idx, mis * dist, n)))
    return values, grad_loadings, grad_weights


def composite_objective(
    fact: Factorization,
    weights,
    dataset: Dataset,
    hyper: HyperParams,
    pairs: NeighborPairs,
) -> GradientBundle:
    """Value and gradients of the full training objective.

    The objective sums, over samples, the predictive loss, the l1 penalty on
    the implied coefficients, and the distance-matching penalty, plus the
    anchor term pulling the metric weights toward one, over the step's
    neighbor ``pairs`` (see ``resolve_pairs``).

    The dictionary gradient has no distance-matching contribution: that
    penalty depends on the loadings and weights only.
    """
    weights = np.asarray(weights, dtype=float)
    X, y, task = dataset.predictors, dataset.responses, dataset.task
    coefficients = coefficient_matrix(fact)

    losses, loss_grads = batch_loss_terms(X, y, coefficients, task)
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NumericalError(f"non-finite loss for sample {bad}", sample=bad)

    penalty_value = hyper.l1 * float(np.sum(np.abs(coefficients)))
    # exactly zero at zero coordinates: the subgradient choice the
    # center-of-mass analysis assumes
    penalty_grads = hyper.l1 * np.sign(coefficients)
    data_grads = loss_grads + penalty_grads  # p x n

    match_vals, match_gz, match_gw = distance_match(
        fact.loadings, weights, pairs, hyper.distance_match
    )

    anchor_diff = weights - 1.0
    value = (
        float(np.sum(losses))
        + penalty_value
        + float(np.sum(match_vals))
        + hyper.weights_anchor * float(anchor_diff @ anchor_diff)
    )
    grad_loadings = fact.dictionary @ data_grads + match_gz
    grad_dictionary = fact.loadings @ data_grads.T
    grad_weights = match_gw + 2.0 * hyper.weights_anchor * anchor_diff

    if not (
        np.isfinite(value)
        and np.all(np.isfinite(grad_loadings))
        and np.all(np.isfinite(grad_dictionary))
        and np.all(np.isfinite(grad_weights))
    ):
        raise NumericalError("non-finite gradient in composite objective")
    return GradientBundle(
        value=value,
        coefficients=coefficients,
        grad_loadings=grad_loadings,
        grad_dictionary=grad_dictionary,
        grad_weights=grad_weights,
    )
