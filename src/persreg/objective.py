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

Loading rows are gathered with ``take``, one row at a time, into ``out=``
arrays: a 2-D fancy index of the loadings gives the same bytes several
times slower.  The pair-length work arrays of a step come from a
``Scratch`` that lives for one fit and is handed to each of its steps, so
a step does not map fresh memory for them; nothing a ``Scratch`` holds is
ever returned, and every value a step returns is a fresh array.
"""

from __future__ import annotations

import math
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
    NumericalError,
    coefficient_matrix,
)


@dataclass(frozen=True)
class GradientBundle:
    """Composite objective value with the three gradient blocks, and the
    per-sample coefficients they were evaluated at."""

    value: float
    coefficients: np.ndarray  # p x n
    grad_loadings: np.ndarray  # q x n
    grad_dictionary: np.ndarray  # q x p
    grad_weights: np.ndarray  # k


class Scratch:
    """Work arrays reused by the steps of one fit.

    ``take(name, *shape)`` hands out a view of the array kept under
    ``name``, replaced by a larger one when it is too short.  Its contents
    are whatever the last step left there, so a user writes every entry
    before reading it, and never returns the view or anything that shares
    its memory: the next step overwrites it.
    """

    def __init__(self):
        self._arrays = {}

    def take(self, name: str, *shape: int, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or len(array) < size:
            array = self._arrays[name] = np.empty(size, dtype=dtype)
        return array[:size].reshape(shape)


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


def resolve_pairs(
    loadings, covariates: CovariateTable, hyper: HyperParams, hint: float | None = None
) -> tuple:
    """Neighbor-ball radius and pairs of the current loadings.

    One set of grid candidates gives both: the fixed radius if configured,
    otherwise the automatic choice with the neighbor target clipped to
    n - 1, whose search starts from ``hint`` (``metric.auto_radius``).
    Without distance matching, or with fewer than two samples, the radius
    is None and there are no pairs.
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
        radius, near = auto_radius(loadings, target, hint)
    return radius, neighbor_pairs(neighbor_sets(near, radius), covariates)


def distance_match(
    loadings, weights, pairs: NeighborPairs, strength, scratch: Scratch | None = None
) -> tuple:
    """Distance-matching penalties and their gradients, from one pass over
    the pairs.

    Returns (per-sample values length n, grad_loadings q x n, grad_weights
    k).  Value i is (strength / 2) times the sum over i's neighbor ball of
    the squared gap between the learned covariate distance and the squared
    loading distance.  Loading column i collects
    -2 * strength * mismatch * (Z_i - Z_j) from its own ball plus the equal
    cross terms from balls it belongs to; all i-side contributions are
    scattered before the j-side ones.  The columns sum to zero by the
    antisymmetry of the pair terms.  The pair-length work arrays come from
    ``scratch``, a fresh one when it is None.
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
    m = len(i_idx)
    if strength == 0.0 or m == 0:
        return np.zeros(n, dtype=float), grad_loadings, grad_weights
    if scratch is None:
        scratch = Scratch()
    term = scratch.take("term", m)

    # mismatch rho(i,j) - ||Z_i - Z_j||^2 per pair
    rho = scratch.take("rho", m)
    rho.fill(0.0)
    for w, dist in zip(weights, distances):
        rho += np.multiply(w, dist, out=term)
    deltas = scratch.take("deltas", q, m)
    sq = scratch.take("sq", m)
    sq.fill(0.0)
    for row, delta in zip(loadings, deltas):
        # "clip" writes straight into out= where "raise" buffers a copy; an
        # index outside [0, n) still fails, in the bincounts below
        row.take(i_idx, out=delta, mode="clip")
        delta -= row.take(j_idx, out=term, mode="clip")
        sq += np.multiply(delta, delta, out=term)
    mis = np.subtract(rho, sq, out=rho)

    values = 0.5 * strength * np.bincount(i_idx, np.multiply(mis, mis, out=term), n)
    coeff = np.multiply(-2.0 * strength, mis, out=sq)
    both = np.concatenate((i_idx, j_idx), out=scratch.take("both", 2 * m, dtype=np.intp))
    signed = scratch.take("signed", 2 * m)
    contrib, mirrored = signed[:m], signed[m:]
    for d, delta in enumerate(deltas):
        np.multiply(coeff, delta, out=contrib)
        np.negative(contrib, out=mirrored)
        grad_loadings[d] = np.bincount(both, signed, n)
    for idx, dist in enumerate(distances):
        grad_weights[idx] = strength * float(
            np.sum(np.bincount(i_idx, np.multiply(mis, dist, out=term), n))
        )
    return values, grad_loadings, grad_weights


def composite_objective(
    fact: Factorization,
    weights,
    dataset: Dataset,
    hyper: HyperParams,
    pairs: NeighborPairs,
    scratch: Scratch | None = None,
) -> GradientBundle:
    """Value and gradients of the full training objective.

    The objective sums, over samples, the predictive loss, the l1 penalty on
    the implied coefficients, and the distance-matching penalty, plus the
    anchor term pulling the metric weights toward one, over the step's
    neighbor ``pairs`` (see ``resolve_pairs``).

    The dictionary gradient has no distance-matching contribution: that
    penalty depends on the loadings and weights only.  ``scratch`` is
    passed to ``distance_match``.
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
        fact.loadings, weights, pairs, hyper.distance_match, scratch
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
