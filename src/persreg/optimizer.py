"""Training loop: population-anchored initialization, factorized subgradient
descent with personalized learning rates and multiplicative decay.

Two numerical safeguards sit on top of the raw update rules, both only ever
shrinking a step:

* the metric-weight step is rate-limited by the curvature of the
  distance-matching term, which is an exact quadratic in the weights; the
  raw global rate overshoots catastrophically when the match strength times
  the number of neighbor pairs is large,
* the loading block backs off by one shared scalar whenever its largest
  per-sample step would exceed the neighbor-ball radius, since such a step
  invalidates the neighbor structure the gradient was built on.

At the defaults (``generate(500, 5, 5, seed)``, seeds 0-2) the weight-rate
cap binds on every step measured, at about 3e-5 of the global rate through
step 1000.  The loading back-off acts only early: it scales the step by
about 2e-6 at step 0 and 1e-4 to 5e-4 at step 100, and is idle by step 500.
The dictionary block has no safeguard: it steps at the bare global rate, so
responses 100 times the simulated ones make a default fit diverge (README).

Neither safeguard can increase a step, and the backoff rescales every
sample equally, so the center-of-mass bookkeeping (the per-iteration bound
and its accumulated version, checked in instrumented runs) survives them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import precompute_cache
from .model import (
    REGRESSION,
    Dataset,
    Factorization,
    HyperParams,
    NumericalError,
    TrainedModel,
    center_of_mass,
    check_seed,
)
from .objective import Scratch, composite_objective, resolve_pairs
from .population import ElasticNetConfig, fit_population


@dataclass(frozen=True)
class TrainState:
    """Optimizer state between iterations (immutable)."""

    factorization: Factorization
    weights: np.ndarray
    population_coef: np.ndarray
    iteration: int
    last_value: float | None
    mean_neighbors: float = 0.0
    radius_used: float | None = None


def learning_rate(hyper: HyperParams, iteration: int) -> float:
    """Global rate at an iteration: lr_init * lr_decay ** iteration."""
    return hyper.lr_init * hyper.lr_decay**iteration


def initialize(dataset: Dataset, hyper: HyperParams, population_coef, seed=0) -> TrainState:
    """Factorized start centered on the population coefficients.

    Every sample's coefficient column starts at the population vector plus a
    small Gaussian perturbation (scale ``init_noise``); the perturbation is
    centered across samples and projected off the population direction so
    the initial center of mass is the population vector to machine
    precision.  The truncated SVD then gives the best rank-q factorization
    of that matrix.  Metric weights start at one.  Start loadings that
    overflow float64 raise ``NumericalError``; ``seed`` must be an integer
    >= 0.
    """
    check_seed(seed)
    p, n = dataset.p, dataset.n
    q = hyper.latent_dim
    if q > min(p, n):
        raise ValueError(f"latent_dim {q} exceeds min(p={p}, n={n})")
    pop = np.asarray(population_coef, dtype=float)
    if pop.shape != (p,):
        raise ValueError(f"population coefficients must have shape ({p},)")

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((p, n))
    norm = float(np.linalg.norm(pop))
    if norm > 0.0:
        unit = pop / norm
        noise -= np.outer(unit, unit @ noise)
    noise -= noise.mean(axis=1, keepdims=True)

    base = pop[:, None] + hyper.init_noise * noise
    left, spectrum, right_t = np.linalg.svd(base, full_matrices=False)
    loadings = spectrum[:q, None] * right_t[:q]
    if not np.all(np.isfinite(loadings)):
        raise NumericalError("non-finite start loadings")
    return TrainState(
        factorization=Factorization(loadings=loadings, dictionary=left[:, :q].T),
        weights=np.ones(dataset.k, dtype=float),
        population_coef=pop,
        iteration=0,
        last_value=None,
    )


def _weight_rate_limit(alpha: float, pair_distances, hyper, scratch: Scratch) -> float:
    """Stable scalar rate for the weight block.

    The distance-matching penalty is quadratic in the weights with Hessian
    trace  strength * sum over pairs of squared covariate distances, plus
    2 * anchor per covariate.  A gradient step is safe below the reciprocal
    of that trace, and the configured rate is used whenever it already is.
    ``pair_distances`` holds the (k, P) per-covariate distances of the pairs.
    """
    square = scratch.take("term", pair_distances.shape[1])
    total = hyper.distance_match * sum(
        float(np.sum(np.multiply(d, d, out=square))) for d in pair_distances
    )
    total += 2.0 * hyper.weights_anchor * pair_distances.shape[0]
    if total <= 0.0:
        return alpha
    return min(alpha, 1.0 / total)


def train_step(
    state: TrainState, dataset: Dataset, hyper: HyperParams, scratch: Scratch | None = None
) -> TrainState:
    """One descent iteration.

    All gradients are evaluated at the snapshot taken on entry; the weight,
    loading, and dictionary blocks then move simultaneously.  Loading column
    i is scaled by the global rate divided by the (floored) infinity-norm
    distance of its coefficients from the population anchor.  The weight
    projection keeps the metric nonnegative.  The step's pair-length work
    arrays come from ``scratch`` (``fit`` passes one to all its steps), a
    fresh one when it is None; the returned state shares no memory with it.
    The neighbor search starts from the previous step's radius, which
    changes how fast it finds the radius, never which one.
    """
    if scratch is None:
        scratch = Scratch()
    fact, weights = state.factorization, state.weights
    alpha = learning_rate(hyper, state.iteration)

    radius, pairs = resolve_pairs(
        fact.loadings, dataset.covariates, hyper, hint=state.radius_used
    )
    bundle = composite_objective(fact, weights, dataset, hyper, pairs, scratch)

    rate_w = _weight_rate_limit(alpha, pairs.distances, hyper, scratch)
    new_weights = np.maximum(0.0, weights - rate_w * bundle.grad_weights)

    anchor_dist = np.max(
        np.abs(bundle.coefficients - state.population_coef[:, None]), axis=0
    )
    rates = alpha / np.maximum(hyper.rate_floor, anchor_dist)
    step_loadings = rates[None, :] * bundle.grad_loadings
    if radius is not None:
        # back the whole block off so no loading moves past the
        # neighbor-ball radius; one shared scalar keeps the scaling uniform
        norms = np.sqrt(np.sum(step_loadings * step_loadings, axis=0))
        largest = float(np.max(norms))
        cap = np.sqrt(radius)
        if largest > cap:
            step_loadings *= cap / largest

    new_loadings = fact.loadings - step_loadings
    new_dictionary = fact.dictionary - alpha * bundle.grad_dictionary
    if not (
        np.all(np.isfinite(new_loadings))
        and np.all(np.isfinite(new_dictionary))
        and np.all(np.isfinite(new_weights))
    ):
        raise NumericalError(f"non-finite update at iteration {state.iteration}")

    return TrainState(
        factorization=Factorization(loadings=new_loadings, dictionary=new_dictionary),
        weights=new_weights,
        population_coef=state.population_coef,
        iteration=state.iteration + 1,
        last_value=bundle.value,
        mean_neighbors=len(pairs.i_idx) / dataset.n,
        radius_used=radius,
    )


def _drift_bound(hyper: HyperParams, tau: int) -> float:
    c = hyper.lr_decay
    return hyper.lr_init * (hyper.l1 + 1.0) * (1.0 - c**tau) / (1.0 - c)


def fit(
    dataset: Dataset,
    hyper: HyperParams | None = None,
    seed=0,
    *,
    population_cfg: ElasticNetConfig | None = None,
    instrument: bool = False,
    trace_fn=None,
) -> TrainedModel:
    """Full training run, returning the assembled model.

    Runs the population fit, the factorized initialization, then descent
    steps until the composite objective stalls (relative change below
    ``rel_tol``) or ``max_iters`` is reached.  Deterministic for a fixed
    seed and configuration.

    ``trace_fn``, when given, receives one record per iteration with the
    rate, objective, center-of-mass movement, and neighbor statistics.
    With ``instrument`` set and a regression task, records also carry the
    theoretical per-step and accumulated center-of-mass bounds.  ``seed``
    must be an integer >= 0, checked before the population fit.  One
    ``Scratch`` holds the pair-length work arrays of every step, as
    ``train_step``'s ``scratch``, and is dropped when the fit returns.
    """
    check_seed(seed)
    if hyper is None:
        hyper = HyperParams()
    if population_cfg is None:
        population_cfg = ElasticNetConfig(
            l1=hyper.l1, l2=1e-4 * hyper.l1, fit_task=dataset.task
        )
    # an overflow ends in one checked NumericalError, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        pop = fit_population(dataset, population_cfg)
        precompute_cache(dataset.covariates)
        state = initialize(dataset, hyper, pop, seed)

        tracing = trace_fn is not None
        com = center_of_mass(state.factorization) if tracing else None
        scratch = Scratch()
        for _ in range(hyper.max_iters):
            prev_value = state.last_value
            alpha = learning_rate(hyper, state.iteration)
            step_index = state.iteration
            state = train_step(state, dataset, hyper, scratch=scratch)
            if tracing:
                new_com = center_of_mass(state.factorization)
                record = {
                    "t": step_index,
                    "alpha": alpha,
                    "objective": state.last_value,
                    "com_step": float(np.max(np.abs(new_com - com))),
                    "com_drift": float(np.max(np.abs(new_com - pop))),
                    "mean_neighbors": state.mean_neighbors,
                    "radius": state.radius_used,
                }
                if instrument and dataset.task == REGRESSION:
                    record["step_bound"] = alpha * (hyper.l1 + 1.0)
                    record["drift_bound"] = _drift_bound(hyper, step_index + 1)
                trace_fn(record)
                com = new_com
            if prev_value is not None and abs(state.last_value - prev_value) <= (
                hyper.rel_tol * max(1.0, abs(prev_value))
            ):
                break

    return TrainedModel(
        factorization=state.factorization,
        weights=state.weights,
        population_coef=pop,
        train_covariates=dataset.covariates,
        task=dataset.task,
        hyper=hyper,
    )
