"""Training loop: population-anchored initialization, the step's neighbor
rule, and factorized subgradient descent with personalized learning rates
and multiplicative decay.

Two numerical safeguards sit on top of the raw update rules, both only ever
shrinking a step:

* the metric-weight step is rate-limited by the objective's exact weight
  curvature (``GradientBundle.weight_curvature``); the raw global rate
  overshoots catastrophically when the match strength times the number of
  neighbor pairs is large,
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
sample equally, so the center-of-mass envelopes (``com_bounds``: the
per-iteration bound and its accumulated version) survive them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import (
    auto_radius,
    candidate_pairs,
    neighbor_pairs,
    neighbor_sets,
    precompute_cache,
)
from .model import (
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    NumericalError,
    TrainedModel,
    center_of_mass,
    check_seed,
)
from .objective import Scratch, composite_objective
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


def com_bounds(hyper: HyperParams, t: int) -> tuple:
    """Center-of-mass envelopes of step t of a squared-loss fit with
    row-normalized predictors: (movement in step t, drift after it)."""
    c = hyper.lr_decay
    drift = hyper.lr_init * (hyper.l1 + 1.0) * (1.0 - c ** (t + 1)) / (1.0 - c)
    return learning_rate(hyper, t) * (hyper.l1 + 1.0), drift


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


def resolve_pairs(
    loadings, covariates: CovariateTable, hyper: HyperParams, hint: float | None = None
) -> tuple:
    """Neighbor-ball radius and pairs of the current loadings: the pairs a
    training step evaluates the objective over.

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


def train_step(
    state: TrainState, dataset: Dataset, hyper: HyperParams, scratch: Scratch
) -> TrainState:
    """One descent iteration.

    All gradients are evaluated at the snapshot taken on entry; the weight,
    loading, and dictionary blocks then move simultaneously.  Loading column
    i is scaled by the global rate divided by the (floored) infinity-norm
    distance of its coefficients from the population anchor.  The weight
    rate is capped at the reciprocal of the objective's ``weight_curvature``,
    and the weight projection keeps the metric nonnegative.  The step's
    pair-length work arrays come from ``scratch`` (``fit`` passes one to all
    its steps); the returned state shares no memory with it.
    The neighbor search starts from the previous step's radius, which
    changes how fast it finds the radius, never which one.
    """
    fact, weights = state.factorization, state.weights
    alpha = learning_rate(hyper, state.iteration)

    radius, pairs = resolve_pairs(
        fact.loadings, dataset.covariates, hyper, hint=state.radius_used
    )
    bundle = composite_objective(fact, weights, dataset, hyper, pairs, scratch)

    curvature = bundle.weight_curvature
    rate_w = alpha if curvature <= 0.0 else min(alpha, 1.0 / curvature)
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


def fit(
    dataset: Dataset,
    hyper: HyperParams | None = None,
    seed=0,
    *,
    population_cfg: ElasticNetConfig | None = None,
    trace_fn=None,
) -> TrainedModel:
    """Full training run, returning the assembled model.

    Runs the population fit, the factorized initialization, then descent
    steps until the composite objective stalls (relative change below
    ``rel_tol``) or ``max_iters`` is reached.  Deterministic for a fixed
    seed and configuration.

    ``trace_fn``, when given, receives one record per iteration with the
    rate, objective, center-of-mass movement, and neighbor statistics;
    ``com_bounds`` gives the envelopes that movement keeps to.  ``seed``
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

        scratch = Scratch()
        for _ in range(hyper.max_iters):
            prev, state = state, train_step(state, dataset, hyper, scratch)
            if trace_fn is not None:
                t, alpha = prev.iteration, learning_rate(hyper, prev.iteration)
                com, prev_com = (center_of_mass(s.factorization) for s in (state, prev))
                record = {
                    "t": t,
                    "alpha": alpha,
                    "objective": state.last_value,
                    "com_step": float(np.max(np.abs(com - prev_com))),
                    "com_drift": float(np.max(np.abs(com - pop))),
                    "mean_neighbors": state.mean_neighbors,
                    "radius": state.radius_used,
                }
                trace_fn(record)
            if prev.last_value is not None and abs(state.last_value - prev.last_value) <= (
                hyper.rel_tol * max(1.0, abs(prev.last_value))
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
