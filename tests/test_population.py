import dataclasses
import itertools

import numpy as np
import pytest

from persreg.model import CovariateTable, Dataset
from persreg.objective import NumericalError
from persreg.population import (
    ElasticNetConfig,
    ElasticNetConvergenceError,
    _smooth_terms,
    fit_population,
    stationarity_residual,
)
from persreg.simulate import generate

from oracles import central_difference, relative_error


def make_dataset(X, y, task="regression"):
    X = np.asarray(X, dtype=float)
    return Dataset(
        predictors=X,
        responses=y,
        covariates=CovariateTable.continuous(np.zeros((X.shape[0], 1))),
        task=task,
    )


def orthogonal_design():
    # columns orthogonal with mean squared column entries 1/2, so the
    # stationarity condition reduces coordinatewise to soft thresholding of
    # the unregularized coefficient
    a = 1.0 / np.sqrt(2.0)
    X = np.array([[a, a], [a, -a], [-a, a], [-a, -a]])
    y = X[:, 0].copy()  # unregularized coefficient (1, 0)
    return X, y


class TestFitPopulation:
    def test_noiseless_line(self):
        X = np.linspace(-1, 1, 9)[:, None]
        ds = make_dataset(X, 2.0 * X[:, 0])
        cfg = ElasticNetConfig(l1=0.0, l2=0.0, rel_tol=1e-10)
        coef = fit_population(ds, cfg)
        assert coef[0] == pytest.approx(2.0, abs=1e-8)

    def test_soft_threshold_oracle(self):
        X, y = orthogonal_design()
        cfg = ElasticNetConfig(l1=0.3, l2=0.0, rel_tol=1e-12)
        coef = fit_population(make_dataset(X, y), cfg)
        # closed form: soft(1.0, 0.3) on the active coordinate, 0 elsewhere
        assert coef[0] == pytest.approx(0.7, abs=1e-10)
        assert coef[1] == pytest.approx(0.0, abs=1e-10)

    def test_huge_l1_shrinks_to_zero(self):
        X, y = orthogonal_design()
        cfg = ElasticNetConfig(l1=50.0, l2=0.0)
        coef = fit_population(make_dataset(X, y), cfg)
        assert np.array_equal(coef, np.zeros(2))

    def test_objective_never_increases(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        y = X @ np.array([1.0, -2.0, 0.0]) + 0.1 * rng.standard_normal(40)
        values = []
        fit_population(
            make_dataset(X, y),
            ElasticNetConfig(l1=0.2, l2=0.01, rel_tol=1e-10),
            on_iterate=values.append,
        )
        diffs = np.diff(np.asarray(values))
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_stationarity_residual_met(self, task):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 2))
        if task == "regression":
            y = X @ np.array([0.5, -0.25]) + 0.05 * rng.standard_normal(30)
        else:
            y = (X @ np.array([1.5, -1.0]) > 0).astype(float)
        cfg = ElasticNetConfig(l1=0.05, l2=0.01, rel_tol=1e-9, fit_task=task)
        coef = fit_population(make_dataset(X, y, task), cfg)
        _, grad = _smooth_terms(X, np.asarray(y, float), coef, cfg.l2, task)
        assert stationarity_residual(coef, grad, cfg.l1) <= 1e-9

    def test_beats_coarse_grid_search(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 2))
        y = X @ np.array([0.8, -0.4]) + 0.1 * rng.standard_normal(15)
        ds = make_dataset(X, y)
        cfg = ElasticNetConfig(l1=0.15, l2=0.02, rel_tol=1e-10)
        coef = fit_population(ds, cfg)

        def objective(c):
            return _smooth_terms(X, y, c, cfg.l2, cfg.fit_task)[0] + cfg.l1 * float(
                np.sum(np.abs(c))
            )

        grid = np.arange(-2.0, 2.0001, 0.05)
        best = min(objective(np.array(point)) for point in itertools.product(grid, grid))
        assert objective(coef) <= best + cfg.rel_tol

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_fit_task_must_be_the_dataset_task(self, task):
        X, y = orthogonal_design()
        ds = make_dataset(X, (y > 0).astype(float), task)
        other = "classification" if task == "regression" else "regression"
        with pytest.raises(ValueError, match="does not match"):
            fit_population(ds, ElasticNetConfig(l1=0.01, fit_task=other))
        cfg = ElasticNetConfig(l1=0.01, fit_task=task)
        assert np.all(np.isfinite(fit_population(ds, cfg)))

    def test_non_convergence_carries_iterate(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        cfg = ElasticNetConfig(l1=0.01, l2=0.0, max_iters=2, rel_tol=1e-14)
        with pytest.raises(ElasticNetConvergenceError) as err:
            fit_population(make_dataset(X, y), cfg)
        assert err.value.coef.shape == (4,)
        assert err.value.residual > 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("huge", [1e200, 1.7e308])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_non_finite_trial_is_a_numerical_error(self, huge, task):
        # finite predictors whose products overflow: no step from the
        # failed trial can be checked, so it is refused, not accepted
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        X[4, 1] = huge
        y = X[:, 0] if task == "regression" else (X[:, 0] > 0).astype(float)
        cfg = ElasticNetConfig(l1=0.1, fit_task=task)
        with pytest.raises(NumericalError, match="non-finite"):
            fit_population(make_dataset(X, y, task), cfg)

    def test_stalled_line_search_is_a_numerical_error(self):
        # predictors scaled by 1e10: no step the line search can take
        # lowers the objective, so the fit stops instead of climbing
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3)) * 1e10
        values = []
        cfg = ElasticNetConfig(l1=0.1, max_iters=50)
        with pytest.raises(NumericalError, match="line search stalled"):
            fit_population(make_dataset(X, X[:, 0] / 1e10), cfg, on_iterate=values.append)
        assert np.all(np.diff(np.asarray(values)) <= 0.0)

    def test_line_search_accepts_a_lower_trial_below_the_smallest_step(self):
        # one predictor 6e8 wide: only steps below 1e-18 meet the quadratic
        # bound, so the search stops at its last trial, a step of 2**-59,
        # and accepts it because it still lowers the objective
        X = np.full((4, 1), 6e8)
        values = []
        cfg = ElasticNetConfig(l1=0.0, max_iters=1)
        with pytest.raises(ElasticNetConvergenceError):
            fit_population(make_dataset(X, np.ones(4)), cfg, on_iterate=values.append)
        assert values == [(1.0 - 2.0**-59 * 2.0 * 6e8**2) ** 2]

    @pytest.mark.parametrize("scale, seed", [(10, 2), (100, 0), (1000, 0)])
    def test_large_responses_converge(self, scale, seed):
        # an objective in the hundreds rounds by more than 1e-15, which the
        # bound's slack must absorb or the step collapses near the optimum
        ds = generate(500, 5, 5, seed=seed).train_dataset()
        ds = dataclasses.replace(ds, responses=scale * ds.responses)
        cfg = ElasticNetConfig(l1=0.1, l2=1e-5, max_iters=2000)
        coef = fit_population(ds, cfg)
        _, grad = _smooth_terms(ds.predictors, ds.responses, coef, cfg.l2, cfg.fit_task)
        assert stationarity_residual(coef, grad, cfg.l1) <= cfg.rel_tol

    def test_smooth_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 3))
        for task in ("regression", "classification"):
            y = (
                rng.standard_normal(20)
                if task == "regression"
                else rng.integers(0, 2, 20).astype(float)
            )
            coef = rng.standard_normal(3)
            _, got = _smooth_terms(X, y, coef, 0.05, task)
            want = central_difference(
                lambda c: _smooth_terms(X, y, c, 0.05, task)[0], coef, 1e-6
            )
            assert relative_error(got, want) <= 1e-6
