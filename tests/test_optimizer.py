import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from persreg import metric, objective, optimizer
from persreg.model import (
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    center_of_mass,
    coefficient_matrix,
)
from persreg.objective import Scratch, composite_objective, distance_match, resolve_pairs
from persreg.optimizer import (
    TrainState,
    _drift_bound,
    fit,
    initialize,
    learning_rate,
    train_step,
)
from persreg.population import ElasticNetConfig, fit_population
from persreg.simulate import generate


def small_dataset(rng, n=12, p=2, k=2, task="regression"):
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    if task == "classification":
        y = (y > 0).astype(float)
    return Dataset(
        predictors=X,
        responses=y,
        covariates=CovariateTable.continuous(rng.uniform(size=(n, k))),
        task=task,
    )


class TestInitialize:
    def test_rank_one_reproduction(self):
        rng = np.random.default_rng(0)
        ds = small_dataset(rng, n=20, p=3)
        pop = np.array([1.0, -2.0, 0.5])
        hyper = HyperParams(latent_dim=1, init_noise=1e-10)
        state = initialize(ds, hyper, pop, seed=1)
        theta = coefficient_matrix(state.factorization)
        assert np.max(np.abs(theta - pop[:, None])) <= 1e-7

    def test_truncation_matches_full_svd_oracle(self):
        rng = np.random.default_rng(1)
        ds = small_dataset(rng, n=15, p=4)
        pop = rng.standard_normal(4)
        hyper = HyperParams(latent_dim=2, init_noise=0.3)
        state = initialize(ds, hyper, pop, seed=2)
        # rebuild the noisy start deterministically
        noise = np.random.default_rng(2).standard_normal((4, 15))
        unit = pop / np.linalg.norm(pop)
        noise -= np.outer(unit, unit @ noise)
        noise -= noise.mean(axis=1, keepdims=True)
        base = pop[:, None] + 0.3 * noise
        got = np.linalg.norm(base - coefficient_matrix(state.factorization))
        u, s, vt = scipy.linalg.svd(base, full_matrices=False)
        best = np.linalg.norm(base - (u[:, :2] * s[:2]) @ vt[:2])
        assert got <= best + 1e-8

    def test_weights_start_at_one(self):
        rng = np.random.default_rng(2)
        ds = small_dataset(rng, k=4)
        state = initialize(ds, HyperParams(), np.zeros(2), seed=0)
        assert np.array_equal(state.weights, np.ones(4))

    def test_center_of_mass_matches_anchor_exactly(self):
        rng = np.random.default_rng(3)
        for q in (1, 2):
            ds = small_dataset(rng, n=30, p=3)
            pop = rng.standard_normal(3)
            state = initialize(ds, HyperParams(latent_dim=q), pop, seed=5)
            drift = np.max(np.abs(center_of_mass(state.factorization) - pop))
            assert drift <= 1e-12

    def test_latent_dim_bound(self):
        rng = np.random.default_rng(4)
        ds = small_dataset(rng, n=3, p=2)
        with pytest.raises(ValueError, match="latent_dim"):
            initialize(ds, HyperParams(latent_dim=3), np.zeros(2), seed=0)

    def test_population_shape_checked(self):
        ds = small_dataset(np.random.default_rng(4), p=2)
        with pytest.raises(ValueError, match=r"must have shape \(2,\)"):
            initialize(ds, HyperParams(), np.zeros(3), seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        ds = small_dataset(rng)
        a = initialize(ds, HyperParams(), np.zeros(2), seed=9)
        b = initialize(ds, HyperParams(), np.zeros(2), seed=9)
        assert np.array_equal(a.factorization.loadings, b.factorization.loadings)
        assert np.array_equal(a.factorization.dictionary, b.factorization.dictionary)


def manual_state(loadings, dictionary, pop, k=1):
    return TrainState(
        factorization=Factorization(
            loadings=np.asarray(loadings, float),
            dictionary=np.asarray(dictionary, float),
        ),
        weights=np.ones(k),
        population_coef=np.asarray(pop, float),
        iteration=0,
        last_value=None,
    )


class TestTrainStep:
    def test_hand_computed_scalar_instance(self):
        # two samples, one predictor, one latent dimension, data terms only
        x = np.array([0.5, -1.0])
        y = np.array([1.0, 0.4])
        z = np.array([[0.8, -0.6]])
        d = np.array([[1.5]])
        pop = np.array([0.2])
        ds = Dataset(
            predictors=x[:, None],
            responses=y,
            covariates=CovariateTable.continuous(np.zeros((2, 1))),
        )
        hyper = HyperParams(
            l1=0.0, distance_match=0.0, weights_anchor=0.0, latent_dim=1,
            lr_init=1e-3, rate_floor=1e-2,
        )
        state = manual_state(z, d, pop)
        out = train_step(state, ds, hyper)

        theta = d[0, 0] * z[0]
        g = -2.0 * (y - x * theta) * x
        rates = hyper.lr_init / np.maximum(hyper.rate_floor, np.abs(theta - pop[0]))
        want_z = z[0] - rates * (d[0, 0] * g)
        want_d = d[0, 0] - hyper.lr_init * (z[0, 0] * g[0] + z[0, 1] * g[1])
        assert np.allclose(out.factorization.loadings[0], want_z, rtol=1e-15)
        assert out.factorization.dictionary[0, 0] == pytest.approx(want_d, rel=1e-15)
        assert np.array_equal(out.weights, np.ones(1))
        assert out.iteration == 1

    def test_fixed_point_at_perfect_fit(self):
        rng = np.random.default_rng(6)
        theta = rng.standard_normal((2, 6))
        X = rng.standard_normal((6, 2))
        y = np.einsum("ij,ji->i", X, theta)
        ds = Dataset(
            predictors=X,
            responses=y,
            covariates=CovariateTable.continuous(rng.uniform(size=(6, 1))),
        )
        hyper = HyperParams(l1=0.0, distance_match=0.0, weights_anchor=0.0)
        state = manual_state(theta, np.eye(2), np.zeros(2))
        out = train_step(state, ds, hyper)
        assert np.array_equal(out.factorization.loadings, theta)
        assert np.array_equal(out.factorization.dictionary, np.eye(2))
        assert np.array_equal(out.weights, np.ones(1))
        assert out.iteration == 1

    def test_weights_stay_nonnegative(self):
        inst = generate(30, 2, 3, seed=11)
        ds = inst.train_dataset()
        hyper = HyperParams(max_iters=0)
        pop_cfg = ElasticNetConfig(l1=hyper.l1)
        from persreg.population import fit_population

        state = initialize(ds, hyper, fit_population(ds, pop_cfg), seed=11)
        for _ in range(40):
            state = train_step(state, ds, hyper)
            assert np.all(state.weights >= 0.0)

    def test_rate_schedule_is_exact(self):
        hyper = HyperParams()
        for t in (0, 1, 7, 123):
            assert learning_rate(hyper, t) == hyper.lr_init * hyper.lr_decay**t


def scratch_arrays(scratch):
    return list(scratch._arrays.values())


def state_arrays(state):
    fact = state.factorization
    return [fact.loadings, fact.dictionary, state.weights, state.population_coef]


class TestScratch:
    """A fit's steps share one ``Scratch``; sharing it changes no byte."""

    @staticmethod
    def start(radius=None, seed=5):
        ds = generate(80, 3, 3, seed=seed).train_dataset()
        hyper = HyperParams(radius=radius, lr_init=5e-2, init_noise=0.3)
        pop = fit_population(ds, ElasticNetConfig(l1=hyper.l1))
        return ds, hyper, initialize(ds, hyper, pop, seed=seed)

    def test_nothing_from_the_scratch_escapes_a_step(self):
        ds, hyper, state = self.start()
        scratch = Scratch()
        fact = state.factorization
        _, pairs = resolve_pairs(fact.loadings, ds.covariates, hyper)
        matched = distance_match(
            fact.loadings, state.weights, pairs, hyper.distance_match, scratch
        )
        bundle = composite_objective(fact, state.weights, ds, hyper, pairs, scratch)
        first = train_step(state, ds, hyper, scratch)
        before = [a.tobytes() for a in state_arrays(first)]
        train_step(first, ds, hyper, scratch)

        assert [a.tobytes() for a in state_arrays(first)] == before
        held = scratch_arrays(scratch)
        assert held
        returned = state_arrays(first) + list(matched) + [
            bundle.coefficients,
            bundle.grad_loadings,
            bundle.grad_dictionary,
            bundle.grad_weights,
        ]
        for a in returned:
            assert not any(np.shares_memory(a, b) for b in held)

    def test_shared_scratch_matches_fresh_ones_as_the_pair_count_moves(self):
        # a fixed radius lets the pair count fall and then grow past its
        # first value, so the shared arrays are both too long and too short
        ds, hyper, start = self.start(radius=0.1)
        scratch = Scratch()
        shared, fresh = start, start
        counts = []
        for _ in range(12):
            shared = train_step(shared, ds, hyper, scratch)
            fresh = train_step(fresh, ds, hyper)
            counts.append(shared.mean_neighbors)
            for a, b in zip(state_arrays(shared), state_arrays(fresh)):
                assert a.tobytes() == b.tobytes()
            assert shared.last_value == fresh.last_value
        assert min(counts) < counts[0] < max(counts)

    def test_distance_match_after_a_larger_pair_set_matches_a_fresh_call(self):
        ds, hyper, state = self.start()
        loadings = state.factorization.loadings
        weights = np.linspace(0.5, 1.5, ds.k)
        wide = resolve_pairs(loadings, ds.covariates, HyperParams(radius=1.0))[1]
        narrow = resolve_pairs(loadings, ds.covariates, HyperParams(radius=0.05))[1]
        assert 0 < len(narrow.i_idx) < len(wide.i_idx)

        scratch = Scratch()
        distance_match(loadings, weights, wide, 2.0, scratch)
        got = distance_match(loadings, weights, narrow, 2.0, scratch)
        want = distance_match(loadings, weights, narrow, 2.0)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_fit_hands_one_scratch_to_every_step(self, monkeypatch):
        seen = []
        step = optimizer.train_step

        def recording(state, dataset, hyper, scratch=None):
            seen.append(scratch)
            return step(state, dataset, hyper, scratch)

        monkeypatch.setattr(optimizer, "train_step", recording)
        ds = generate(40, 2, 3, seed=8).train_dataset()
        fit(ds, HyperParams(max_iters=5, rel_tol=1e-300), seed=8)
        assert len(seen) == 5
        assert isinstance(seen[0], Scratch)
        assert all(s is seen[0] for s in seen)


class TestRadiusHint:
    """Each step's neighbor search starts from the previous step's radius,
    and that hint is what lets a default fit size its grid right the first
    time.  The counts are deterministic, so a change that loses the hint,
    or makes it miss, fails here instead of only in the benchmark."""

    def test_each_step_hints_the_last_radius_and_takes_one_grid(self, monkeypatch):
        calls = []
        grid, search = metric._grid, metric.auto_radius

        def counting_grid(*args):
            calls[-1]["grids"] += 1
            return grid(*args)

        def recording_search(loadings, target_avg, hint=None):
            calls.append({"hint": hint, "grids": 0})
            return search(loadings, target_avg, hint)

        monkeypatch.setattr(metric, "_grid", counting_grid)
        for module in (metric, objective):
            monkeypatch.setattr(module, "auto_radius", recording_search)
        records = []
        ds = generate(500, 5, 5, seed=1).train_dataset()
        fit(ds, HyperParams(max_iters=60), seed=1, trace_fn=records.append)

        assert len(records) == len(calls) == 60
        assert calls[0]["hint"] is None
        assert [c["hint"] for c in calls[1:]] == [r["radius"] for r in records[:-1]]
        assert [c["grids"] for c in calls] == [1] * 60


class TestFit:
    def test_zero_iterations_returns_initialization(self):
        inst = generate(25, 2, 3, seed=4)
        ds = inst.train_dataset()
        hyper = HyperParams(max_iters=0)
        model = fit(ds, hyper, seed=4)
        from persreg.population import fit_population

        pop = fit_population(
            ds, ElasticNetConfig(l1=hyper.l1, l2=1e-4 * hyper.l1)
        )
        state = initialize(ds, hyper, pop, seed=4)
        assert np.array_equal(
            model.factorization.loadings, state.factorization.loadings
        )
        assert np.array_equal(
            model.factorization.dictionary, state.factorization.dictionary
        )
        assert np.array_equal(model.weights, np.ones(3))

    def test_default_settings_when_none_given(self):
        ds = generate(20, 2, 2, seed=3).train_dataset()
        model = fit(ds, seed=3)
        assert model.hyper == HyperParams()
        again = fit(ds, HyperParams(), seed=3)
        assert np.array_equal(model.factorization.loadings, again.factorization.loadings)

    @staticmethod
    def mixed_dataset(n):
        rng = np.random.default_rng(12)
        cols = [rng.uniform(size=n) for _ in range(3)] + [
            np.array([f"c{v}" for v in rng.integers(0, 6, n)], dtype=object)
            for _ in range(2)
        ]
        return Dataset(
            predictors=rng.standard_normal((n, 3)),
            responses=rng.standard_normal(n),
            covariates=CovariateTable.from_columns(
                cols, ["continuous"] * 3 + ["categorical"] * 2
            ),
        )

    @staticmethod
    def fit_peak_bytes(ds, hyper):
        tracemalloc.start()
        try:
            fit(ds, hyper, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_zero_iteration_fit_memory_stays_linear(self):
        # the dense (k, n, n) per-covariate distances would take 360 MB here
        ds = self.mixed_dataset(3000)
        assert self.fit_peak_bytes(ds, HyperParams(max_iters=0)) < 20e6

    def test_training_steps_memory_stays_linear(self):
        # a dense (n, n) neighbor pass would take 200 MB per matrix here
        ds = self.mixed_dataset(5000)
        assert self.fit_peak_bytes(ds, HyperParams(max_iters=3)) < 40e6

    def test_deterministic_end_to_end(self):
        inst = generate(40, 2, 3, seed=8)
        ds = inst.train_dataset()
        hyper = HyperParams(max_iters=25)
        a = fit(ds, hyper, seed=8)
        b = fit(ds, hyper, seed=8)
        assert np.array_equal(a.factorization.loadings, b.factorization.loadings)
        assert np.array_equal(a.factorization.dictionary, b.factorization.dictionary)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.population_coef, b.population_coef)

    def test_trace_alpha_follows_decay_schedule(self):
        inst = generate(25, 2, 3, seed=14)
        ds = inst.train_dataset()
        hyper = HyperParams(max_iters=12)
        records = []
        fit(ds, hyper, seed=14, trace_fn=records.append)
        for r in records:
            assert r["alpha"] == hyper.lr_init * hyper.lr_decay ** r["t"]

    def test_drift_bound_geometric_limit(self):
        hyper = HyperParams(lr_init=0.1, lr_decay=0.5, l1=1.0)
        assert _drift_bound(hyper, 10_000) == pytest.approx(0.4)

    def test_instrumented_run_respects_drift_limit(self):
        inst = generate(30, 2, 3, seed=21, normalize_rows=True)
        ds = inst.train_dataset()
        hyper = HyperParams(
            lr_init=0.1, lr_decay=0.5, l1=1.0, distance_match=0.0,
            rate_floor=1.0, max_iters=60, rel_tol=1e-14,
        )
        records = []
        fit(ds, hyper, seed=21, instrument=True, trace_fn=records.append)
        assert all(r["com_drift"] <= 0.4 + 1e-8 for r in records)

    def test_per_step_center_of_mass_bound(self):
        # squared loss with row-normalized predictors and a fully active
        # population fit keeps every step of the coefficient average within
        # the rate-times-(l1+1) limit
        checked = 0
        seed = 0
        while checked < 4:
            inst = generate(40, 2, 3, seed=seed, normalize_rows=True)
            ds = inst.train_dataset()
            pop_cfg = ElasticNetConfig(l1=0.1, l2=0.0, rel_tol=1e-10)
            from persreg.population import fit_population

            pop = fit_population(ds, pop_cfg)
            seed += 1
            if np.min(np.abs(pop)) <= 0.05:
                continue
            hyper = HyperParams(
                distance_match=1.0, rate_floor=1.0, max_iters=80, rel_tol=1e-14
            )
            records = []
            fit(
                ds,
                hyper,
                seed=seed,
                population_cfg=pop_cfg,
                instrument=True,
                trace_fn=records.append,
            )
            assert records, "no iterations traced"
            for r in records:
                assert r["com_step"] <= r["step_bound"] + 1e-10
            checked += 1

    def test_recovery_improves_over_population_smoke(self):
        inst = generate(150, 2, 5, seed=2)
        ds = inst.train_dataset()
        omega = inst.coefficients_true[:, inst.train_rows]
        model = fit(ds, HyperParams(max_iters=400), seed=2)
        pop_err = np.linalg.norm(model.population_coef[:, None] - omega)
        fit_err = np.linalg.norm(coefficient_matrix(model.factorization) - omega)
        assert fit_err < pop_err

    def test_classification_fit_runs(self):
        rng = np.random.default_rng(9)
        inst = generate(40, 2, 2, seed=9)
        ds = inst.dataset
        labels = (ds.responses > np.median(ds.responses)).astype(float)
        clf = Dataset(
            predictors=ds.predictors,
            responses=labels,
            covariates=ds.covariates,
            task="classification",
        )
        model = fit(clf, HyperParams(max_iters=20), seed=9)
        assert model.task == "classification"

    @pytest.mark.parametrize(
        "seed, message",
        [(True, "seed must be an integer, got True"),
         (None, "seed must be an integer, got None"),
         (1.5, "seed must be an integer, got 1.5"),
         (-1, "seed must be >= 0, got -1")],
    )
    def test_bad_seed_is_named_before_the_population_fit(self, monkeypatch, seed, message):
        ds = small_dataset(np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{message}$"):
            initialize(ds, HyperParams(), np.zeros(ds.p), seed=seed)
        monkeypatch.setattr("persreg.optimizer.fit_population",
                            lambda *args: pytest.fail("population fit ran"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit(ds, HyperParams(max_iters=0), seed=seed)

    def test_integer_numpy_seed_is_the_same_seed(self):
        ds = small_dataset(np.random.default_rng(0))
        want = fit(ds, HyperParams(max_iters=2), seed=3)
        got = fit(ds, HyperParams(max_iters=2), seed=np.int64(3))
        assert np.array_equal(got.factorization.loadings, want.factorization.loadings)

    def test_population_config_of_another_task_rejected(self):
        # a squared-loss anchor for 0/1 labels is not stationary for the
        # logistic loss that training uses
        clf = small_dataset(np.random.default_rng(2), n=30, task="classification")
        with pytest.raises(ValueError, match="fit_task 'regression'"):
            fit(clf, HyperParams(max_iters=1), population_cfg=ElasticNetConfig(l1=0.01))
