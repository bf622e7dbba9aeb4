"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import time

import numpy as np

import persreg as pr
from persreg.cli import main as cli_main
from persreg.model import (
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    center_of_mass,
    coefficient_matrix,
)
from persreg.objective import (
    batch_loss_terms,
    composite_objective,
    distance_match,
)
from persreg.optimizer import fit, initialize
from persreg.population import ElasticNetConfig, fit_population
from persreg.predictor import predict_point, rank_neighbors

from oracles import (
    brute_neighbor_sets,
    central_difference,
    match_gradients_reference,
    match_values_reference,
    normalize_dictionary,
    oracle_matrices,
    pairs_within,
    pairwise_squared,
    relative_error,
)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:2d} {name}: PASS")


def random_match_instance(rng, n, q, k=None):
    k = k or int(rng.integers(1, 5))
    loadings = rng.standard_normal((q, n))
    cols, kinds = [], []
    for _ in range(k):
        if rng.uniform() < 0.7:
            cols.append(rng.uniform(size=n))
            kinds.append("continuous")
        else:
            cols.append(np.array(list(rng.choice(["a", "b", "c"], size=n)), dtype=object))
            kinds.append("categorical")
    table = CovariateTable.from_columns(cols, kinds)
    weights = rng.uniform(0.0, 2.0, size=k)
    if n >= 2:
        sq = pairwise_squared(loadings)
        vals = np.sort(sq[np.triu_indices(n, k=1)])
        radius = float(vals[int(rng.uniform(0.2, 0.8) * (len(vals) - 1))]) + 1e-9
    else:
        radius = 1.0
    strength = float(rng.uniform(0.5, 2.0))
    return loadings, weights, table, radius, strength


def test_criterion_1_matcher_never_moves_center_of_mass():
    """Summed loading gradients of the distance matcher cancel exactly."""
    with criterion(1, "matcher center-of-mass identity"):
        start = time.time()
        rng = np.random.default_rng(20240817)
        sizes = (5, 50, 500)
        dims = (1, 2, 5)
        for i in range(200):
            n = sizes[i % 3]
            q = dims[(i // 3) % 3]
            loadings, weights, table, radius, strength = random_match_instance(
                rng, n, q
            )
            pairs = pairs_within(loadings, radius, table)
            _, gz, _ = distance_match(loadings, weights, pairs, strength)
            assert np.max(np.abs(gz.sum(axis=1))) <= 1e-8
        elapsed = time.time() - start
        assert elapsed < 30.0, f"identity sweep took {elapsed:.1f}s"


def _qualifying_drift_runs(count=20, n=40):
    """Seeded squared-loss instances whose population fit is fully active.

    The center-of-mass analysis needs the population stationarity condition
    to hold as an equation; at an exact-zero coordinate it is only an
    inclusion, so such instances are skipped (deterministically).
    """
    runs, seed = [], 0
    while len(runs) < count:
        gamma = 0.0 if seed % 2 == 0 else 1.0
        p = 2 if seed % 4 < 2 else 3
        inst = pr.generate(n, p, 3, seed=seed, normalize_rows=True)
        train = inst.train_dataset()
        pop_cfg = ElasticNetConfig(l1=0.1, l2=0.0, rel_tol=1e-10)
        pop = fit_population(train, pop_cfg)
        if np.min(np.abs(pop)) > 0.05:
            runs.append((seed, gamma, train, pop, pop_cfg))
        seed += 1
    return runs


def _instrumented_records(seed, gamma, train, pop_cfg):
    hyper = HyperParams(
        distance_match=gamma,
        rate_floor=1.0,
        max_iters=150,
        rel_tol=1e-14,
    )
    records = []
    fit(
        train,
        hyper,
        seed=seed,
        population_cfg=pop_cfg,
        instrument=True,
        trace_fn=records.append,
    )
    return hyper, records


def test_criterion_2_per_step_center_of_mass_bound():
    """Every iteration moves the coefficient average by at most rate*(l1+1)."""
    with criterion(2, "per-step center-of-mass bound"):
        for seed, gamma, train, _pop, pop_cfg in _qualifying_drift_runs():
            _, records = _instrumented_records(seed, gamma, train, pop_cfg)
            assert len(records) == 150
            for r in records:
                assert r["com_step"] <= r["step_bound"] + 1e-10, (
                    f"seed {seed} step {r['t']}"
                )


def test_criterion_3_accumulated_drift_bound():
    """The coefficient average stays within the geometric drift envelope."""
    with criterion(3, "accumulated center-of-mass drift bound"):
        for seed, gamma, train, pop, pop_cfg in _qualifying_drift_runs():
            hyper, records = _instrumented_records(seed, gamma, train, pop_cfg)
            state0 = initialize(train, hyper, pop, seed=seed)
            init_drift = float(
                np.max(np.abs(center_of_mass(state0.factorization) - pop))
            )
            assert init_drift <= 1e-8  # drift bound at iteration zero
            for r in records:
                assert r["com_drift"] <= r["drift_bound"] + 1e-8, (
                    f"seed {seed} step {r['t']}"
                )


def _fit_and_score(n, p, k, seed, max_iters):
    inst = pr.generate(n, p, k, seed=seed)
    train, test = inst.train_dataset(), inst.test_dataset()
    omega_train = inst.coefficients_true[:, inst.train_rows]
    model = fit(train, HyperParams(max_iters=max_iters), seed=seed)
    pop = model.population_coef
    est = coefficient_matrix(model.factorization)
    Xt, yt = test.predictors, test.responses
    preds = np.array(
        [
            predict_point(model, Xt[i], test.covariates.row(i)).y_hat
            for i in range(len(yt))
        ]
    )
    pop_metrics = pr.evaluate_recovery(
        np.broadcast_to(pop[:, None], omega_train.shape), omega_train, Xt @ pop, yt
    )
    fit_metrics = pr.evaluate_recovery(est, omega_train, preds, yt)
    return pop_metrics, fit_metrics


def test_criterion_4_recovery_beats_population():
    """Directional reproduction of the headline simulation comparison."""
    with criterion(4, "personalized recovery and R2 beat the population fit"):
        start = time.time()
        pop_rows, fit_rows = [], []
        for seed in range(5):
            pop_m, fit_m = _fit_and_score(500, 2, 5, seed, max_iters=400)
            pop_rows.append(pop_m)
            fit_rows.append(fit_m)
        mean_pop_rec = np.mean([m.recovery for m in pop_rows])
        mean_fit_rec = np.mean([m.recovery for m in fit_rows])
        mean_pop_r2 = np.mean([m.r2 for m in pop_rows])
        mean_fit_r2 = np.mean([m.r2 for m in fit_rows])
        print(
            f"\n  recovery {mean_fit_rec:.3f} vs population {mean_pop_rec:.3f} "
            f"(ratio {mean_fit_rec / mean_pop_rec:.3f}); "
            f"R2 {mean_fit_r2:.3f} vs {mean_pop_r2:.3f}"
        )
        assert mean_fit_rec <= 0.95 * mean_pop_rec
        assert mean_fit_r2 >= mean_pop_r2
        assert time.time() - start <= 600.0


def test_criterion_5_ordering_holds_across_sizes():
    """Personalized recovery stays below population at both sample sizes."""
    with criterion(5, "recovery ordering at n=100 and n=500 (p=5)"):
        for n in (100, 500):
            pop_recs, fit_recs = [], []
            for seed in range(5):
                pop_m, fit_m = _fit_and_score(n, 5, 5, seed, max_iters=300)
                pop_recs.append(pop_m.recovery)
                fit_recs.append(fit_m.recovery)
            print(
                f"\n  n={n}: personalized {np.mean(fit_recs):.3f} "
                f"vs population {np.mean(pop_recs):.3f}"
            )
            assert np.mean(fit_recs) < np.mean(pop_recs)


def test_criterion_6_gradient_oracle():
    """All analytic gradients agree with central finite differences."""
    with criterion(6, "finite-difference gradient oracle"):
        rng = np.random.default_rng(99)
        checked = 0

        # predictive losses, both tasks
        for task in ("regression", "classification"):
            for _ in range(20):
                x = rng.standard_normal(4)
                y = (
                    float(rng.integers(0, 2))
                    if task == "classification"
                    else float(rng.normal())
                )
                coef = rng.standard_normal(4)
                X1, y1 = x[None, :], np.array([y])
                got = batch_loss_terms(X1, y1, coef[:, None], task)[1][:, 0]
                want = central_difference(
                    lambda c: float(batch_loss_terms(X1, y1, c[:, None], task)[0][0]),
                    coef,
                    1e-6,
                )
                assert relative_error(got, want) <= 1e-5
                checked += 1

        # distance matcher, loading and weight blocks
        for _ in range(20):
            n, q = 10, 2
            loadings, weights, table, radius, strength = random_match_instance(
                rng, n, q, k=2
            )
            weights = weights + 0.1
            pairs = pairs_within(loadings, radius, table)
            _, gz, gw = distance_match(loadings, weights, pairs, strength)
            want_z = central_difference(
                lambda z: float(
                    np.sum(distance_match(z.reshape(q, n), weights, pairs, strength)[0])
                ),
                loadings.ravel(),
                1e-6,
            )
            want_w = central_difference(
                lambda w: float(
                    np.sum(distance_match(loadings, w, pairs, strength)[0])
                ),
                weights,
                1e-6,
            )
            assert relative_error(gz.ravel(), want_z) <= 1e-5
            assert relative_error(gw, want_w) <= 1e-5
            checked += 1

        # composite objective, all three blocks, away from l1 kinks
        for _ in range(20):
            n, p, q, k = 8, 3, 2, 2
            X = rng.standard_normal((n, p))
            while True:
                fact = Factorization(
                    loadings=rng.standard_normal((q, n)),
                    dictionary=rng.standard_normal((q, p)),
                )
                if np.min(np.abs(coefficient_matrix(fact))) > 1e-3:
                    break
            y = rng.standard_normal(n)
            ds = Dataset(
                predictors=X,
                responses=y,
                covariates=CovariateTable.continuous(rng.uniform(size=(n, k))),
            )
            weights = rng.uniform(0.5, 1.5, size=k)
            hyper = HyperParams(
                l1=0.05,
                distance_match=1.0,
                weights_anchor=0.3,
                latent_dim=q,
                radius=3.0,
                target_neighbors=None,
            )
            pairs = pairs_within(fact.loadings, 3.0, ds.covariates)
            bundle = composite_objective(fact, weights, ds, hyper, pairs)

            def value(loadings=None, dictionary=None, w=None):
                f = Factorization(
                    loadings=fact.loadings if loadings is None else loadings,
                    dictionary=fact.dictionary if dictionary is None else dictionary,
                )
                return composite_objective(
                    f, weights if w is None else w, ds, hyper, pairs
                ).value

            assert relative_error(
                bundle.grad_loadings.ravel(),
                central_difference(
                    lambda z: value(loadings=z.reshape(q, n)),
                    fact.loadings.ravel(),
                    1e-6,
                ),
            ) <= 1e-5
            assert relative_error(
                bundle.grad_dictionary.ravel(),
                central_difference(
                    lambda d: value(dictionary=d.reshape(q, p)),
                    fact.dictionary.ravel(),
                    1e-6,
                ),
            ) <= 1e-5
            assert relative_error(
                bundle.grad_weights,
                central_difference(lambda w: value(w=w), weights, 1e-6),
            ) <= 1e-5
            checked += 1

        # population solver's smooth descent direction
        from persreg.population import _smooth_terms

        for _ in range(20):
            task = "regression" if rng.uniform() < 0.5 else "classification"
            X = rng.standard_normal((12, 3))
            y = (
                rng.standard_normal(12)
                if task == "regression"
                else rng.integers(0, 2, 12).astype(float)
            )
            coef = rng.standard_normal(3)
            _, got = _smooth_terms(X, y, coef, 0.03, task)
            want = central_difference(
                lambda c: _smooth_terms(X, y, c, 0.03, task)[0], coef, 1e-6
            )
            assert relative_error(got, want) <= 1e-5
            checked += 1

        assert checked >= 100


def test_criterion_7_spatial_index_matches_brute_force():
    """Dense-matrix neighbor queries and matcher values equal the plain
    double-loop oracle exactly."""
    with criterion(7, "neighbor query equals brute-force oracle"):
        rng = np.random.default_rng(7)
        sizes = [40, 64, 80, 120, 200, 350, 500]
        for i in range(50):
            n = sizes[i % len(sizes)]
            q = (1, 2, 3, 5)[i % 4]
            loadings, weights, table, radius, strength = random_match_instance(
                rng, n, q, k=2
            )
            pairs = pairs_within(loadings, radius, table)
            want_sets = brute_neighbor_sets(loadings, radius)
            assert np.array_equal(
                pairs.i_idx, np.repeat(np.arange(n), [len(b) for b in want_sets])
            )
            assert np.array_equal(pairs.j_idx, np.concatenate(want_sets))
            got_vals, got_gz, got_gw = distance_match(
                loadings, weights, pairs, strength
            )
            cache_mats = oracle_matrices(table)
            want_vals = match_values_reference(
                loadings, weights, cache_mats, want_sets, strength
            )
            assert np.array_equal(got_vals, want_vals)
            if i % 5 == 0:
                want_gz, want_gw = match_gradients_reference(
                    loadings, weights, cache_mats, want_sets, strength
                )
                assert np.array_equal(got_gz, want_gz)
                assert np.array_equal(got_gw, want_gw)


def test_criterion_8_normalized_dictionary_distance_bound():
    """Coefficient distances are bounded by sqrt(p) times loading distances
    once the dictionary columns are unit length."""
    with criterion(8, "factorized distance bound"):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = int(rng.integers(1, 4))
            p = int(rng.integers(q, q + 5))
            n = int(rng.integers(max(q, 2), q + 20))
            fact = normalize_dictionary(
                Factorization(
                    loadings=rng.standard_normal((q, n)),
                    dictionary=rng.standard_normal((q, p)),
                )
            )
            theta = coefficient_matrix(fact)
            for _ in range(10):
                i, j = rng.integers(0, n, size=2)
                lhs = np.linalg.norm(theta[:, i] - theta[:, j])
                rhs = np.sqrt(p) * np.linalg.norm(
                    fact.loadings[:, i] - fact.loadings[:, j]
                )
                assert lhs <= rhs + 1e-10


def test_criterion_9_prediction_contract():
    """All-neighbor averaging recovers the center of mass exactly; neighbor
    choice ignores predictors and is scale-free in the metric weights."""
    with criterion(9, "prediction assembly contract"):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, p, k = int(rng.integers(3, 25)), 3, 2
            theta = rng.standard_normal((p, n))
            table = CovariateTable.continuous(rng.uniform(size=(n, k)))
            weights = rng.uniform(0.1, 2.0, size=k)
            model = pr.TrainedModel(
                factorization=Factorization(loadings=theta, dictionary=np.eye(p)),
                weights=weights,
                population_coef=np.zeros(p),
                train_covariates=table,
                task="regression",
                hyper=HyperParams(n_neighbors=n),
            )
            u = tuple(rng.uniform(size=k))
            pred = predict_point(model, rng.standard_normal(p), u)
            assert np.array_equal(
                pred.coefficients, center_of_mass(model.factorization)
            )

            small = pr.TrainedModel(
                factorization=model.factorization,
                weights=weights,
                population_coef=np.zeros(p),
                train_covariates=table,
                task="regression",
                hyper=HyperParams(n_neighbors=3),
            )
            a = predict_point(small, rng.standard_normal(p), u)
            b = predict_point(small, rng.standard_normal(p), u)
            assert np.array_equal(a.neighbor_ids, b.neighbor_ids)

            scaled = pr.TrainedModel(
                factorization=model.factorization,
                weights=float(rng.uniform(0.2, 5.0)) * weights,
                population_coef=np.zeros(p),
                train_covariates=table,
                task="regression",
                hyper=HyperParams(n_neighbors=3),
            )
            assert np.array_equal(
                rank_neighbors(small, u), rank_neighbors(scaled, u)
            )


ARTIFACTS = (
    "sim/X.csv",
    "sim/Y.csv",
    "sim/U.csv",
    "sim/omega_true.csv",
    "sim/meta.json",
    "fit/model.json",
    "fit/Z_embedding.csv",
    "fit/phi.csv",
    "fit/trace.jsonl",
    "predictions.csv",
    "metrics.json",
)


def _pipeline(root):
    sim = root / "sim"
    fit_dir = root / "fit"
    assert cli_main([
        "simulate", "--n", "80", "--p", "2", "--k", "3", "--seed", "11",
        "--out", str(sim),
    ]) == 0
    assert cli_main([
        "train", "--x", str(sim / "X.csv"), "--y", str(sim / "Y.csv"),
        "--u", str(sim / "U.csv"), "--out", str(fit_dir), "--seed", "11",
        "--max-iters", "120", "--trace",
    ]) == 0
    assert cli_main([
        "predict", "--model", str(fit_dir / "model.json"),
        "--x", str(sim / "X.csv"), "--u", str(sim / "U.csv"),
        "--out", str(root / "predictions.csv"), "--include-theta",
    ]) == 0
    assert cli_main([
        "evaluate", "--predictions", str(root / "predictions.csv"),
        "--responses", str(sim / "Y.csv"), "--out", str(root / "metrics.json"),
        "--omega-true", str(sim / "omega_true.csv"),
        "--model", str(fit_dir / "model.json"),
    ]) == 0


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two identical seeded pipelines produce byte-identical artifacts."""
    with criterion(10, "end-to-end determinism"):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        _pipeline(a)
        _pipeline(b)
        for rel in ARTIFACTS:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
