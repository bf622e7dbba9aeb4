import numpy as np
import pytest
from hypothesis import given, strategies as st

from persreg.model import (
    CovariateTable,
    Factorization,
    HyperParams,
    TrainedModel,
    center_of_mass,
)
from persreg.predictor import predict_batch, predict_point, rank_neighbors

from oracles import covariate_distance_matrices


def build_model(theta_columns, covariates, weights=None, n_neighbors=3,
                task="regression", kinds=None):
    theta = np.asarray(theta_columns, dtype=float)
    p, n = theta.shape
    table = (
        CovariateTable.continuous(covariates)
        if kinds is None
        else CovariateTable.from_columns(covariates, kinds)
    )
    w = np.ones(table.width) if weights is None else np.asarray(weights, float)
    return TrainedModel(
        factorization=Factorization(loadings=theta, dictionary=np.eye(p)),
        weights=w,
        population_coef=np.zeros(p),
        train_covariates=table,
        task=task,
        hyper=HyperParams(n_neighbors=n_neighbors),
    )


class TestRankNeighbors:
    def test_exact_match_comes_first(self):
        rng = np.random.default_rng(0)
        U = rng.uniform(size=(8, 2))
        model = build_model(rng.standard_normal((2, 8)), U)
        order = rank_neighbors(model, tuple(U[5]))
        assert order[0] == 5

    def test_zero_weights_fall_back_to_index_order(self):
        rng = np.random.default_rng(1)
        model = build_model(
            rng.standard_normal((2, 6)), rng.uniform(size=(6, 2)), weights=[0.0, 0.0]
        )
        order = rank_neighbors(model, (0.5, 0.5))
        assert np.array_equal(order, np.arange(6))

    def test_hand_sorted_distances(self):
        model = build_model(
            np.zeros((1, 3)), np.array([[0.2], [0.1], [5.0]]), weights=[1.0]
        )
        order = rank_neighbors(model, (0.0,))
        assert list(order) == [1, 0, 2]

    def test_schema_mismatch_rejected(self):
        model = build_model(np.zeros((1, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="schema expects 2"):
            rank_neighbors(model, (0.0,))

    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_full_sort(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        U = rng.uniform(size=(n, k))
        w = rng.uniform(size=k)
        model = build_model(rng.standard_normal((2, n)), U, weights=w)
        u = tuple(rng.uniform(size=k))
        order = rank_neighbors(model, u)
        table = model.train_covariates
        rows = [u] + [table.row(i) for i in range(n)]
        mats = covariate_distance_matrices(rows, table.kinds)
        dists = sum(w[c] * mats[c][0, 1:] for c in range(k))
        assert np.all(np.diff(dists[order]) >= -1e-15)
        # ties broken by ascending index
        for a, b in zip(order[:-1], order[1:]):
            if dists[a] == dists[b]:
                assert a < b

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_invariant_to_positive_weight_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        n, k = 12, 3
        U = rng.uniform(size=(n, k))
        w = rng.uniform(0.1, 1.0, size=k)
        u = tuple(rng.uniform(size=k))
        base = build_model(rng.standard_normal((2, n)), U, weights=w)
        scaled = build_model(base.factorization.loadings, U, weights=scale * w)
        assert np.array_equal(rank_neighbors(base, u), rank_neighbors(scaled, u))


class TestPredictPoint:
    def test_single_training_sample(self):
        # one training column (2, 3) via a rank-1 factorization
        model = TrainedModel(
            factorization=Factorization(
                loadings=np.array([[1.0]]), dictionary=np.array([[2.0, 3.0]])
            ),
            weights=np.ones(1),
            population_coef=np.zeros(2),
            train_covariates=CovariateTable.continuous(np.array([[0.7]])),
            task="regression",
            hyper=HyperParams(n_neighbors=5),
        )
        pred = predict_point(model, np.array([1.0, 1.0]), (0.0,))
        assert np.array_equal(pred.coefficients, [2.0, 3.0])
        assert pred.y_hat == pytest.approx(5.0)

    def test_nearest_copy_with_single_neighbor(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((2, 6))
        U = rng.uniform(size=(6, 1))
        model = build_model(theta, U, n_neighbors=1)
        pred = predict_point(model, np.zeros(2), tuple(U[4]))
        assert np.array_equal(pred.coefficients, theta[:, 4])
        assert list(pred.neighbor_ids) == [4]

    def test_hand_average_of_three(self):
        theta = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        model = build_model(theta, np.zeros((3, 1)), n_neighbors=3)
        pred = predict_point(model, np.zeros(2), (0.0,))
        assert np.allclose(pred.coefficients, [2.0 / 3.0, 2.0 / 3.0])

    def test_all_neighbors_recover_center_of_mass_exactly(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((3, 9))
        model = build_model(theta, rng.uniform(size=(9, 2)), n_neighbors=9)
        pred = predict_point(model, np.zeros(3), (0.5, 0.5))
        assert np.array_equal(pred.coefficients, center_of_mass(model.factorization))

    def test_neighbors_ignore_predictors(self):
        rng = np.random.default_rng(4)
        model = build_model(rng.standard_normal((2, 10)), rng.uniform(size=(10, 2)))
        u = (0.3, 0.6)
        a = predict_point(model, np.array([0.0, 0.0]), u)
        b = predict_point(model, np.array([100.0, -5.0]), u)
        assert np.array_equal(a.neighbor_ids, b.neighbor_ids)
        assert a.y_hat != b.y_hat

    def test_neighbor_distances_nondecreasing(self):
        rng = np.random.default_rng(5)
        model = build_model(rng.standard_normal((2, 20)), rng.uniform(size=(20, 2)))
        pred = predict_point(model, np.zeros(2), (0.1, 0.9))
        assert np.all(np.diff(pred.neighbor_dists) >= 0.0)

    def test_classification_outputs_probability(self):
        model = build_model([[5.0]], np.zeros((1, 1)), task="classification")
        pred = predict_point(model, np.array([1.0]), (0.0,))
        assert 0.0 < pred.y_hat < 1.0
        assert pred.y_hat == pytest.approx(1.0 / (1.0 + np.exp(-5.0)))

    @given(st.integers(0, 2**32 - 1))
    def test_nearest_k_match_full_stable_sort_under_ties(self, seed):
        # small integer covariates and weights make every distance exact
        # and most of them tied
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        U = rng.integers(0, 3, size=(n, 2)).astype(float)
        w = rng.integers(0, 3, size=2).astype(float)
        kn = int(rng.integers(1, n + 2))
        model = build_model(rng.standard_normal((2, n)), U, weights=w, n_neighbors=kn)
        u = tuple(rng.integers(0, 3, size=2).astype(float))
        dists = np.abs(U - np.array(u)) @ w
        want = np.argsort(dists, kind="stable")[:kn]
        pred = predict_point(model, np.zeros(2), u)
        assert np.array_equal(pred.neighbor_ids, want)
        assert np.array_equal(pred.neighbor_dists, dists[want])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predictors_rejected(self, bad):
        model = build_model(np.zeros((2, 3)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            predict_point(model, np.array([0.0, bad]), (0.0,))
        with pytest.raises(ValueError, match="non-finite"):
            predict_batch(model, np.array([[0.0, 1.0], [bad, 0.0]]), [(0.0,), (0.0,)])

    def test_length_mismatch_rejected(self):
        model = build_model(np.zeros((2, 3)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="predictor row"):
            predict_point(model, np.zeros(3), (0.0,))

    def test_categorical_covariates_work(self):
        theta = np.array([[1.0, 2.0, 3.0]])
        model = build_model(
            theta,
            [np.array(["a", "b", "a"], dtype=object)],
            kinds=["categorical"],
            n_neighbors=1,
        )
        pred = predict_point(model, np.array([1.0]), ("b",))
        assert list(pred.neighbor_ids) == [1]

    def test_unseen_label_is_at_weight_distance_from_every_sample(self):
        model = build_model(
            np.zeros((1, 4)),
            [np.array(["a", "b", "a", "c"], dtype=object)],
            weights=[0.7],
            kinds=["categorical"],
            n_neighbors=4,
        )
        for label in ("zz", "0", "b0"):
            pred = predict_point(model, np.array([1.0]), (label,))
            assert np.array_equal(pred.neighbor_dists, np.full(4, 0.7))
            assert list(pred.neighbor_ids) == [0, 1, 2, 3]

    def test_integer_label_matches_its_string(self):
        model = build_model(
            np.array([[1.0, 2.0, 3.0]]),
            [np.array(["2", "1", "3"], dtype=object)],
            kinds=["categorical"],
            n_neighbors=1,
        )
        pred = predict_point(model, np.array([1.0]), (1,))
        assert list(pred.neighbor_ids) == [1]
        assert pred.neighbor_dists[0] == 0.0

    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(6)
        theta, U = 4.0 * rng.standard_normal((2, 7)), rng.uniform(size=(7, 2))
        X = rng.standard_normal((40, 2))
        rows = [tuple(r) for r in rng.uniform(size=(40, 2))]
        for task in ("regression", "classification"):
            model = build_model(theta, U, task=task)
            batch = predict_batch(model, X, rows)
            for i, pred in enumerate(batch):
                single = predict_point(model, X[i], rows[i])
                assert pred.y_hat == single.y_hat
                assert np.array_equal(pred.neighbor_ids, single.neighbor_ids)
                assert np.array_equal(pred.coefficients, single.coefficients)
