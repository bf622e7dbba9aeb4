import dataclasses

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
from persreg import predictor
from persreg.predictor import predict_batch, predict_point, rank_neighbors

from oracles import brute_nearest, covariate_distance_matrices
from test_pinned_results import random_prediction_case


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
        # small integer covariates and dyadic weights make every distance
        # exact and most of them tied; up to two label columns with three
        # labels, zero and tiny weights and a query label unseen in training
        # (L3) take every path of the pruned search
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        kinds = ["continuous"] * 2 + ["categorical"] * int(rng.integers(0, 3))
        U = rng.integers(0, 3, size=(n, len(kinds)))
        u = rng.integers(0, 4, size=len(kinds))
        w = rng.choice([0.0, 2.0**-20, 1.0, 2.0], size=len(kinds))
        cols, row, dists = [], [], np.zeros(n)
        for c, kind in enumerate(kinds):
            if kind == "continuous":
                cols.append(U[:, c].astype(float))
                row.append(float(u[c]))
                dists += w[c] * np.abs(U[:, c] - u[c])
            else:
                cols.append(np.array([f"L{v}" for v in U[:, c]], dtype=object))
                row.append(f"L{u[c]}")
                dists += w[c] * (U[:, c] != u[c])
        # half the draws ask for at most 3 neighbors, which a label group
        # can hold
        kn = int(rng.integers(1, rng.choice([4, n + 2])))
        model = build_model(rng.standard_normal((2, n)), cols, weights=w,
                            n_neighbors=kn, kinds=kinds)
        want = np.argsort(dists, kind="stable")
        pred = predict_point(model, np.zeros(2), tuple(row))
        assert np.array_equal(pred.neighbor_ids, want[:kn])
        assert np.array_equal(pred.neighbor_dists, dists[want[:kn]])
        assert np.array_equal(rank_neighbors(model, tuple(row)), want)

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
        with pytest.raises(ValueError, match="predictor matrix"):
            predict_batch(model, np.zeros((2, 3)), [(0.0,), (0.0,)])
        with pytest.raises(ValueError, match="must align"):
            predict_batch(model, np.zeros((2, 2)), [(0.0,)])

    @pytest.mark.parametrize("value", [None, [1.0], "abc"])
    def test_non_number_covariate_names_its_column(self, value):
        model = build_model(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="covariate 0 is not a number"):
            predict_point(model, np.zeros(2), (value, 0.5))
        with pytest.raises(ValueError, match="covariate 1 is not a number"):
            predict_batch(model, np.zeros((1, 2)), [(0.5, value)])

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


class TestPrunedSearch:
    """The label-group search: rows 0, 2, 4, 6 carry label a, rows 1, 3, 5
    label b and row 7 label c; the label weight 0.5 is the least distance
    between groups."""

    U0 = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    LABELS = np.array(list("abababac"), dtype=object)

    def model(self, k):
        rng = np.random.default_rng(8)
        return build_model(rng.standard_normal((2, 8)), [self.U0, self.LABELS],
                           weights=[1.0, 0.5], n_neighbors=k,
                           kinds=["continuous", "categorical"])

    @pytest.mark.parametrize("u, k, ids, passes", [
        # group a's 2nd distance 0.15 is below 0.5: only group a is read
        ((0.25, "a"), 2, [2, 4], [4]),
        # no group for an unseen label: one full pass
        ((0.25, "z"), 2, [2, 3], [8]),
        # group c holds one row, fewer than k: one full pass
        ((0.7, "c"), 2, [7, 6], [8]),
        # group b's 3rd distance reaches 0.5, where row 0 of group a ties it
        # and wins on index: group b, then the full pass
        ((0.0, "b"), 3, [1, 3, 0], [3, 8]),
    ], ids=["pruned", "unseen-label", "group-below-k", "kth-at-label-weight"])
    def test_each_path_matches_the_full_sort(self, monkeypatch, u, k, ids, passes):
        # each pass of the distance kernel is recorded as the shape of its
        # block: a batch of three copies of the query is one block per pass
        model = self.model(k)
        full = self.U0 - u[0]
        full = np.abs(full) + 0.5 * (self.LABELS != u[1])
        seen = []
        row_distances = CovariateTable.row_distances

        def counted(table, weights, queries, rows=None):
            out = row_distances(table, weights, queries, rows)
            seen.append(out.shape)
            return out

        monkeypatch.setattr(CovariateTable, "row_distances", counted)
        pred = predict_point(model, np.ones(2), u)
        assert seen == [(1, width) for width in passes]
        assert list(pred.neighbor_ids) == ids
        assert np.array_equal(pred.neighbor_dists, full[ids])
        X = np.random.default_rng(9).standard_normal((3, 2))
        seen.clear()
        batch = predict_batch(model, X, [u] * 3)
        assert seen == [(3, width) for width in passes]
        for x, got in zip(X, batch):
            single = predict_point(model, x, u)
            assert got.y_hat == single.y_hat
            assert np.array_equal(got.neighbor_ids, single.neighbor_ids)
            assert np.array_equal(got.neighbor_dists, single.neighbor_dists)
            assert np.array_equal(got.coefficients, single.coefficients)

    def test_each_query_label_is_looked_up_once(self):
        # a pruned query, an unseen label, a group below k and a k-th
        # distance beyond the label weight: the last three also take the
        # full pass, which reads the codes the query was encoded to
        class Counted(dict):
            def get(self, *args):
                looked.append(args[0])
                return super().get(*args)

            def __getitem__(self, key):
                looked.append(key)
                return super().__getitem__(key)

        looked = []
        model = self.model(2)
        table = model.train_covariates
        vars(table)["encoding"] = tuple(
            (vals, None if codebook is None else Counted(codebook))
            for vals, codebook in table.encoding)
        queries = [(0.25, "a"), (0.25, "z"), (0.7, "c"), (1.5, "a")]
        batch = predict_batch(model, np.ones((4, 2)), queries)
        assert [list(p.neighbor_ids) for p in batch] == [[2, 4], [2, 3], [7, 6], [6, 4]]
        assert looked == ["a", "z", "c", "a"]

    def test_groups_are_built_once_per_model(self):
        model = self.model(2)
        part = model.label_partition
        assert model.label_partition is part
        assert part.columns == (1,) and part.min_weight == 0.5
        assert np.array_equal(part.weights, [1.0, 0.0])
        assert list(part.groups) == [(0,), (1,), (2,)]
        assert [list(part.order[span]) for span in part.groups.values()] == [
            [0, 2, 4, 6], [1, 3, 5], [7]]
        # the searched column, copied once in group order, and zeros for
        # the keyed one
        assert np.array_equal(part.table.columns[0], self.U0[part.order])
        assert np.array_equal(part.table.columns[1], np.zeros(8))
        again = dataclasses.replace(model, hyper=HyperParams(n_neighbors=3))
        assert "label_partition" not in vars(again)

    @given(st.integers(0, 2**32 - 1))
    def test_groups_match_a_grouping_by_label_tuples(self, seed):
        # up to three keyed columns with up to 40 labels each: groups in
        # ascending order of their code tuples, rows ascending in each
        rng = np.random.default_rng(seed)
        n, n_cat = int(rng.integers(1, 60)), int(rng.integers(1, 4))
        labels = [np.array([f"l{v}" for v in rng.integers(0, rng.integers(1, 41), n)],
                           dtype=object) for _ in range(n_cat)]
        cols = [rng.standard_normal(n), rng.standard_normal(n)] + labels
        weights = rng.choice([0.0, 0.5, 1.0], size=len(cols))
        weights[2] = 1.0
        model = build_model(np.zeros((1, n)), cols, weights=weights,
                            kinds=["continuous"] * 2 + ["categorical"] * n_cat)
        part = model.label_partition
        encoding = model.train_covariates.encoding
        keyed = tuple(c for c in range(2, len(cols)) if weights[c] > 0)
        want: dict = {}
        for i in range(n):
            want.setdefault(tuple(int(encoding[c][0][i]) for c in keyed), []).append(i)
        assert part.columns == keyed
        assert list(part.groups) == sorted(want)
        got = {key: list(part.order[span]) for key, span in part.groups.items()}
        assert got == want
        # the positive-weight continuous columns in group order, zeros and
        # zero weights elsewhere
        searched = [c < 2 and weights[c] > 0 for c in range(len(cols))]
        assert np.array_equal(part.weights, np.where(searched, weights, 0.0))
        for c, col in enumerate(part.table.columns):
            want_col = cols[c][part.order] if searched[c] else np.zeros(n)
            assert np.array_equal(col, want_col)

    def test_zero_weight_labels_are_not_grouped(self):
        model = build_model(np.zeros((1, 8)), [self.U0, self.LABELS],
                            weights=[1.0, 0.0], kinds=["continuous", "categorical"])
        assert model.label_partition is None

    def test_zero_weight_column_cannot_move_the_neighbors(self):
        # a huge zero-weight column once made inf * 0 = NaN distances, which
        # sorted last and pushed rows 0 and 2 out of the nearest pair
        U = np.array([[0.0, 1.7e308], [0.1, -1.7e308], [0.2, 1.7e308],
                      [0.3, -1.7e308], [0.4, 1.7e308], [0.5, -1.7e308]])
        model = build_model(np.zeros((1, 6)), U, weights=[1.0, 0.0], n_neighbors=2)
        pred = predict_point(model, np.zeros(1), (0.05, -1.7e308))
        assert list(pred.neighbor_ids) == [0, 1]
        assert np.array_equal(pred.neighbor_dists, [0.05, 0.05])
        assert list(rank_neighbors(model, (0.05, -1.7e308))) == list(range(6))


class TestBlockSearch:
    """``predict_batch`` searches in blocks of at most ``BLOCK_CELLS`` query
    rows times training rows; a predict_point loop searches one row at a
    time.  At 1 and 7 cells, block boundaries fall inside label groups and
    inside the full-pass fallback."""

    @pytest.mark.parametrize("cells", [1, 7, predictor.BLOCK_CELLS])
    def test_matches_brute_force_and_single_rows(self, monkeypatch, cells):
        monkeypatch.setattr(predictor, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(31)
        for _ in range(60):
            model, X, rows = random_prediction_case(rng)
            kn = min(model.hyper.n_neighbors, model.n_train)
            batch = predict_batch(model, X, rows)
            assert len(batch) == len(rows)
            for x, row, got in zip(X, rows, batch):
                ids, dists = brute_nearest(model, row, kn)
                assert list(got.neighbor_ids) == ids
                assert list(got.neighbor_dists) == dists
                single = predict_point(model, x, row)
                assert got.y_hat == single.y_hat
                assert np.array_equal(got.neighbor_ids, single.neighbor_ids)
                assert np.array_equal(got.neighbor_dists, single.neighbor_dists)
                assert np.array_equal(got.coefficients, single.coefficients)
