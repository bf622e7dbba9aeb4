import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from persreg import storage
from persreg.metric import (
    auto_radius,
    neighbor_pairs,
    neighbor_sets,
    pairwise_squared,
    precompute_cache,
)
from persreg.model import (
    CovariateTable,
    Factorization,
    HyperParams,
    TrainedModel,
)

from oracles import brute_neighbor_sets, covariate_distance_matrices


def mixed_table(rng, n):
    return CovariateTable.from_columns(
        [
            rng.standard_normal(n),
            np.array(list(rng.choice(["a", "b", "c"], size=n)), dtype=object),
        ],
        ["continuous", "categorical"],
    )


def all_pairs(n):
    """Every ordered pair (i, j), row-major."""
    return np.divmod(np.arange(n * n), n)


def oracle_matrices(table):
    rows = [table.row(i) for i in range(len(table))]
    return covariate_distance_matrices(rows, table.kinds)


class TestFeatureDistance:
    """Per-covariate distances, read through ``pair_distances``."""

    def test_continuous_identity(self):
        metric = CovariateTable.continuous([[0.3], [0.3]]).metric
        assert np.array_equal(metric.pair_distances([0, 0], [0, 1]), [[0.0, 0.0]])

    def test_continuous_hand_value(self):
        metric = CovariateTable.continuous([[1.5], [-0.5]]).metric
        assert np.array_equal(metric.pair_distances([0], [1]), [[2.0]])

    def test_discrete_indicator(self):
        table = CovariateTable.from_columns(
            [np.array(["A", "B", "A"], dtype=object)], ["categorical"]
        )
        assert np.array_equal(table.metric.pair_distances([0, 0], [1, 2]), [[1.0, 0.0]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            CovariateTable.from_columns([np.array([1.0, 2.0])], ["ordinal"])

    def test_non_finite_rejected(self):
        # the metric only ever sees finite values: tables and query rows
        # reject the others
        with pytest.raises(ValueError, match="non-finite"):
            CovariateTable.continuous([[np.nan], [0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            CovariateTable.continuous([[0.0]]).validate_row((np.nan,))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_metric_axioms_continuous(self, a, b):
        metric = CovariateTable.continuous([[a], [b]]).metric
        d_ab, d_ba = metric.pair_distances([0, 1], [1, 0])[0]
        assert d_ab >= 0.0
        assert d_ab == d_ba
        assert (d_ab == 0.0) == (a == b)


class TestWeightedDistance:
    """The learned distance from one covariate row, ``row_distances``."""

    def test_equal_rows_give_zero(self):
        table = CovariateTable.from_columns(
            [np.array([0.5, 1.0]), np.array(["x", "y"], dtype=object)],
            ["continuous", "categorical"],
        )
        got = table.metric.row_distances(np.array([1.0, 7.0]), (0.5, "x"))
        assert np.array_equal(got, [0.0, 7.5])

    def test_hand_value(self):
        metric = CovariateTable.continuous([[0.0, 0.0]]).metric
        got = metric.row_distances(np.array([1.0, 2.0]), (0.5, 1.0))
        assert np.array_equal(got, [2.5])

    def test_zero_weights(self):
        metric = CovariateTable.continuous([[-5.0]]).metric
        assert np.array_equal(metric.row_distances(np.zeros(1), (3.0,)), [0.0])

    def test_length_mismatch(self):
        metric = CovariateTable.continuous([[0.0, 1.0]]).metric
        with pytest.raises(ValueError, match="every covariate"):
            metric.row_distances(np.ones(2), (0.0,))
        with pytest.raises(ValueError, match="every covariate"):
            metric.row_distances(np.ones(1), (0.0, 1.0))

    @given(st.integers(0, 2**32 - 1))
    def test_mixed_kinds_match_oracle(self, seed):
        # added column by column, in column order: bitwise the weighted rows
        # of the dense per-covariate matrices
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        table = mixed_table(rng, n)
        weights = rng.uniform(0.0, 2.0, size=2)
        mats = oracle_matrices(table)
        for i in range(n):
            want = np.zeros(n)
            for w, mat in zip(weights, mats):
                want += w * mat[i]
            got = table.metric.row_distances(weights, table.row(i))
            assert np.array_equal(got, want)

    @given(
        st.lists(st.floats(0, 10), min_size=2, max_size=5),
        st.data(),
    )
    def test_pseudometric_on_random_triples(self, weights, data):
        # continuous columns, then one categorical column
        k = len(weights)
        row = st.tuples(
            *[st.floats(-100, 100) for _ in range(k - 1)], st.sampled_from("ab")
        )
        rows = [data.draw(row) for _ in range(3)]
        table = CovariateTable.from_columns(
            list(zip(*rows)), ["continuous"] * (k - 1) + ["categorical"]
        )
        weights = np.asarray(weights)
        d = [table.metric.row_distances(weights, r) for r in rows]
        duv, dvw, duw = d[0][1], d[1][2], d[0][2]
        assert duv >= 0.0
        assert d[0][0] == 0.0
        assert duv == d[1][0]
        assert duw <= duv + dvw + 1e-9 * (1.0 + duv + dvw)


class TestPrecomputeCache:
    """The encoded covariate metric of a training table."""

    def test_single_sample_all_zero(self):
        metric = precompute_cache(CovariateTable.continuous([[1.0, 2.0]]))
        assert (metric.width, len(metric)) == (2, 1)
        assert np.array_equal(metric.pair_distances([0], [0]), np.zeros((2, 1)))

    def test_duplicate_rows_all_zero(self):
        table = CovariateTable.from_columns(
            [np.array([1.0, 1.0]), np.array(["a", "a"], dtype=object)],
            ["continuous", "categorical"],
        )
        got = precompute_cache(table).pair_distances(*all_pairs(2))
        assert np.array_equal(got, np.zeros((2, 4)))

    def test_hand_pairwise_matrix(self):
        metric = precompute_cache(CovariateTable.continuous([[0.0], [1.0], [3.0]]))
        want = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert np.array_equal(metric.pair_distances(*all_pairs(3))[0], want.ravel())

    @given(st.integers(0, 2**32 - 1))
    def test_exactly_symmetric_zero_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        table = mixed_table(rng, n)
        mats = precompute_cache(table).pair_distances(*all_pairs(n)).reshape(2, n, n)
        assert np.array_equal(mats, oracle_matrices(table))
        assert np.array_equal(mats, np.swapaxes(mats, 1, 2))
        for mat in mats:
            assert np.array_equal(np.diag(mat), np.zeros(n))

    def test_pair_distance_matches_row_evaluation(self):
        rng = np.random.default_rng(7)
        table = mixed_table(rng, 6)
        metric = precompute_cache(table)
        w = rng.uniform(size=2)
        total = 0.0
        for weight, dist in zip(w, metric.pair_distances([1], [4])):
            total += weight * dist[0]
        assert total == metric.row_distances(w, table.row(1))[4]

    def test_no_pairs(self):
        none = np.empty(0, dtype=np.intp)
        metric = precompute_cache(mixed_table(np.random.default_rng(0), 4))
        assert metric.pair_distances(none, none).shape == (2, 0)

    def test_encoded_once_per_table(self):
        table = mixed_table(np.random.default_rng(1), 6)
        metric = precompute_cache(table)
        assert metric is table.metric
        assert precompute_cache(table) is metric

    def test_tables_encode_nothing_until_used(self, tmp_path):
        table = mixed_table(np.random.default_rng(2), 5)
        assert "metric" not in vars(table)
        model = TrainedModel(
            factorization=Factorization(
                loadings=np.ones((1, 5)), dictionary=np.ones((1, 1))
            ),
            weights=np.ones(2),
            population_coef=np.zeros(1),
            train_covariates=table,
            task="regression",
            hyper=HyperParams(),
        )
        storage.save_model(tmp_path / "model.json", model)
        loaded = storage.load_model(tmp_path / "model.json")
        assert "metric" not in vars(loaded.train_covariates)


def balls(Z, radius):
    """Neighbor balls as lists of indices, one per sample."""
    members = neighbor_sets(pairwise_squared(Z), radius)
    return [list(np.flatnonzero(row)) for row in members]


def oracle_members(Z, radius):
    """Membership matrix of the double-loop oracle."""
    n = Z.shape[1]
    members = np.zeros((n, n), dtype=bool)
    for i, ball in enumerate(brute_neighbor_sets(Z, radius)):
        members[i, ball] = True
    return members


def upper_triangle_radius(Z, target):
    """The automatic radius taken the plain way: the m-th smallest entry of
    the upper triangle, nudged up."""
    n = Z.shape[1]
    upper = pairwise_squared(Z)[np.triu_indices(n, k=1)]
    m = min(int(np.ceil(target * n / 2.0)), upper.size)
    kth = float(np.partition(upper, m - 1)[m - 1])
    return 1e-12 if kth == 0.0 else kth * (1.0 + 1e-12)


class TestPairwiseSquared:
    @pytest.mark.parametrize("block", [1, 200, 1 << 16])
    def test_blocks_match_whole_matrix(self, monkeypatch, block):
        # one row per block, 3 rows with a short last block, one block
        import persreg.metric

        rng = np.random.default_rng(block)
        Z = rng.standard_normal((3, 53))
        want = np.zeros((53, 53))
        for row in Z:
            diff = row[:, None] - row[None, :]
            want += diff * diff
        monkeypatch.setattr(persreg.metric, "PAIRWISE_BLOCK", block)
        got = pairwise_squared(Z)
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.T) and not got.diagonal().any()


class TestNeighborSets:
    def test_single_sample(self):
        members = neighbor_sets(pairwise_squared(np.zeros((2, 1))), 1.0)
        assert members.shape == (1, 1) and not members.any()

    def test_one_dimensional_hand_case(self):
        assert balls(np.array([[0.0, 1.0, 3.0]]), 1.5) == [[1], [0], []]

    def test_large_radius_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((2, 9))
        for i, ball in enumerate(balls(Z, 1e9)):
            assert ball == [j for j in range(9) if j != i]

    def test_boundary_is_exclusive(self):
        # squared distance exactly equal to the radius is not a neighbor
        assert balls(np.array([[0.0, 2.0]]), 4.0) == [[], []]

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            neighbor_sets(pairwise_squared(np.zeros((1, 2))), 0.0)

    def test_symmetric_relation(self):
        rng = np.random.default_rng(3)
        members = neighbor_sets(pairwise_squared(rng.standard_normal((3, 40))), 2.0)
        assert np.array_equal(members, members.T)

    # The two tests below keep the names they had when the query had a
    # spatial-grid path; both now check the dense query against the
    # double-loop oracle exactly.
    @given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.integers(1, 3))
    @example(11, 200, 2)
    def test_grid_matches_brute_force(self, seed, n, q):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((q, n))
        radius = float(rng.uniform(0.05, 2.0))
        got = neighbor_sets(pairwise_squared(Z), radius)
        assert np.array_equal(got, oracle_members(Z, radius))

    def test_grid_path_matches_reference_loops(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((2, 200))
        radius = 0.3
        got = neighbor_sets(pairwise_squared(Z), radius)
        assert np.array_equal(got, oracle_members(Z, radius))

    def test_pairs_are_sorted_by_i_then_j(self):
        rng = np.random.default_rng(5)
        members = neighbor_sets(pairwise_squared(rng.standard_normal((2, 30))), 1.0)
        i_idx, j_idx = neighbor_pairs(members)
        order = np.lexsort((j_idx, i_idx))
        assert np.array_equal(order, np.arange(len(i_idx)))
        assert np.array_equal(members[i_idx, j_idx], np.ones(len(i_idx), dtype=bool))
        assert len(i_idx) == members.sum()


class TestAutoRadius:
    def test_two_points_forced(self):
        Z = np.array([[0.0, 2.0]])
        r = auto_radius(pairwise_squared(Z), 1.0)
        assert r > 4.0
        assert balls(Z, r) == [[1], [0]]

    def test_one_dimensional_hand_case(self):
        Z = np.array([[0.0, 1.0, 3.0]])
        r = auto_radius(pairwise_squared(Z), 2.0)
        assert 9.0 < r < 9.0 * (1.0 + 1e-11)
        assert all(len(ball) == 2 for ball in balls(Z, r))

    def test_identical_points_degenerate(self):
        Z = np.zeros((2, 5))
        r = auto_radius(pairwise_squared(Z), 2.0)
        assert r == 1e-12
        assert all(len(ball) == 4 for ball in balls(Z, r))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            auto_radius(pairwise_squared(np.zeros((1, 1))), 1.0)

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            auto_radius(pairwise_squared(np.zeros((1, 3))), 2.5)

    @given(st.integers(0, 2**32 - 1))
    def test_duplicate_columns_match_upper_triangle(self, seed):
        # repeated loading columns put zeros off the diagonal
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        Z = rng.standard_normal((2, n))[:, rng.integers(0, max(1, n // 3), size=n)]
        target = float(rng.uniform(0.1, n - 1))
        got = auto_radius(pairwise_squared(Z), target)
        assert got == upper_triangle_radius(Z, target)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_largest_target_takes_largest_pair(self, n):
        # m = n(n - 1) / 2, the last pair distance
        Z = np.random.default_rng(n).standard_normal((3, n))
        sq = pairwise_squared(Z)
        r = auto_radius(sq, n - 1)
        assert r == upper_triangle_radius(Z, n - 1)
        assert r == float(sq.max()) * (1.0 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_average_count_near_target(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        Z = rng.standard_normal((2, n))
        target = float(rng.uniform(1.0, min(15.0, n - 1)))
        r = auto_radius(pairwise_squared(Z), target)
        assert r == upper_triangle_radius(Z, target)
        avg = sum(len(ball) for ball in balls(Z, r)) / n
        assert target - 1.0 <= avg <= target + 1.0
