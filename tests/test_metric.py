import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import persreg.metric
from persreg import storage
from persreg.metric import (
    RADIUS_NUDGE,
    auto_radius,
    candidate_pairs,
    neighbor_pairs,
    neighbor_sets,
    precompute_cache,
)
from persreg.model import (
    CovariateTable,
    Factorization,
    HyperParams,
    NumericalError,
    TrainedModel,
)

from oracles import (
    brute_neighbor_sets,
    covariate_distance_matrices,
    oracle_matrices,
    pairwise_squared,
)


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


class TestFeatureDistance:
    """Per-covariate distances, read through ``pair_distances``."""

    def test_continuous_identity(self):
        table = CovariateTable.continuous([[0.3], [0.3]])
        assert np.array_equal(table.pair_distances([0, 0], [0, 1]), [[0.0, 0.0]])

    def test_continuous_hand_value(self):
        table = CovariateTable.continuous([[1.5], [-0.5]])
        assert np.array_equal(table.pair_distances([0], [1]), [[2.0]])

    def test_discrete_indicator(self):
        table = CovariateTable.from_columns(
            [np.array(["A", "B", "A"], dtype=object)], ["categorical"]
        )
        assert np.array_equal(table.pair_distances([0, 0], [1, 2]), [[1.0, 0.0]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            CovariateTable.from_columns([np.array([1.0, 2.0])], ["ordinal"])

    def test_non_finite_rejected(self):
        # the metric only ever sees finite values: tables and query rows
        # reject the others
        with pytest.raises(ValueError, match="non-finite"):
            CovariateTable.continuous([[np.nan], [0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            CovariateTable.continuous([[0.0]]).encode_row((np.nan,))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_metric_axioms_continuous(self, a, b):
        table = CovariateTable.continuous([[a], [b]])
        d_ab, d_ba = table.pair_distances([0, 1], [1, 0])[0]
        assert d_ab >= 0.0
        assert d_ab == d_ba
        assert (d_ab == 0.0) == (a == b)


class TestWeightedDistance:
    """The learned distance from a block of encoded covariate rows,
    ``row_distances``."""

    def test_equal_rows_give_zero(self):
        table = CovariateTable.from_columns(
            [np.array([0.5, 1.0]), np.array(["x", "y"], dtype=object)],
            ["continuous", "categorical"],
        )
        queries = [table.encode_row(row) for row in [(0.5, "x"), (1.0, "y")]]
        assert queries == [(0.5, 0), (1.0, 1)]
        got = table.row_distances(np.array([1.0, 7.0]), queries)
        assert np.array_equal(got, [[0.0, 7.5], [7.5, 0.0]])

    def test_hand_value(self):
        table = CovariateTable.continuous([[0.0, 0.0]])
        got = table.row_distances(np.array([1.0, 2.0]), [(0.5, 1.0)])
        assert np.array_equal(got, [[2.5]])

    def test_zero_weights(self):
        table = CovariateTable.continuous([[-5.0]])
        got = table.row_distances(np.zeros(1), [(3.0,), (4.0,)])
        assert np.array_equal(got, [[0.0], [0.0]])

    def test_no_queries(self):
        table = CovariateTable.continuous([[0.0], [1.0]])
        assert table.row_distances(np.ones(1), []).shape == (0, 2)

    def test_zero_weight_column_is_skipped(self):
        # the huge column's differences overflow to inf, and inf * 0 is NaN
        table = CovariateTable.continuous([[0.0, 1.7e308], [0.5, -1.7e308]])
        got = table.row_distances(
            np.array([1.0, 0.0]), [(0.25, -1.7e308), (0.25, 1.7e308)]
        )
        assert np.array_equal(got, [[0.25, 0.25], [0.25, 0.25]])

    @given(st.integers(0, 2**32 - 1))
    def test_row_subset_is_the_full_pass_at_those_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        table = mixed_table(rng, n)
        weights = rng.choice([0.0, 0.3, 1.0], size=2)
        start = int(rng.integers(0, n + 1))
        span = slice(start, int(rng.integers(start, n + 1)))
        for labels in (["a"], ["z", "b", "a"]):
            queries = [table.encode_row((float(rng.standard_normal()), label))
                       for label in labels]
            full = table.row_distances(weights, queries)
            assert np.array_equal(table.row_distances(weights, queries, span),
                                  full[:, span])

    @given(st.integers(0, 2**32 - 1))
    def test_block_rows_are_the_single_row_passes(self, seed):
        # a query's distances do not depend on the block it is measured in
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        table = mixed_table(rng, n)
        weights = rng.choice([0.0, 0.3, 1.0], size=2)
        queries = [table.encode_row((float(rng.integers(-2, 3)) / 2.0,
                                     str(rng.choice(list("abz")))))
                   for _ in range(int(rng.integers(2, 7)))]
        block = table.row_distances(weights, queries)
        assert block.shape == (len(queries), n)
        for q, got in zip(queries, block):
            assert np.array_equal(table.row_distances(weights, [q])[0], got)

    def test_length_mismatch(self):
        table = CovariateTable.continuous([[0.0, 1.0]])
        with pytest.raises(ValueError, match="every covariate"):
            table.row_distances(np.ones(2), [(0.0,)])
        with pytest.raises(ValueError, match="every covariate"):
            table.row_distances(np.ones(1), [(0.0, 1.0)])
        with pytest.raises(ValueError, match="every covariate"):
            table.row_distances(np.ones(2), [(0.0, 1.0), (0.0,)])

    @given(st.integers(0, 2**32 - 1))
    def test_mixed_kinds_match_oracle(self, seed):
        # added column by column, in column order: bitwise the weighted rows
        # of the dense per-covariate matrices, one query row or all at once
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        table = mixed_table(rng, n)
        weights = rng.uniform(0.0, 2.0, size=2)
        want = np.zeros((n, n))
        for w, mat in zip(weights, oracle_matrices(table)):
            want += w * mat
        rows = [table.encode_row(table.row(i)) for i in range(n)]
        assert np.array_equal(table.row_distances(weights, rows), want)
        for i in range(n):
            got = table.row_distances(weights, [rows[i]])
            assert np.array_equal(got, want[i:i + 1])

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
        d = table.row_distances(np.asarray(weights),
                                [table.encode_row(row) for row in rows])
        duv, dvw, duw = d[0][1], d[1][2], d[0][2]
        assert duv >= 0.0
        assert d[0][0] == 0.0
        assert duv == d[1][0]
        assert duw <= duv + dvw + 1e-9 * (1.0 + duv + dvw)


class TestPrecomputeCache:
    """A training table after ``precompute_cache``: its encoding built once,
    its distances read off the codes."""

    def test_single_sample_all_zero(self):
        table = precompute_cache(CovariateTable.continuous([[1.0, 2.0]]))
        assert (table.width, len(table)) == (2, 1)
        assert np.array_equal(table.pair_distances([0], [0]), np.zeros((2, 1)))

    def test_duplicate_rows_all_zero(self):
        table = CovariateTable.from_columns(
            [np.array([1.0, 1.0]), np.array(["a", "a"], dtype=object)],
            ["continuous", "categorical"],
        )
        got = precompute_cache(table).pair_distances(*all_pairs(2))
        assert np.array_equal(got, np.zeros((2, 4)))

    def test_hand_pairwise_matrix(self):
        table = precompute_cache(CovariateTable.continuous([[0.0], [1.0], [3.0]]))
        want = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert np.array_equal(table.pair_distances(*all_pairs(3))[0], want.ravel())

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
        table = precompute_cache(mixed_table(rng, 6))
        w = rng.uniform(size=2)
        total = 0.0
        for weight, dist in zip(w, table.pair_distances([1], [4])):
            total += weight * dist[0]
        assert total == table.row_distances(w, [table.encode_row(table.row(1))])[0, 4]

    def test_no_pairs(self):
        none = np.empty(0, dtype=np.intp)
        table = precompute_cache(mixed_table(np.random.default_rng(0), 4))
        assert table.pair_distances(none, none).shape == (2, 0)

    def test_encoded_once_per_table(self):
        table = mixed_table(np.random.default_rng(1), 6)
        assert precompute_cache(table) is table
        encoding = vars(table)["encoding"]
        table.pair_distances([0], [1])
        table.row_distances(np.ones(2), [table.encode_row(table.row(0))])
        assert precompute_cache(table).encoding is encoding

    @given(st.integers(0, 2**32 - 1))
    def test_subset_and_unseen_label_match_oracle(self, seed):
        # a take() subset encodes its own labels; a query label the subset
        # lacks, seen in the full table or nowhere, differs from every row
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        full = mixed_table(rng, n)
        full.pair_distances([0], [0])  # the subset must not reuse this
        table = full.take(rng.choice(n, size=int(rng.integers(1, n + 1))))
        m = len(table)
        mats = oracle_matrices(table)
        assert np.array_equal(
            table.pair_distances(*all_pairs(m)).reshape(2, m, m), mats
        )
        weights = rng.uniform(0.0, 2.0, size=2)
        for label in ("a", "b", "c", "z"):
            row = (float(rng.standard_normal()), label)
            rows = [table.row(i) for i in range(m)] + [row]
            want = covariate_distance_matrices(rows, table.kinds)
            expect = weights[0] * want[0][m, :m]
            expect += weights[1] * want[1][m, :m]
            got = table.row_distances(weights, [table.encode_row(row)])[0]
            assert np.array_equal(got, expect)

    def test_tables_encode_nothing_until_used(self, tmp_path):
        table = mixed_table(np.random.default_rng(2), 5)
        assert "encoding" not in vars(table)
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
        assert "encoding" not in vars(table)
        loaded = storage.load_model(tmp_path / "model.json")
        assert "encoding" not in vars(loaded.train_covariates)


def sets_at(Z, radius):
    """Ordered neighbor pairs (i_idx, j_idx) of the loadings at a fixed
    radius."""
    return neighbor_sets(candidate_pairs(Z, radius), radius)


def members_of(pairs, n):
    """Dense membership matrix of n samples' ordered neighbor pairs."""
    members = np.zeros((n, n), dtype=bool)
    members[pairs] = True
    return members


def balls(Z, radius):
    """Neighbor balls as lists of indices, one per sample, in pair order."""
    out = [[] for _ in range(Z.shape[1])]
    for i, j in zip(*sets_at(Z, radius)):
        out[i].append(int(j))
    return out


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


def assert_radius_and_balls_exact(Z, target, hint=None):
    """The automatic radius, searched from ``hint``, equals the plain
    upper-triangle choice and its balls equal the double-loop oracle's,
    exactly."""
    radius, near = auto_radius(Z, target, hint)
    assert radius == upper_triangle_radius(Z, target)
    members = members_of(neighbor_sets(near, radius), Z.shape[1])
    assert np.array_equal(members, oracle_members(Z, radius))
    return radius


class TestPairwiseSquared:
    """Squared loading distances, read off the grid's candidate pairs."""

    @pytest.mark.parametrize("block", [1, 200, 1 << 16])
    def test_blocks_match_whole_matrix(self, monkeypatch, block):
        # grids of at most 1, 200 and 65536 cells per axis: every candidate
        # carries its dense matrix entry bit for bit, and every pair below
        # the reach is a candidate exactly once
        rng = np.random.default_rng(block)
        Z = rng.standard_normal((3, 53))
        want = np.zeros((53, 53))
        for row in Z:
            diff = row[:, None] - row[None, :]
            want += diff * diff
        monkeypatch.setattr(persreg.metric, "MAX_CELLS", block)
        for radius in (1e-6, 0.5):
            near = candidate_pairs(Z, radius)
            i, j = near.order[near.first], near.order[near.second]
            assert near.reach >= radius
            assert np.array_equal(near.sq, want[i, j])
            seen = np.zeros((53, 53), dtype=int)
            np.add.at(seen, (np.minimum(i, j), np.maximum(i, j)), 1)
            assert seen.max() <= 1 and not np.tril(seen).any()
            assert seen[np.triu(want < near.reach, k=1)].all()
        assert np.isinf(near.reach) == (block == 1)


class TestNeighborSets:
    def test_single_sample(self):
        i_idx, j_idx = sets_at(np.zeros((2, 1)), 1.0)
        assert len(i_idx) == len(j_idx) == 0

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
        near = candidate_pairs(np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError, match="radius"):
            neighbor_sets(near, 0.0)
        with pytest.raises(ValueError, match="radius"):
            candidate_pairs(np.zeros((1, 2)), 0.0)

    @pytest.mark.parametrize(
        "radius, message",
        [(0.0, "radius must be > 0, got 0.0"),
         (-1, "radius must be > 0, got -1"),
         (float("inf"), "radius must be finite, got inf"),
         (float("nan"), "radius must be finite, got nan")],
    )
    def test_bad_radius_is_refused_with_its_value(self, radius, message):
        near = candidate_pairs(np.zeros((1, 2)), 1.0)
        for call in (lambda: neighbor_sets(near, radius),
                     lambda: candidate_pairs(np.zeros((1, 2)), radius)):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message

    def test_symmetric_relation(self):
        rng = np.random.default_rng(3)
        members = members_of(sets_at(rng.standard_normal((3, 40)), 2.0), 40)
        assert np.array_equal(members, members.T)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.integers(1, 3))
    @example(11, 200, 2)
    def test_grid_matches_brute_force(self, seed, n, q):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((q, n))
        radius = float(rng.uniform(0.05, 2.0))
        got = members_of(sets_at(Z, radius), n)
        assert np.array_equal(got, oracle_members(Z, radius))

    def test_grid_path_matches_reference_loops(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((2, 200))
        radius = 0.3
        got = members_of(sets_at(Z, radius), 200)
        assert np.array_equal(got, oracle_members(Z, radius))

    def test_pairs_are_sorted_by_i_then_j(self):
        rng = np.random.default_rng(5)
        i_idx, j_idx = sets_at(rng.standard_normal((2, 30)), 1.0)
        members = members_of((i_idx, j_idx), 30)
        order = np.lexsort((j_idx, i_idx))
        assert np.array_equal(order, np.arange(len(i_idx)))
        assert np.array_equal(members[i_idx, j_idx], np.ones(len(i_idx), dtype=bool))
        assert len(i_idx) == members.sum()

    def test_neighbor_pairs_carry_their_covariate_distances(self):
        rng = np.random.default_rng(8)
        table = mixed_table(rng, 25)
        i_idx, j_idx = sets_at(rng.standard_normal((2, 25)), 1.0)
        pairs = neighbor_pairs((i_idx, j_idx), table)
        assert pairs.i_idx is i_idx and pairs.j_idx is j_idx
        mats = oracle_matrices(table)
        for dist, mat in zip(pairs.distances, mats):
            assert np.array_equal(dist, mat[i_idx, j_idx])
        assert pairs.distances.shape == (2, len(i_idx))

    def test_radius_beyond_the_candidates_rejected(self):
        Z = np.random.default_rng(6).standard_normal((2, 50))
        near = candidate_pairs(Z, 0.01)
        with pytest.raises(ValueError, match="reach"):
            neighbor_sets(near, 2.0 * near.reach)


class TestAutoRadius:
    def test_two_points_forced(self):
        Z = np.array([[0.0, 2.0]])
        r, _ = auto_radius(Z, 1.0)
        assert r > 4.0
        assert balls(Z, r) == [[1], [0]]

    def test_one_dimensional_hand_case(self):
        Z = np.array([[0.0, 1.0, 3.0]])
        r, _ = auto_radius(Z, 2.0)
        assert 9.0 < r < 9.0 * (1.0 + 1e-11)
        assert all(len(ball) == 2 for ball in balls(Z, r))

    def test_identical_points_degenerate(self):
        Z = np.zeros((2, 5))
        r, _ = auto_radius(Z, 2.0)
        assert r == 1e-12
        assert all(len(ball) == 4 for ball in balls(Z, r))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            auto_radius(np.zeros((1, 1)), 1.0)

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            auto_radius(np.zeros((1, 3)), 2.5)

    @given(st.integers(0, 2**32 - 1))
    def test_duplicate_columns_match_upper_triangle(self, seed):
        # repeated loading columns put zeros off the diagonal
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        Z = rng.standard_normal((2, n))[:, rng.integers(0, max(1, n // 3), size=n)]
        target = float(rng.uniform(0.1, n - 1))
        got, _ = auto_radius(Z, target)
        assert got == upper_triangle_radius(Z, target)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_largest_target_takes_largest_pair(self, n):
        # m = n(n - 1) / 2, the last pair distance
        Z = np.random.default_rng(n).standard_normal((3, n))
        r, _ = auto_radius(Z, n - 1)
        assert r == upper_triangle_radius(Z, n - 1)
        assert r == float(pairwise_squared(Z).max()) * (1.0 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_average_count_near_target(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        Z = rng.standard_normal((2, n))
        target = float(rng.uniform(1.0, min(15.0, n - 1)))
        r = assert_radius_and_balls_exact(Z, target)
        avg = sum(len(ball) for ball in balls(Z, r)) / n
        assert target - 1.0 <= avg <= target + 1.0

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_anisotropic_start_matches_upper_triangle(self, q):
        # rows whose spreads differ by ten orders of magnitude, as at the
        # factorized start, where one latent row is nearly constant
        rng = np.random.default_rng(q)
        Z = rng.standard_normal((q, 300)) * np.logspace(0, -10, q)[:, None]
        Z[-1] += 3.0
        for target in (1.0, 10.0, 299.0):
            assert_radius_and_balls_exact(Z, target)


def degenerate_loadings(rng, kind, q, n):
    """Loadings that stress the grid: tight far-apart clusters, columns
    drawn from a small pool, or one point repeated, at a random scale and
    offset."""
    scale = 10.0 ** rng.uniform(-8, 8)
    offset = rng.standard_normal((q, 1)) * 10.0 ** rng.uniform(-8, 8)
    if kind == "clustered":
        centers = rng.standard_normal((q, int(rng.integers(1, 5))))
        spread = 10.0 ** rng.uniform(-12, -2)
        labels = rng.integers(0, centers.shape[1], size=n)
        Z = centers[:, labels] + spread * rng.standard_normal((q, n))
    elif kind == "duplicated":
        Z = rng.standard_normal((q, n))[:, rng.integers(0, max(1, n // 4), size=n)]
    else:
        Z = np.repeat(rng.standard_normal((q, 1)), n, axis=1)
    return offset + scale * Z


class TestDegenerateGeometry:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["clustered", "duplicated", "coincident"]),
        st.integers(1, 3),
        st.integers(2, 60),
    )
    @example(0, "clustered", 2, 60)
    @example(1, "coincident", 3, 2)
    def test_radius_and_balls_match_oracles(self, seed, kind, q, n):
        rng = np.random.default_rng(seed)
        Z = degenerate_loadings(rng, kind, q, n)
        for target in (float(rng.uniform(0.1, n - 1)), float(n - 1)):
            assert_radius_and_balls_exact(Z, target)
        upper = pairwise_squared(Z)[np.triu_indices(n, k=1)]
        positive = upper[upper > 0.0]
        # below every positive pair distance: only coincident pairs remain
        low = float(positive.min()) / 2.0 if positive.size else 1e-300
        members = members_of(sets_at(Z, low), n)
        assert np.array_equal(members, oracle_members(Z, low))
        assert members.sum() == 2 * np.count_nonzero(upper == 0.0)
        # above every pair distance: every pair
        high = 2.0 * float(upper.max()) + 1.0
        members = members_of(sets_at(Z, high), n)
        assert members.sum() == n * (n - 1)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_coincident_loadings_take_every_pair(self, q):
        n = 500
        Z = np.full((q, n), 1e8)
        radius, near = auto_radius(Z, 10.0)
        assert radius == RADIUS_NUDGE
        i_idx, j_idx = neighbor_sets(near, radius)
        assert len(i_idx) == n * (n - 1)
        assert not np.any(i_idx == j_idx)


def gaussian_or_degenerate(rng, kind, q, n):
    if kind == "gaussian":
        return rng.standard_normal((q, n))
    return degenerate_loadings(rng, kind, q, n)


class TestRadiusHint:
    """The radius search may start from any hint, such as the previous
    training step's radius: the hint changes how many grids it takes, never
    the radius or the balls."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gaussian", "clustered", "duplicated", "coincident"]),
        st.integers(1, 3),
        st.integers(2, 80),
    )
    @example(0, "gaussian", 2, 80)
    @example(3, "clustered", 2, 80)
    @example(1, "coincident", 3, 2)
    def test_hint_never_changes_the_result(self, seed, kind, q, n):
        rng = np.random.default_rng(seed)
        Z = gaussian_or_degenerate(rng, kind, q, n)
        for target in (float(rng.uniform(0.1, n - 1)), float(n - 1)):
            truth = upper_triangle_radius(Z, target)
            for hint in (None, truth, truth * 1e-6, truth * 1e6):
                assert assert_radius_and_balls_exact(Z, target, hint) == truth

    @pytest.mark.parametrize(
        "hint, message",
        [(0.0, "hint must be > 0, got 0.0"),
         (-1.0, "hint must be > 0, got -1.0"),
         (float("inf"), "hint must be finite, got inf"),
         (float("nan"), "hint must be finite, got nan")],
    )
    def test_bad_hint_is_refused_with_its_value(self, hint, message):
        Z = np.random.default_rng(2).standard_normal((2, 10))
        with pytest.raises(ValueError) as refused:
            auto_radius(Z, 3.0, hint)
        assert str(refused.value) == message


class TestTieOrder:
    """The grid sorts samples by cell with an unstable sort, so the order of
    samples sharing a cell may differ between CPUs.  Permuting the loading
    columns reorders those ties; the pairs, mapped back, must not move."""

    @staticmethod
    def mapped_back(pairs, perm):
        i_idx, j_idx = perm[pairs[0]], perm[pairs[1]]
        order = np.lexsort((j_idx, i_idx))
        return i_idx[order], j_idx[order]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gaussian", "clustered", "duplicated"]),
        st.integers(1, 3),
        st.integers(2, 300),
    )
    @example(0, "duplicated", 2, 300)
    @example(5, "clustered", 1, 300)
    def test_permuted_columns_give_the_same_pairs(self, seed, kind, q, n):
        rng = np.random.default_rng(seed)
        Z = gaussian_or_degenerate(rng, kind, q, n)
        perm = rng.permutation(n)
        target = float(rng.uniform(0.5, min(20.0, n - 1)))
        radius, near = auto_radius(Z, target)
        permuted_radius, permuted_near = auto_radius(Z[:, perm], target)
        assert permuted_radius == radius
        want = neighbor_sets(near, radius)
        got = self.mapped_back(neighbor_sets(permuted_near, radius), perm)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        fixed = float(np.median(pairwise_squared(Z)))
        if fixed > 0.0:
            got = self.mapped_back(sets_at(Z[:, perm], fixed), perm)
            for a, b in zip(got, sets_at(Z, fixed)):
                assert np.array_equal(a, b)


class TestBadInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loadings_rejected(self, bad):
        Z = np.random.default_rng(0).standard_normal((2, 10))
        Z[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            auto_radius(Z, 3.0)
        with pytest.raises(ValueError, match="finite"):
            candidate_pairs(Z, 1.0)

    @pytest.mark.parametrize("shape", [(10,), (0, 10)])
    def test_loadings_without_a_latent_row_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(q, n\) array with q >= 1"):
            candidate_pairs(np.zeros(shape), 1.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_radius_rejected(self, radius):
        Z = np.random.default_rng(1).standard_normal((2, 10))
        with pytest.raises(ValueError, match="radius"):
            candidate_pairs(Z, radius)
        with pytest.raises(ValueError, match="radius"):
            neighbor_sets(candidate_pairs(Z, 1.0), radius)

    def test_overflowing_range_rejected(self):
        Z = np.array([[-1e308, 1e308, 0.0]])
        with pytest.raises(NumericalError, match="overflow"):
            auto_radius(Z, 1.0)
        with pytest.raises(NumericalError, match="overflow"):
            candidate_pairs(Z, 1.0)
