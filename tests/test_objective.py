import math
import warnings

import numpy as np
import pytest

from persreg.model import CovariateTable, Dataset, Factorization, HyperParams
from persreg.objective import (
    NumericalError,
    Scratch,
    batch_loss_terms,
    composite_objective,
    distance_match,
    score_terms,
    sigmoid,
)
from persreg.optimizer import resolve_pairs

from oracles import (
    central_difference,
    oracle_matrices,
    pairs_within,
    pairwise_squared,
    relative_error,
)


def one_sample(x, y, coef, task):
    """``batch_loss_terms`` of a single sample: (loss, subgradient)."""
    losses, grads = batch_loss_terms(np.array([x], float), np.array([y], float),
                                     np.array(coef, float)[:, None], task)
    return float(losses[0]), grads[:, 0]


def one_loss(x, y, coef, task):
    return one_sample(x, y, coef, task)[0]


def one_subgradient(x, y, coef, task):
    return one_sample(x, y, coef, task)[1]


def step_objective(fact, weights, ds, hyper):
    """``composite_objective`` over the pairs a training step would use."""
    _, pairs = resolve_pairs(fact.loadings, ds.covariates, hyper)
    return composite_objective(fact, weights, ds, hyper, pairs, Scratch())


class TestSigmoid:
    def test_extreme_scores_stay_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(np.array([-800.0, -1.0, 0.0, 1.0, 800.0]))
        assert got[0] == 0.0 and got[2] == 0.5 and got[4] == 1.0
        assert got[1] == pytest.approx(1.0 - got[3], rel=1e-15)

    def test_entries_match_scalar_formula_and_their_own_evaluation(self):
        z = np.random.default_rng(0).normal(scale=20.0, size=500)
        got = sigmoid(z)
        for i, zi in enumerate(z):
            assert got[i] == sigmoid(z[i : i + 1])[0]
            want = 1.0 / (1.0 + math.exp(-zi)) if zi >= 0 else (
                math.exp(zi) / (1.0 + math.exp(zi))
            )
            assert got[i] == pytest.approx(want, rel=1e-14)


class TestScoreTerms:
    """``score_terms`` against the separate loss and slope formulas, bit for
    bit, signed zeros included."""

    TINY = np.nextafter(0.0, 1.0)
    Z = np.concatenate((
        [-800.0, -40.0, -1.0, -0.0, 0.0, 1.0, 40.0, 800.0],
        [TINY, -TINY, 1e-310, -1e-310],
        np.random.default_rng(8).normal(scale=20.0, size=200),
    ))

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_classification(self, label):
        z, y = self.Z, np.full(len(self.Z), label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses, slopes = score_terms(z, y, "classification")
        want = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
        assert np.array_equal(self.bits(losses), self.bits(want))
        assert np.array_equal(self.bits(slopes), self.bits(sigmoid(z) - y))

    def test_regression(self):
        z = self.Z
        y = np.random.default_rng(9).normal(size=len(z))
        y[:3] = (0.0, -0.0, 1.0)
        losses, slopes = score_terms(z, y, "regression")
        assert np.array_equal(self.bits(losses), self.bits((y - z) * (y - z)))
        assert np.array_equal(self.bits(slopes), self.bits(-2.0 * (y - z)))


class TestPredictiveLoss:
    def test_perfect_regression_fit(self):
        assert one_loss([1.0], 1.0, [1.0], "regression") == 0.0

    def test_zero_model_squared_residual(self):
        assert one_loss([1.0], 1.0, [0.0], "regression") == 1.0

    def test_uninformative_classifier(self):
        got = one_loss([1.0, 2.0], 1.0, [0.0, 0.0], "classification")
        assert got == pytest.approx(np.log(2.0), rel=1e-12)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            Dataset(
                predictors=[[1.0]],
                responses=[0.3],
                covariates=CovariateTable.continuous([[0.0]]),
                task="classification",
            )

    def test_logistic_stable_for_extreme_scores(self):
        big = one_loss([1.0], 0.0, [800.0], "classification")
        assert np.isfinite(big) and big == pytest.approx(800.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3))
        theta = rng.standard_normal((3, 7))
        for task in ("regression", "classification"):
            y = (
                rng.standard_normal(7)
                if task == "regression"
                else rng.integers(0, 2, 7).astype(float)
            )
            batch = batch_loss_terms(X, y, theta, task)[0]
            for i in range(7):
                z = float(X[i] @ theta[:, i])
                if task == "regression":
                    want = (y[i] - z) ** 2
                else:
                    want = math.log1p(math.exp(z)) - y[i] * z
                assert batch[i] == one_loss(X[i], y[i], theta[:, i], task)
                assert batch[i] == pytest.approx(want, rel=1e-12)


class TestLossSubgradient:
    def test_zero_at_perfect_fit(self):
        got = one_subgradient([1.0, 2.0], 3.0, [1.0, 1.0], "regression")
        assert np.array_equal(got, np.zeros(2))

    def test_hand_regression_value(self):
        got = one_subgradient([1.0, 0.0], 0.0, [1.0, 0.0], "regression")
        assert np.array_equal(got, [2.0, 0.0])

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_finite_differences(self, task):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(4)
            y = float(rng.integers(0, 2)) if task == "classification" else rng.normal()
            coef = rng.standard_normal(4)
            got = one_subgradient(x, y, coef, task)
            want = central_difference(lambda c: one_loss(x, y, c, task), coef, 1e-6)
            assert relative_error(got, want) <= 1e-6

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 2))
        theta = rng.standard_normal((2, 5))
        for task in ("regression", "classification"):
            y = (
                rng.standard_normal(5)
                if task == "regression"
                else rng.integers(0, 2, 5).astype(float)
            )
            batch = batch_loss_terms(X, y, theta, task)[1]
            for i in range(5):
                z = float(X[i] @ theta[:, i])
                if task == "regression":
                    want = -2.0 * (y[i] - z) * X[i]
                else:
                    want = (1.0 / (1.0 + math.exp(-z)) - y[i]) * X[i]
                got = one_subgradient(X[i], y[i], theta[:, i], task)
                assert np.array_equal(batch[:, i], got)
                assert np.allclose(batch[:, i], want, rtol=1e-12, atol=0.0)


def l1_only(theta, strength):
    """Composite objective of coefficient columns ``theta`` (identity
    dictionary) on all-zero data, so only the l1 penalty is left."""
    p, n = theta.shape
    ds = Dataset(
        predictors=np.zeros((n, p)),
        responses=np.zeros(n),
        covariates=CovariateTable.continuous(np.zeros((n, 1))),
    )
    fact = Factorization(loadings=theta, dictionary=np.eye(p))
    hyper = HyperParams(l1=strength, distance_match=0.0, weights_anchor=0.0,
                        latent_dim=p)
    return step_objective(fact, np.ones(1), ds, hyper)


class TestL1Term:
    def test_zero_vector(self):
        bundle = l1_only(np.zeros((3, 3)), 2.0)
        assert bundle.value == 0.0
        assert np.array_equal(bundle.grad_loadings, np.zeros((3, 3)))

    def test_hand_values(self):
        bundle = l1_only(np.array([[2.0, 0.0], [-3.0, 0.0]]), 0.5)
        assert bundle.value == pytest.approx(2.5)
        assert np.array_equal(bundle.grad_loadings, [[0.5, 0.0], [-0.5, 0.0]])

    def test_zero_strength(self):
        bundle = l1_only(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.0)
        assert bundle.value == 0.0
        assert np.array_equal(bundle.grad_loadings, np.zeros((2, 2)))

    def test_subgradient_zero_exactly_at_kinks(self):
        theta = np.zeros((3, 3))
        theta[:, 0] = [0.0, -0.0, 1.0]
        grad = l1_only(theta, 1.0).grad_loadings[:, 0]
        assert grad[0] == 0.0 and grad[1] == 0.0 and grad[2] == 1.0


def two_sample_setup(z_values, u_values, radius=10.0):
    loadings = np.asarray(z_values, dtype=float)
    table = CovariateTable.continuous(np.asarray(u_values, dtype=float))
    return loadings, pairs_within(loadings, radius, table)


class TestDistanceMatchValues:
    def test_identical_samples_give_zero(self):
        loadings, pairs = two_sample_setup(
            np.zeros((2, 3)), np.zeros((3, 2)), radius=1.0
        )
        got = distance_match(loadings, np.ones(2), pairs, 5.0, Scratch())[0]
        assert np.array_equal(got, np.zeros(3))

    def test_two_sample_hand_value(self):
        # learned distance 2, squared loading distance 1, strength 2
        loadings, pairs = two_sample_setup(
            [[0.0, 1.0]], [[0.0], [2.0]], radius=10.0
        )
        got = distance_match(loadings, np.ones(1), pairs, 2.0, Scratch())[0]
        assert np.array_equal(got, [1.0, 1.0])

    def test_zero_strength_disables(self):
        loadings, pairs = two_sample_setup(
            [[0.0, 1.0]], [[0.0], [2.0]], radius=10.0
        )
        got = distance_match(loadings, np.ones(1), pairs, 0.0, Scratch())[0]
        assert np.array_equal(got, np.zeros(2))

    def test_weights_must_cover_every_covariate(self):
        loadings, pairs = two_sample_setup([[0.0, 1.0]], [[0.0], [2.0]])
        with pytest.raises(ValueError, match="number of covariates"):
            distance_match(loadings, np.ones(2), pairs, 1.0, Scratch())

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(3)
        loadings = rng.standard_normal((2, 20))
        table = CovariateTable.continuous(rng.uniform(size=(20, 3)))
        pairs = pairs_within(loadings, 1.0, table)
        got = distance_match(loadings, rng.uniform(size=3), pairs, 7.0, Scratch())[0]
        assert np.all(got >= 0.0)


class TestDistanceMatchGradients:
    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            q = int(rng.integers(1, 4))
            loadings = rng.standard_normal((q, n))
            table = CovariateTable.continuous(rng.uniform(size=(n, 2)))
            pairs = pairs_within(loadings, float(rng.uniform(0.5, 4.0)), table)
            gz, _ = distance_match(
                loadings, rng.uniform(size=2), pairs, float(rng.uniform(0.5, 2)), Scratch()
            )[1:]
            assert np.max(np.abs(gz.sum(axis=1))) <= 1e-8

    def test_matched_distances_give_zero_gradient(self):
        # squared loading distance 1 equals the learned distance
        loadings, pairs = two_sample_setup(
            [[0.0, 1.0]], [[0.0], [1.0]], radius=10.0
        )
        gz, gw = distance_match(loadings, np.ones(1), pairs, 3.0, Scratch())[1:]
        assert np.array_equal(gz, np.zeros((1, 2)))
        assert np.array_equal(gw, np.zeros(1))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n, q, k = 12, 2, 3
            loadings = rng.standard_normal((q, n))
            weights = rng.uniform(0.5, 1.5, size=k)
            table = CovariateTable.continuous(rng.uniform(size=(n, k)))
            # keep the radius away from every pairwise distance so the pairs
            # are locally constant under the finite-difference probes
            sq = pairwise_squared(loadings)
            vals = np.sort(sq[np.triu_indices(n, k=1)])
            radius = float(0.5 * (vals[len(vals) // 2] + vals[len(vals) // 2 + 1]))
            pairs = pairs_within(loadings, radius, table)
            strength = 2.5

            def total_from_loadings(flat):
                values = distance_match(
                    flat.reshape(q, n), weights, pairs, strength, Scratch()
                )[0]
                return float(np.sum(values))

            def total_from_weights(w):
                values = distance_match(loadings, w, pairs, strength, Scratch())[0]
                return float(np.sum(values))

            gz, gw = distance_match(loadings, weights, pairs, strength, Scratch())[1:]
            want_z = central_difference(total_from_loadings, loadings.ravel(), 1e-6)
            want_w = central_difference(total_from_weights, weights, 1e-6)
            assert relative_error(gz.ravel(), want_z) <= 1e-6
            assert relative_error(gw, want_w) <= 1e-6


def perfect_fit_problem(rng, n=8, p=2):
    theta = rng.standard_normal((p, n))
    X = rng.standard_normal((n, p))
    y = np.einsum("ij,ji->i", X, theta)
    # any factorization reproducing theta exactly: q = p with identity dict
    fact = Factorization(loadings=theta, dictionary=np.eye(p))
    ds = Dataset(
        predictors=X,
        responses=y,
        covariates=CovariateTable.continuous(rng.uniform(size=(n, 2))),
    )
    return fact, ds


class TestCompositeObjective:
    def test_global_minimum_when_unregularized(self):
        rng = np.random.default_rng(6)
        fact, ds = perfect_fit_problem(rng)
        hyper = HyperParams(l1=0.0, distance_match=0.0, weights_anchor=0.0)
        bundle = step_objective(fact, np.ones(2), ds, hyper)
        assert bundle.value == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(bundle.grad_loadings, 0.0, atol=1e-12)
        assert np.allclose(bundle.grad_dictionary, 0.0, atol=1e-12)

    def test_anchored_weights_have_zero_gradient(self):
        rng = np.random.default_rng(7)
        fact, ds = perfect_fit_problem(rng)
        hyper = HyperParams(l1=0.1, distance_match=0.0, weights_anchor=0.3)
        bundle = step_objective(fact, np.ones(2), ds, hyper)
        assert np.array_equal(bundle.grad_weights, np.zeros(2))

    def test_all_blocks_match_finite_differences(self):
        rng = np.random.default_rng(8)
        n, p, q, k = 10, 3, 2, 2
        X = rng.standard_normal((n, p))
        fact = Factorization(
            loadings=rng.standard_normal((q, n)),
            dictionary=rng.standard_normal((q, p)),
        )
        # responses keeping every implied coefficient away from zero
        theta = fact.dictionary.T @ fact.loadings
        assert np.min(np.abs(theta)) > 1e-3
        y = np.einsum("ij,ji->i", X, theta) + rng.standard_normal(n)
        ds = Dataset(
            predictors=X,
            responses=y,
            covariates=CovariateTable.continuous(rng.uniform(size=(n, k))),
        )
        weights = rng.uniform(0.5, 1.5, size=k)
        hyper = HyperParams(
            l1=0.05, distance_match=1.2, weights_anchor=0.4, latent_dim=q, radius=2.0,
            target_neighbors=None,
        )
        pairs = pairs_within(fact.loadings, 2.0, ds.covariates)
        bundle = composite_objective(fact, weights, ds, hyper, pairs, Scratch())

        def value_of(loadings=None, dictionary=None, w=None):
            f = Factorization(
                loadings=fact.loadings if loadings is None else loadings,
                dictionary=fact.dictionary if dictionary is None else dictionary,
            )
            ww = weights if w is None else w
            return composite_objective(f, ww, ds, hyper, pairs, Scratch()).value

        want_z = central_difference(
            lambda z: value_of(loadings=z.reshape(q, n)), fact.loadings.ravel(), 1e-6
        )
        want_q = central_difference(
            lambda d: value_of(dictionary=d.reshape(q, p)),
            fact.dictionary.ravel(),
            1e-6,
        )
        want_w = central_difference(lambda w: value_of(w=w), weights, 1e-6)
        assert relative_error(bundle.grad_loadings.ravel(), want_z) <= 1e-5
        assert relative_error(bundle.grad_dictionary.ravel(), want_q) <= 1e-5
        assert relative_error(bundle.grad_weights, want_w) <= 1e-5

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loss_names_sample(self):
        ds = Dataset(
            predictors=[[1.0], [1.0]],
            responses=[0.0, 1.0],
            covariates=CovariateTable.continuous(np.zeros((2, 1))),
        )
        fact = Factorization(
            loadings=np.array([[1.0, 1e200]]), dictionary=np.array([[1.0]])
        )
        with pytest.raises(NumericalError) as err:
            step_objective(fact, np.ones(1), ds, HyperParams(distance_match=0.0))
        assert err.value.sample == 1


class TestWeightCurvature:
    """``weight_curvature`` is the trace of the weight Hessian of the
    objective, so a matching term changed without its curvature fails
    here: the weight step's rate cap reads it."""

    @staticmethod
    def mixed_problem(n=16, p=2, q=2):
        rng = np.random.default_rng(11)
        labels = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, n)]
        table = CovariateTable.from_columns(
            [rng.uniform(size=n), labels, rng.uniform(size=n)],
            ["continuous", "categorical", "continuous"],
        )
        ds = Dataset(
            predictors=rng.standard_normal((n, p)),
            responses=rng.standard_normal(n),
            covariates=table,
        )
        fact = Factorization(
            loadings=rng.standard_normal((q, n)),
            dictionary=rng.standard_normal((q, p)),
        )
        return fact, ds, rng.uniform(0.5, 1.5, size=table.width)

    def test_equals_the_oracle_trace_exactly(self):
        fact, ds, weights = self.mixed_problem()
        pairs = pairs_within(fact.loadings, 2.0, ds.covariates)
        assert len(pairs.i_idx) > 0
        hyper = HyperParams(distance_match=1.7, weights_anchor=0.3)
        got = composite_objective(fact, weights, ds, hyper, pairs, Scratch())
        columns = [mat[pairs.i_idx, pairs.j_idx] for mat in oracle_matrices(ds.covariates)]
        want = hyper.distance_match * sum(float(np.sum(v * v)) for v in columns)
        want += 2.0 * hyper.weights_anchor * ds.k
        assert got.weight_curvature == want

    def test_is_the_anchor_alone_without_matching_or_pairs(self):
        fact, ds, weights = self.mixed_problem()
        anchor_only = 2.0 * 0.3 * ds.k
        pairs = pairs_within(fact.loadings, 2.0, ds.covariates)
        off = HyperParams(distance_match=0.0, weights_anchor=0.3)
        got = composite_objective(fact, weights, ds, off, pairs, Scratch())
        assert got.weight_curvature == anchor_only

        none = pairs_within(fact.loadings, 1e-12, ds.covariates)
        assert len(none.i_idx) == 0
        on = HyperParams(distance_match=1.7, weights_anchor=0.3)
        got = composite_objective(fact, weights, ds, on, none, Scratch())
        assert got.weight_curvature == anchor_only

    def test_matches_second_differences_of_the_value(self):
        fact, ds, weights = self.mixed_problem()
        pairs = pairs_within(fact.loadings, 2.0, ds.covariates)
        hyper = HyperParams(distance_match=1.7, weights_anchor=0.3)

        def value_at(w):
            return composite_objective(fact, w, ds, hyper, pairs, Scratch()).value

        centre = composite_objective(fact, weights, ds, hyper, pairs, Scratch())
        # the value is exactly quadratic in the weights, so any step is exact
        # up to rounding
        h = 0.25
        trace = 0.0
        for unit in np.eye(len(weights)):
            trace += (value_at(weights + h * unit) - 2.0 * centre.value
                      + value_at(weights - h * unit)) / (h * h)
        assert trace == pytest.approx(centre.weight_curvature, rel=1e-6)
