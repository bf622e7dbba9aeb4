import numpy as np
import pytest
from hypothesis import given, strategies as st

from persreg.model import (
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    TrainedModel,
    center_of_mass,
    coefficient_matrix,
)

from oracles import normalize_dictionary


def random_factorization(rng, q=None, p=None, n=None):
    q = q or rng.integers(1, 4)
    p = p or rng.integers(q, q + 4)
    n = n or rng.integers(q, q + 30)
    return Factorization(
        loadings=rng.standard_normal((q, n)), dictionary=rng.standard_normal((q, p))
    )


class TestCoefficientMatrix:
    def test_zero_loadings_give_zero_matrix(self):
        fact = Factorization(loadings=np.zeros((2, 3)), dictionary=np.ones((2, 4)))
        assert np.array_equal(coefficient_matrix(fact), np.zeros((4, 3)))

    def test_identity_dictionary_returns_loadings(self):
        Z = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        fact = Factorization(loadings=Z, dictionary=np.eye(2))
        assert np.array_equal(coefficient_matrix(fact), Z)

    def test_hand_cross_product(self):
        fact = Factorization(
            loadings=np.array([[1.0, -1.0]]), dictionary=np.array([[2.0, 3.0]])
        )
        assert np.array_equal(
            coefficient_matrix(fact), np.array([[2.0, -2.0], [3.0, -3.0]])
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Factorization(loadings=np.zeros((2, 3)), dictionary=np.zeros((3, 4)))


class TestNormalizeDictionary:
    def test_hand_normalization(self):
        fact = Factorization(
            loadings=np.ones((2, 2)), dictionary=np.array([[3.0, 0.0], [4.0, 1.0]])
        )
        out = normalize_dictionary(fact)
        assert np.allclose(out.dictionary[:, 0], [0.6, 0.8])
        assert np.array_equal(out.loadings, fact.loadings)

    def test_idempotent_on_unit_columns(self):
        fact = Factorization(loadings=np.ones((2, 2)), dictionary=np.eye(2))
        out = normalize_dictionary(fact)
        assert np.array_equal(out.dictionary, np.eye(2))

    def test_zero_column_names_index(self):
        fact = Factorization(
            loadings=np.ones((2, 2)), dictionary=np.array([[1.0, 0.0], [0.0, 0.0]])
        )
        with pytest.raises(ValueError, match="column 1"):
            normalize_dictionary(fact)

    @given(st.integers(0, 2**32 - 1))
    def test_column_norms_become_one(self, seed):
        rng = np.random.default_rng(seed)
        fact = random_factorization(rng)
        out = normalize_dictionary(fact)
        norms = np.linalg.norm(out.dictionary, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)


class TestCenterOfMass:
    def test_constant_columns(self):
        theta = np.array([0.5, -1.5])
        fact = Factorization(
            loadings=np.ones((1, 4)), dictionary=theta[None, :]
        )
        assert np.allclose(center_of_mass(fact), theta)

    def test_two_sample_average(self):
        fact = Factorization(
            loadings=np.array([[1.0, 0.0], [0.0, 1.0]]), dictionary=np.eye(2)
        )
        assert np.allclose(center_of_mass(fact), [0.5, 0.5])

    def test_zero_loadings(self):
        fact = Factorization(loadings=np.zeros((2, 5)), dictionary=np.ones((2, 3)))
        assert np.array_equal(center_of_mass(fact), np.zeros(3))

    @given(st.integers(0, 2**32 - 1))
    def test_matches_row_means(self, seed):
        rng = np.random.default_rng(seed)
        fact = random_factorization(rng)
        rowmeans = coefficient_matrix(fact).mean(axis=1)
        assert np.max(np.abs(center_of_mass(fact) - rowmeans)) <= 1e-12


@given(st.integers(0, 2**32 - 1))
def test_loading_distance_bounds_coefficient_distance(seed):
    # after normalization, coefficient distances are at most sqrt(p) times
    # loading distances
    rng = np.random.default_rng(seed)
    fact = normalize_dictionary(random_factorization(rng))
    theta = coefficient_matrix(fact)
    p = theta.shape[0]
    i, j = rng.integers(0, fact.n_samples, size=2)
    lhs = np.linalg.norm(theta[:, i] - theta[:, j])
    rhs = np.sqrt(p) * np.linalg.norm(
        fact.loadings[:, i] - fact.loadings[:, j]
    )
    assert lhs <= rhs + 1e-10


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(
            predictors=[[1.0, 2.0]],
            responses=[0.5],
            covariates=CovariateTable.continuous([[0.1]]),
        )
        assert (ds.n, ds.p, ds.k) == (1, 2, 1)

    def test_rejects_non_finite_predictors(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(
                predictors=[[np.nan]],
                responses=[0.0],
                covariates=CovariateTable.continuous([[0.0]]),
            )

    def test_classification_labels_checked(self):
        with pytest.raises(ValueError, match="0/1"):
            Dataset(
                predictors=[[1.0]],
                responses=[0.5],
                covariates=CovariateTable.continuous([[0.0]]),
                task="classification",
            )

    def test_take_subsets_rows(self):
        ds = Dataset(
            predictors=np.arange(6.0).reshape(3, 2),
            responses=[1.0, 2.0, 3.0],
            covariates=CovariateTable.continuous(np.arange(3.0)[:, None]),
        )
        sub = ds.take([2, 0])
        assert np.array_equal(sub.responses, [3.0, 1.0])
        assert np.array_equal(sub.covariates.columns[0], [2.0, 0.0])


class TestCovariateTable:
    def test_mixed_kinds_roundtrip(self):
        table = CovariateTable.from_columns(
            [np.array([0.0, 1.0]), np.array(["a", "b"], dtype=object)],
            ["continuous", "categorical"],
        )
        assert table.row(1) == (1.0, "b")
        # a label is compared as a string and an unseen one is code -1
        assert table.encode_row((2, "b")) == (2.0, 1)
        assert table.encode_row(("2.5", "c")) == (2.5, -1)

    def test_encode_row_length(self):
        table = CovariateTable.continuous([[0.0, 1.0]])
        with pytest.raises(ValueError, match="schema expects 2"):
            table.encode_row((1.0,))

    def test_non_finite_continuous_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            CovariateTable.continuous([[0.0], [np.inf]])


class TestHyperParams:
    def test_defaults_follow_published_setting(self):
        hyper = HyperParams()
        assert hyper.l1 == 1e-1
        assert hyper.distance_match == 1e5
        assert hyper.weights_anchor == 1e-2
        assert hyper.latent_dim == 2
        assert hyper.lr_init == 1e-4
        assert hyper.lr_decay == 1.0 - 1e-4
        assert hyper.n_neighbors == 3
        assert hyper.target_neighbors == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l1": -1.0},
            {"distance_match": -0.1},
            {"latent_dim": 0},
            {"lr_decay": 1.0},
            {"lr_init": 0.0},
            {"radius": -1.0},
            {"radius": float("inf")},
            {"radius": None, "target_neighbors": None},
            {"n_neighbors": 0},
            {"rel_tol": 0.0},
            {"l1": "abc"},
            {"latent_dim": 1.5},
            {"max_iters": 2.5},
            {"n_neighbors": True},
            {"lr_init": None},
            {"init_noise": float("nan")},
            {"weights_anchor": -1e-3},
            {"target_neighbors": 0.0},
            {"init_noise": 0.0},
            {"rate_floor": 0.0},
            {"max_iters": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    def test_numbers_are_kept_as_given(self):
        hyper = HyperParams(l1=1, max_iters=np.int64(7), radius=np.float64(0.5))
        assert type(hyper.l1) is int
        assert type(hyper.max_iters) is np.int64
        assert type(hyper.radius) is np.float64


def test_trained_model_validates_alignment():
    fact = Factorization(loadings=np.ones((1, 3)), dictionary=np.ones((1, 2)))
    table = CovariateTable.continuous(np.zeros((3, 2)))
    model = TrainedModel(
        factorization=fact,
        weights=np.ones(2),
        population_coef=np.zeros(2),
        train_covariates=table,
        task="regression",
        hyper=HyperParams(),
    )
    assert model.n_train == 3
    with pytest.raises(ValueError):
        TrainedModel(
            factorization=fact,
            weights=np.ones(1),
            population_coef=np.zeros(2),
            train_covariates=table,
            task="regression",
            hyper=HyperParams(),
        )


@pytest.mark.parametrize("field", ["weights", "population_coef"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_trained_model_rejects_non_finite_parameters(field, bad):
    values = {"weights": np.ones(2), "population_coef": np.zeros(2)}
    values[field][0] = bad
    with pytest.raises(ValueError, match="finite"):
        TrainedModel(
            factorization=Factorization(
                loadings=np.ones((1, 3)), dictionary=np.ones((1, 2))
            ),
            train_covariates=CovariateTable.continuous(np.zeros((3, 2))),
            task="regression",
            hyper=HyperParams(),
            **values,
        )
