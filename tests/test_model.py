import dataclasses
import math
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from persreg.cli import main
from persreg.model import (
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    Range,
    TrainedModel,
    center_of_mass,
    coefficient_matrix,
)
from persreg.population import ElasticNetConfig

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


def numeric_settings():
    """(class, field name, integer) for every int or float field, optional
    or not, of the settings classes, read from their type hints."""
    out = []
    for cls in (HyperParams, ElasticNetConfig):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            kinds = set(typing.get_args(hints[field.name]) or [hints[field.name]])
            kinds.discard(type(None))
            if kinds in ({int}, {float}):
                out.append((cls, field.name, kinds == {int}))
    return out


# one contract for every numeric setting, so a field added later is checked
# the day it lands
@pytest.mark.parametrize(
    "cls, name, bad",
    [pytest.param(cls, name, bad, id=f"{cls.__name__}.{name}-{bad}")
     for cls, name, integer in numeric_settings()
     for bad in [float("nan"), float("inf"), float("-inf"), True]
     + ([2.5] if integer else [])],
)
def test_every_setting_refuses_a_bad_value_by_name(cls, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{name: bad})


@pytest.mark.parametrize(
    "cls, name, integer",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}")
     for case in numeric_settings()],
)
def test_every_setting_keeps_its_default_and_a_numpy_scalar(cls, name, integer):
    default = cls.__dataclass_fields__[name].default
    assert getattr(cls(**{name: default}), name) is default
    value = (np.int64 if integer else np.float64)(default or 1)
    kept = getattr(cls(**{name: value}), name)
    assert type(kept) is type(value) and kept == value


def declared_bounds():
    """(class, field name, integer, Range) for every settings field whose
    type hint declares a bound, read from the classes themselves."""
    out = []
    for cls in (HyperParams, ElasticNetConfig):
        for name, hint in typing.get_type_hints(cls, include_extras=True).items():
            if typing.get_origin(hint) is typing.Annotated:
                kind, bound = typing.get_args(hint)
                assert isinstance(bound, Range), name
                out.append((cls, name, int in (typing.get_args(kind) or [kind]), bound))
    return out


def refusal(name, bound, value) -> str:
    """The one line that refuses ``value`` for ``name`` outside ``bound``."""
    if bound.high is None:
        rule = f"be {'>' if bound.strict else '>='} {bound.low}"
    else:
        rule = f"lie in {'(' if bound.strict else '['}{bound.low}, {bound.high})"
    return f"{name} must {rule}, got {value}"


def next_toward(value, to, integer: bool):
    """The next integer, or the next float, from ``value`` toward ``to``."""
    if integer:
        return value + (1 if to > value else -1)
    return math.nextafter(value, to)


def edge_cases():
    """(class, name, bound, value at an edge, accepted, value just past it)
    per edge of every declared bound: the low edge, and the high one, which
    is always excluded."""
    out = []
    for cls, name, integer, bound in declared_bounds():
        low = bound.low if integer else float(bound.low)
        past = next_toward(low, -math.inf, integer)
        out.append((cls, name, bound, low, not bound.strict, past))
        if bound.high is not None:
            high = bound.high if integer else float(bound.high)
            past = next_toward(high, math.inf, integer)
            out.append((cls, name, bound, high, False, past))
    return out


def test_every_numeric_setting_declares_a_bound():
    declared = {(cls, name) for cls, name, _, _ in declared_bounds()}
    assert declared == {(cls, name) for cls, name, _ in numeric_settings()}


# the range rule, generated from the declarations, so a field added later
# is checked at its bound the day it lands
@pytest.mark.parametrize(
    "cls, name, bound, edge, accepted, past",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}={case[3]}")
     for case in edge_cases()],
)
def test_every_bound_holds_at_its_edge_and_refuses_past_it(
    cls, name, bound, edge, accepted, past
):
    if accepted:
        assert getattr(cls(**{name: edge}), name) == edge
    else:
        with pytest.raises(ValueError) as refused:
            cls(**{name: edge})
        assert str(refused.value) == refusal(name, bound, edge)
    with pytest.raises(ValueError) as refused:
        cls(**{name: past})
    assert str(refused.value) == refusal(name, bound, past)


@pytest.mark.parametrize(
    "name, bound, past",
    [pytest.param(name, bound, past, id=f"{name}={past}")
     for cls, name, bound, _, _, past in edge_cases() if cls is HyperParams],
)
def test_train_flag_past_its_bound_exits_2_before_reading_data(
    tmp_path, capsys, name, bound, past
):
    # the data files do not exist, so reading any of them would fail otherwise
    out = tmp_path / "fit"
    code = main([
        "train", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
        "--u", str(tmp_path / "U.csv"), "--out", str(out), "--seed", "1",
        f"--{name.replace('_', '-')}={past}",
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {refusal(name, bound, past)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Dataset(predictors=[1.0, 2.0], responses=[0.5],
                         covariates=CovariateTable.continuous([[0.1]])),
         "predictors must be 2-dimensional"),
        (lambda: Dataset(predictors=np.empty((1, 0)), responses=[0.5],
                         covariates=CovariateTable.continuous([[0.1]])),
         "need at least one sample and one predictor"),
        (lambda: Dataset(predictors=[[1.0], [2.0, 3.0]], responses=[0.5, 1.0],
                         covariates=CovariateTable.continuous([[0.1], [0.2]])),
         "predictors must be a rectangular array of numbers"),
        (lambda: Factorization(loadings=[["a"]], dictionary=[[1.0]]),
         "loadings must be a rectangular array of numbers"),
        (lambda: CovariateTable.from_columns([], []),
         "covariate table needs at least one column"),
        (lambda: CovariateTable.from_columns([[0.1, 0.2], [0.3]],
                                             ["continuous", "continuous"]),
         r"column 1 has length \(1,\), expected 2"),
        (lambda: CovariateTable.continuous([0.1, 0.2]),
         "expected a 2-d array of covariates"),
    ],
    ids=["1-d-predictors", "no-predictors", "ragged-predictors",
         "non-numeric-loadings", "no-columns", "short-column", "1-d-covariates"],
)
def test_malformed_data_is_refused_with_its_reason(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
