"""Shared data model: the covariate table with its learned-metric distances,
datasets, the factorized per-sample coefficients, and hyperparameters.

The covariate distances read the table in an encoded form, built once per
table on the first distance query: continuous columns as float64, each
categorical column as integer codes, and each query row once into the same
codes (``CovariateTable.encode_row``).  Training reads per-covariate
distances only at the neighbor pairs of each step.  Prediction reads them in
bounded blocks from a few query rows to the samples of one label group,
which ``TrainedModel.label_partition`` keeps contiguous, or to every sample,
so no pairwise matrix over the covariates is ever built.

Per-sample coefficient vectors are never stored as a dense p x n matrix on
their own.  They are always derived from a shared dictionary (q x p) and
per-sample loadings (q x n), which keeps the two representations from
drifting apart.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Annotated, Sequence, get_args, get_origin, get_type_hints

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"
TASKS = (REGRESSION, CLASSIFICATION)

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
COVARIATE_KINDS = (CONTINUOUS, CATEGORICAL)


class NumericalError(RuntimeError):
    """Arithmetic failure inside a fit, such as a non-finite value or a
    stalled line search; carries the offending sample index when known."""

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


def _frozen_float_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only float copy of ``values``, ``ndim``-dimensional and finite."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contain non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Range:
    """The bound of a numeric value: at least ``low``, or above it when
    ``strict``, and below ``high`` when one is given.  A settings field
    declares it in its type hint, as ``Annotated[float, Range(0)]``."""

    low: float
    strict: bool = False
    high: float | None = None

    def holds(self, value) -> bool:
        above = value > self.low if self.strict else value >= self.low
        return above and (self.high is None or value < self.high)

    def __str__(self) -> str:
        """The rule as a refusal states it: ``be >= 0`` or ``lie in (0, 1)``."""
        if self.high is None:
            return f"be {'>' if self.strict else '>='} {self.low}"
        return f"lie in {'(' if self.strict else '['}{self.low}, {self.high})"


def check_number(name: str, value, integer: bool = False, bound=None) -> None:
    """Refuse, naming ``name`` and ``value``, a ``value`` that is a bool,
    that is not an integer when ``integer`` is set and otherwise not a
    finite real, or that lies outside the ``Range`` ``bound``."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    # a comparison, unlike math.isfinite, also takes an int beyond float range
    if not (integer or abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be finite, got {value}")
    if bound is not None and not bound.holds(value):
        raise ValueError(f"{name} must {bound}, got {value}")


def check_seed(seed) -> None:
    """Refuse a seed that is not an integer >= 0, before any draw."""
    check_number("seed", seed, integer=True, bound=Range(0))


@cache
def _numeric_fields(cls) -> tuple:
    """(name, integer, optional, bound) per int or float field of a class."""
    fields = []
    for name, hint in get_type_hints(cls, include_extras=True).items():
        hint, bound = get_args(hint) if get_origin(hint) is Annotated else (hint, None)
        kind, *rest = get_args(hint) or (hint,)
        if kind in (int, float):
            fields.append((name, kind is int, type(None) in rest, bound))
    return tuple(fields)


def check_settings(settings) -> None:
    """Check each int or float field of a settings dataclass, its kind and
    its ``Range`` from the type hint, with ``check_number``; None passes
    where the hint allows it.  Values are never converted, so a saved model
    keeps its bytes."""
    for name, integer, optional, bound in _numeric_fields(type(settings)):
        value = getattr(settings, name)
        if not (optional and value is None):
            check_number(name, value, integer, bound)


def validate_task(task: str) -> str:
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    return task


@dataclass(frozen=True)
class CovariateTable:
    """Column-typed covariate table.

    Continuous columns are float arrays; categorical columns keep their labels
    as strings.  ``kinds`` is the per-column metric schema, and
    ``pair_distances`` and ``row_distances`` evaluate the learned covariate
    metric over the table.
    """

    columns: tuple
    kinds: tuple
    names: tuple

    def __post_init__(self):
        if len(self.columns) == 0:
            raise ValueError("covariate table needs at least one column")
        if not (len(self.columns) == len(self.kinds) == len(self.names)):
            raise ValueError("columns, kinds and names must align")
        n = len(self.columns[0])
        frozen = []
        for idx, (col, kind) in enumerate(zip(self.columns, self.kinds)):
            if kind not in COVARIATE_KINDS:
                raise ValueError(f"column {idx}: unknown kind {kind!r}")
            if kind == CONTINUOUS:
                arr = np.array(col, dtype=float)
                if not np.all(np.isfinite(arr)):
                    bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                    raise ValueError(
                        f"covariate column {idx} has a non-finite value at row {bad}"
                    )
            else:
                arr = np.array([str(v) for v in col], dtype=object)
            if arr.shape != (n,):
                raise ValueError(f"column {idx} has length {arr.shape}, expected {n}")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "columns", tuple(frozen))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))

    @classmethod
    def from_columns(cls, columns: Sequence, kinds: Sequence[str], names=None):
        if names is None:
            names = [f"u{i}" for i in range(len(columns))]
        return cls(columns=tuple(columns), kinds=tuple(kinds), names=tuple(names))

    @classmethod
    def continuous(cls, matrix, names=None) -> "CovariateTable":
        """Build an all-continuous table from an (n, k) array."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-d array of covariates")
        cols = tuple(matrix[:, j] for j in range(matrix.shape[1]))
        return cls.from_columns(cols, (CONTINUOUS,) * matrix.shape[1], names)

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def width(self) -> int:
        return len(self.columns)

    @cached_property
    def encoding(self) -> tuple:
        """Per column, the values the distances read and the code of each
        label: a continuous column as it is, with None; a categorical column
        as integer codes in order of first appearance, with its
        ``label -> code`` dict.  Built on the first distance query and kept,
        so building or loading a table encodes nothing."""
        out = []
        for col, kind in zip(self.columns, self.kinds):
            if kind == CONTINUOUS:
                out.append((col, None))
                continue
            codebook: dict = {}
            codes = np.fromiter(
                (codebook.setdefault(v, len(codebook)) for v in col),
                dtype=np.intp,
                count=len(col),
            )
            out.append((codes, codebook))
        return tuple(out)

    def pair_distances(self, i_idx, j_idx) -> np.ndarray:
        """(k, P) per-covariate distances between rows i_idx[p] and
        j_idx[p]: the absolute difference on a continuous column, the 0/1
        discrete metric (an inequality of codes) on a categorical one."""
        out = np.empty((self.width, len(i_idx)), dtype=float)
        for dist, (vals, codebook) in zip(out, self.encoding):
            if codebook is None:
                np.abs(vals[i_idx] - vals[j_idx], out=dist)
            else:
                np.not_equal(vals[i_idx], vals[j_idx], out=dist)
        return out

    def row_distances(self, weights, queries, rows=None) -> np.ndarray:
        """(m, n) learned distances from the m encoded rows ``queries``
        (``encode_row``) to every row of the table, or (m, len) to the table
        rows in the slice ``rows``: the per-covariate distances times
        ``weights``, added column by column onto +0.0.  A zero-weight column
        is skipped, as its term is +0.0 on finite values, so a huge value
        there cannot make an ``inf * 0`` NaN."""
        if len(weights) != self.width or any(len(q) != self.width for q in queries):
            raise ValueError("weights and rows must cover every covariate")
        n = len(self) if rows is None else len(self.columns[0][rows])
        dists = np.zeros((len(queries), n), dtype=float)
        per = np.empty(dists.shape, dtype=float)
        weights = np.asarray(weights, dtype=float).tolist()
        # one query's value broadcasts as a scalar: building a column array
        # per covariate instead made a predict_point 3-10 % slower (2-core host)
        one = queries[0] if len(queries) == 1 else None
        for c, (w, (vals, codebook)) in enumerate(zip(weights, self.encoding)):
            if w == 0.0:
                continue
            values = (one[c] if one is not None
                      else np.array([q[c] for q in queries])[:, None])
            # a (1, n) view broadcasts against the values faster than (n,)
            vals = vals[None] if rows is None else vals[None, rows]
            if codebook is None:
                np.subtract(vals, values, out=per)
                np.abs(per, out=per)
            else:
                np.not_equal(vals, values, out=per)
            per *= w
            dists += per
        return dists

    def row(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns)

    def take(self, rows) -> "CovariateTable":
        rows = np.asarray(rows, dtype=int)
        return CovariateTable(
            columns=tuple(col[rows] for col in self.columns),
            kinds=self.kinds,
            names=self.names,
        )

    def encode_row(self, row) -> tuple:
        """One query row as the distances read it: each continuous entry a
        finite float, each label (compared as a string) its code in
        ``encoding``, or -1, unequal to every row's, when the table lacks it."""
        row = tuple(row)
        if len(row) != self.width:
            raise ValueError(
                f"covariate row has {len(row)} entries, schema expects {self.width}"
            )
        out = []
        for idx, (value, (_, codebook)) in enumerate(zip(row, self.encoding)):
            if codebook is not None:
                out.append(codebook.get(str(value), -1))
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"covariate {idx} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"covariate {idx} is non-finite")
            out.append(value)
        return tuple(out)


@dataclass(frozen=True)
class Dataset:
    """Training data: predictors (n x p), responses (n,), covariates (n x k)."""

    predictors: np.ndarray
    responses: np.ndarray
    covariates: CovariateTable
    task: str = REGRESSION

    def __post_init__(self):
        X = _frozen_float_array(self.predictors, "predictors", 2)
        y = _frozen_float_array(self.responses, "responses", 1)
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need at least one sample and one predictor")
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"got {X.shape[0]} predictor rows but {y.shape[0]} responses"
            )
        if len(self.covariates) != X.shape[0]:
            raise ValueError("covariate table length must match sample count")
        validate_task(self.task)
        if self.task == CLASSIFICATION and not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("classification responses must be 0/1")
        object.__setattr__(self, "predictors", X)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.predictors.shape[0]

    @property
    def p(self) -> int:
        return self.predictors.shape[1]

    @property
    def k(self) -> int:
        return self.covariates.width

    def take(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return Dataset(
            predictors=self.predictors[rows],
            responses=self.responses[rows],
            covariates=self.covariates.take(rows),
            task=self.task,
        )


@dataclass(frozen=True)
class Factorization:
    """Low-rank representation of all per-sample coefficient vectors.

    ``dictionary`` is q x p and shared across samples; ``loadings`` is q x n
    with one column per sample.  Sample i's coefficients are
    ``dictionary.T @ loadings[:, i]``.
    """

    loadings: np.ndarray
    dictionary: np.ndarray

    def __post_init__(self):
        Z = _frozen_float_array(self.loadings, "loadings", 2)
        Q = _frozen_float_array(self.dictionary, "dictionary", 2)
        if Z.shape[0] != Q.shape[0]:
            raise ValueError(
                f"loadings have latent dim {Z.shape[0]} but dictionary has "
                f"{Q.shape[0]}"
            )
        q = Z.shape[0]
        if not (1 <= q <= min(Q.shape[1], Z.shape[1])):
            raise ValueError(
                f"latent dim {q} must lie in [1, min(p={Q.shape[1]}, n={Z.shape[1]})]"
            )
        object.__setattr__(self, "loadings", Z)
        object.__setattr__(self, "dictionary", Q)

    @property
    def latent_dim(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_samples(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_predictors(self) -> int:
        return self.dictionary.shape[1]


def coefficient_matrix(fact: Factorization) -> np.ndarray:
    """Materialize the p x n matrix of per-sample coefficient vectors."""
    return fact.dictionary.T @ fact.loadings


def center_of_mass(fact: Factorization) -> np.ndarray:
    """Mean coefficient vector over all samples."""
    return fact.dictionary.T @ fact.loadings.mean(axis=1)


@dataclass(frozen=True)
class HyperParams:
    """Training configuration.

    Defaults follow the published simulation setting: l1 strength 0.1,
    distance-matching strength 1e5, weight-anchor strength 1e-2, latent
    dimension 2, initial rate 1e-4 with multiplicative decay 1 - 1e-4, 3
    neighbors at prediction time, and an automatic neighbor-ball radius
    targeting 10 neighbors on average.
    """

    l1: Annotated[float, Range(0)] = 1e-1
    distance_match: Annotated[float, Range(0)] = 1e5
    weights_anchor: Annotated[float, Range(0)] = 1e-2
    latent_dim: Annotated[int, Range(1)] = 2
    radius: Annotated[float | None, Range(0, strict=True)] = None
    target_neighbors: Annotated[float | None, Range(0, strict=True)] = 10.0
    lr_init: Annotated[float, Range(0, strict=True)] = 1e-4
    lr_decay: Annotated[float, Range(0, strict=True, high=1)] = 1.0 - 1e-4
    init_noise: Annotated[float, Range(0, strict=True)] = 1e-4
    rate_floor: Annotated[float, Range(0, strict=True)] = 1e-3
    n_neighbors: Annotated[int, Range(1)] = 3
    max_iters: Annotated[int, Range(0)] = 5000
    rel_tol: Annotated[float, Range(0, strict=True)] = 1e-6

    def __post_init__(self):
        check_settings(self)
        if self.radius is None and self.target_neighbors is None:
            raise ValueError("set either radius or target_neighbors")

    def with_overrides(self, **kwargs) -> "HyperParams":
        return replace(self, **kwargs)


# the fields that count something; every other field is a real number
INTEGER_HYPERS = tuple(name for name, integer, *_ in _numeric_fields(HyperParams) if integer)


@dataclass(frozen=True)
class LabelPartition:
    """Training rows grouped by their codes on the positive-weight
    categorical covariates ``columns``.  ``order`` lists the training rows
    group by group, each group in ascending index order, and ``groups`` maps
    a group's tuple of codes to its slice of ``order``.

    Two rows of different groups differ on one of those covariates, so their
    distance is at least ``min_weight``.  Within a group the keyed covariates
    add exactly zero, so the other positive-weight covariates (all
    continuous) give the same distances there.  ``table`` holds those
    searched columns in the order of ``order``, so a group is one contiguous
    slice of each, and zeros in the model's other columns, whose ``weights``
    are zero: ``table.row_distances(weights, rows, span)`` measures a group.
    """

    columns: tuple
    groups: dict
    order: np.ndarray
    table: CovariateTable
    weights: np.ndarray
    min_weight: float


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed at prediction time.

    Keeps the factorization, the learned metric weights, the population
    anchor coefficients, and the training covariates for neighbor lookup.
    """

    factorization: Factorization
    weights: np.ndarray
    population_coef: np.ndarray
    train_covariates: CovariateTable
    task: str
    hyper: HyperParams

    def __post_init__(self):
        w = _frozen_float_array(self.weights, "weights", 1)
        pop = _frozen_float_array(self.population_coef, "population_coef", 1)
        if w.shape[0] != self.train_covariates.width:
            raise ValueError("weights length must equal covariate width")
        if np.any(w < 0):
            raise ValueError("metric weights must be nonnegative")
        if self.factorization.n_samples != len(self.train_covariates):
            raise ValueError(
                "factorization column count must match training covariates"
            )
        if pop.shape[0] != self.factorization.n_predictors:
            raise ValueError("population coefficients must have length p")
        validate_task(self.task)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "population_coef", pop)

    @cached_property
    def label_partition(self) -> LabelPartition | None:
        """The training rows grouped by their labels on the positive-weight
        categorical covariates; None when there is no such covariate.  Built
        on the first prediction and kept for the model's lifetime."""
        table = self.train_covariates
        keyed = tuple(c for c, w in enumerate(self.weights)
                      if w > 0.0 and table.kinds[c] == CATEGORICAL)
        if not keyed:
            return None
        weights = self.weights.copy()
        weights[list(keyed)] = 0.0
        # one group code per row, lexicographic in the keyed codes; ranking it
        # again after each column keeps it below n, so it cannot overflow
        group = np.zeros(len(table), dtype=np.intp)
        for c in keyed:
            codes, codebook = table.encoding[c]
            group = np.unique(group * len(codebook) + codes, return_inverse=True)[1]
        # a stable sort keeps each group's rows in ascending index order
        order = np.argsort(group, kind="stable")
        stops = np.cumsum(np.bincount(group)).tolist()
        starts = [0] + stops[:-1]
        groups = {
            tuple(int(table.encoding[c][0][order[a]]) for c in keyed): slice(a, b)
            for a, b in zip(starts, stops)
        }
        ordered = [col[order] if w > 0.0 else np.zeros(len(table))
                   for col, w in zip(table.columns, weights)]
        return LabelPartition(
            columns=keyed,
            groups=groups,
            order=order,
            table=CovariateTable.from_columns(ordered, (CONTINUOUS,) * table.width),
            weights=weights,
            min_weight=float(self.weights[list(keyed)].min()),
        )

    @property
    def n_train(self) -> int:
        return self.factorization.n_samples

    @property
    def n_predictors(self) -> int:
        return self.factorization.n_predictors
