"""Shared data model: the covariate table with its learned-metric distances,
datasets, the factorized per-sample coefficients, and hyperparameters.

The covariate distances read the table in an encoded form, built once per
table on the first distance query: continuous columns as float64, each
categorical column as integer codes.  Training reads per-covariate distances
only at the neighbor pairs of each step, and prediction only from one row to
the samples of its label group (``TrainedModel.label_partition``) or to every
sample, so no pairwise matrix over the covariates is ever built.

Per-sample coefficient vectors are never stored as a dense p x n matrix on
their own.  They are always derived from a shared dictionary (q x p) and
per-sample loadings (q x n), which keeps the two representations from
drifting apart.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, get_args, get_type_hints

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"
TASKS = (REGRESSION, CLASSIFICATION)

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
COVARIATE_KINDS = (CONTINUOUS, CATEGORICAL)


def _frozen_float_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only float copy of ``values``, ``ndim``-dimensional and finite."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contain non-finite values")
    arr.setflags(write=False)
    return arr


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

    def row_distances(self, weights, row, rows=None) -> np.ndarray:
        """Learned distance from one covariate row to every row of the table,
        or to the table rows ``rows`` in their order: the per-covariate
        distances times ``weights``, added column by column.  A zero-weight
        column is skipped, as its term is +0.0 on finite values, so a huge
        value there cannot make an ``inf * 0`` NaN.  ``row`` follows the
        schema (``validate_row``); a label the table lacks gets code -1, so
        it differs from every row."""
        if not len(weights) == len(row) == self.width:
            raise ValueError("weights and row must cover every covariate")
        n = len(self) if rows is None else len(rows)
        dists = np.zeros(n, dtype=float)
        per = np.empty(n, dtype=float)
        for w, (vals, codebook), value in zip(weights, self.encoding, row):
            if w == 0.0:
                continue
            if rows is not None:
                vals = vals[rows]
            if codebook is None:
                np.subtract(vals, value, out=per)
                np.abs(per, out=per)
            else:
                np.not_equal(vals, codebook.get(value, -1), out=per)
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

    def validate_row(self, row) -> tuple:
        """Coerce one covariate row to this table's schema."""
        row = tuple(row)
        if len(row) != self.width:
            raise ValueError(
                f"covariate row has {len(row)} entries, schema expects {self.width}"
            )
        out = []
        for idx, (value, kind) in enumerate(zip(row, self.kinds)):
            if kind == CONTINUOUS:
                value = float(value)
                if not math.isfinite(value):
                    raise ValueError(f"covariate {idx} is non-finite")
            else:
                value = str(value)
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


def normalize_dictionary(fact: Factorization) -> Factorization:
    """Rescale every dictionary column to unit Euclidean norm.

    Loadings are left untouched, so the implied coefficients change; this is
    meant for post-hoc geometry checks, not as a training step.
    """
    norms = np.sqrt(np.sum(fact.dictionary**2, axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"dictionary column {int(zero[0])} is the zero vector")
    return Factorization(
        loadings=fact.loadings, dictionary=fact.dictionary / norms[None, :]
    )


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

    l1: float = 1e-1
    distance_match: float = 1e5
    weights_anchor: float = 1e-2
    latent_dim: int = 2
    radius: float | None = None
    target_neighbors: float | None = 10.0
    lr_init: float = 1e-4
    lr_decay: float = 1.0 - 1e-4
    init_noise: float = 1e-4
    rate_floor: float = 1e-3
    n_neighbors: int = 3
    max_iters: int = 5000
    rel_tol: float = 1e-6

    def __post_init__(self):
        # types are checked, never converted, so a saved model keeps its bytes
        for name, hint in _HYPER_HINTS.items():
            value = getattr(self, name)
            if value is None and type(None) in get_args(hint):
                continue
            kind = numbers.Integral if name in INTEGER_HYPERS else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a real number"
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            if value != value:  # NaN, the one value unequal to itself
                raise ValueError(f"{name} must not be NaN")
        if self.l1 < 0:
            raise ValueError("l1 strength must be >= 0")
        if self.distance_match < 0:
            raise ValueError("distance_match strength must be >= 0")
        if self.weights_anchor < 0:
            raise ValueError("weights_anchor strength must be >= 0")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.radius is None and self.target_neighbors is None:
            raise ValueError("set either radius or target_neighbors")
        if self.radius is not None and not 0 < self.radius < float("inf"):
            raise ValueError("radius must be finite and > 0")
        if self.target_neighbors is not None and self.target_neighbors <= 0:
            raise ValueError("target_neighbors must be > 0")
        if self.lr_init <= 0:
            raise ValueError("lr_init must be > 0")
        if not (0.0 < self.lr_decay < 1.0):
            raise ValueError("lr_decay must lie in (0, 1)")
        if self.init_noise <= 0:
            raise ValueError("init_noise must be > 0")
        if self.rate_floor <= 0:
            raise ValueError("rate_floor must be > 0")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")

    def with_overrides(self, **kwargs) -> "HyperParams":
        return replace(self, **kwargs)


_HYPER_HINTS = get_type_hints(HyperParams)
# the fields that count something; every other field is a real number
INTEGER_HYPERS = tuple(name for name, hint in _HYPER_HINTS.items() if hint is int)


@dataclass(frozen=True)
class LabelPartition:
    """Training rows grouped by their codes on the positive-weight
    categorical covariates ``columns``: ``groups`` maps a tuple of codes to
    its rows in ascending index order.

    Two rows of different groups differ on one of those covariates, so
    their distance is at least ``min_weight``.  Within a group the keyed
    covariates add exactly zero, so ``weights`` (the model's, with the keyed
    covariates zeroed) gives the same distances there while reading fewer
    columns.
    """

    columns: tuple
    groups: dict
    min_weight: float
    weights: np.ndarray


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
        keyed = tuple(
            c for c, ((_, codebook), w) in enumerate(zip(table.encoding, self.weights))
            if codebook is not None and w > 0.0
        )
        if not keyed:
            return None
        codes = np.stack([table.encoding[c][0] for c in keyed], axis=1)
        keys, group = np.unique(codes, axis=0, return_inverse=True)
        group = group.ravel()
        # a stable sort keeps each group's rows in ascending index order
        order = np.argsort(group, kind="stable")
        bounds = np.cumsum(np.bincount(group))[:-1]
        weights = self.weights.copy()
        weights[list(keyed)] = 0.0
        weights.setflags(write=False)
        return LabelPartition(
            columns=keyed,
            groups=dict(zip(map(tuple, keys.tolist()), np.split(order, bounds))),
            min_weight=float(self.weights[list(keyed)].min()),
            weights=weights,
        )

    @property
    def n_train(self) -> int:
        return self.factorization.n_samples

    @property
    def n_predictors(self) -> int:
        return self.factorization.n_predictors
