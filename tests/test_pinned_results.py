"""Seeded fits and CLI pipelines pinned to the bytes of their results.

Speed work must not change what a seeded fit produces.  Each fit case
hashes (sha256) the serialized model together with the per-iteration trace
records of one small fit; each pipeline case hashes every file that one
small seeded run of the command-line tools leaves behind.  The hashes were recorded with numpy 2.4.6 and
Python 3.11 on x86-64 Linux; another numpy build or BLAS may round the
SVD or the matrix products differently, and then every hash moves at once.
A change that moves only some of them changed the arithmetic.
"""

import hashlib
import json

import numpy as np
import pytest

import persreg as pr
from persreg import cli, storage
from persreg.model import (
    CATEGORICAL,
    CLASSIFICATION,
    CONTINUOUS,
    CovariateTable,
    Dataset,
)


def _continuous_regression():
    return pr.generate(150, 3, 3, seed=5).train_dataset()


def _mixed_classification():
    """Two of four covariates binned into labels, responses split at the
    median."""
    inst = pr.generate(150, 3, 4, seed=9)
    ds = inst.dataset
    cols, kinds = list(ds.covariates.columns), [CONTINUOUS] * 4
    for c in (2, 3):
        cols[c] = np.array([f"q{int(v * 3)}" for v in cols[c]], dtype=object)
        kinds[c] = CATEGORICAL
    table = CovariateTable.from_columns(cols, kinds, ds.covariates.names)
    y = (ds.responses > np.median(ds.responses)).astype(float)
    return Dataset(ds.predictors, y, table, CLASSIFICATION).take(inst.train_rows)


CASES = {
    "continuous-regression": (
        _continuous_regression,
        "ee1c262349ee66208c615005eba2ddf48d0907b071142b332da593f6d8a9e964",
    ),
    "mixed-classification": (
        _mixed_classification,
        "8c5ebe1cf2d4a8052d7161b932c5cc455926e1ec877cdd61d9c76677c21e7b22",
    ),
}


def result_digest(dataset, seed):
    records = []
    model = pr.fit(dataset, pr.HyperParams(max_iters=20), seed=seed,
                   trace_fn=records.append)
    blob = json.dumps(
        {"model": storage.model_to_dict(model), "trace": records}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest(), model, records


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_fit_bytes_are_pinned(name):
    build, want = CASES[name]
    dataset = build()
    assert dataset.n == 120
    digest, model, records = result_digest(dataset, seed=3)
    # the pinned fits do real work: every step saw neighbors and the
    # loadings left their start
    assert len(records) == 20
    assert all(r["mean_neighbors"] > 0 for r in records)
    start = pr.fit(dataset, pr.HyperParams(max_iters=0), seed=3)
    assert not np.array_equal(model.factorization.loadings,
                              start.factorization.loadings)
    assert digest == want


def _run(*args):
    assert cli.main([str(a) for a in args]) == 0


def _regression_pipeline(d):
    """simulate, an instrumented train, predict with the coefficients, and
    evaluate against the true coefficients."""
    _run("simulate", "--n", 40, "--p", 2, "--k", 3, "--seed", 11,
         "--out", d, "--normalize-rows")
    _run("train", "--x", d / "X.csv", "--y", d / "Y.csv", "--u", d / "U.csv",
         "--out", d / "fit", "--seed", 2, "--max-iters", 15, "--instrument")
    _run("predict", "--model", d / "fit" / "model.json", "--x", d / "X.csv",
         "--u", d / "U.csv", "--out", d / "predictions.csv",
         "--include-theta", "--n-neighbors", 5)
    _run("evaluate", "--predictions", d / "predictions.csv",
         "--responses", d / "Y.csv", "--out", d / "metrics.json",
         "--omega-true", d / "omega_true.csv", "--model", d / "fit" / "model.json")


def _classification_pipeline(d):
    """A schema-typed mixed-covariate classification train, then predict on
    test rows that hold a label unseen in training, then evaluate."""
    inst = pr.generate(60, 2, 3, seed=13)
    ds = inst.dataset
    labels = np.array([f"q{int(v * 3)}".replace("q1", "q,1")
                       for v in ds.covariates.columns[2]], dtype=object)
    y = (ds.responses > np.median(ds.responses)).astype(float)
    for part, rows in (("train", inst.train_rows), ("test", inst.test_rows)):
        cols = [ds.covariates.columns[0][rows], ds.covariates.columns[1][rows],
                labels[rows]]
        if part == "test":
            cols[2][0] = "q9"
        table = CovariateTable.from_columns(
            cols, [CONTINUOUS, CONTINUOUS, CATEGORICAL], ["u0", "u1", "u2"])
        storage.write_matrix_csv(d / f"X_{part}.csv", ds.predictors[rows], ["x0", "x1"])
        storage.write_matrix_csv(d / f"y_{part}.csv", y[rows], ["y"])
        storage.write_covariates_csv(d / f"U_{part}.csv", table)
    (d / "schema.json").write_text(json.dumps({"columns": [
        {"name": "u0", "kind": CONTINUOUS},
        {"name": "u1", "kind": CONTINUOUS},
        {"name": "u2", "kind": CATEGORICAL},
    ]}))
    _run("train", "--x", d / "X_train.csv", "--y", d / "y_train.csv",
         "--u", d / "U_train.csv", "--schema", d / "schema.json",
         "--out", d / "fit", "--seed", 4, "--task", "classification",
         "--max-iters", 15, "--trace")
    _run("predict", "--model", d / "fit" / "model.json", "--x", d / "X_test.csv",
         "--u", d / "U_test.csv", "--out", d / "predictions.csv")
    _run("evaluate", "--predictions", d / "predictions.csv",
         "--responses", d / "y_test.csv", "--out", d / "metrics.json",
         "--task", "classification")


def _search_paths(train, test, k):
    """Which neighbor search each test row of a unit-weight table with
    continuous columns 0-1 and categorical columns 2-3 needs, worked out by
    brute force: its labels unseen in training, its label partition smaller
    than k, its partition's k-th distance below the unit categorical weight
    (pruned), or at or above it."""
    keys = list(zip(train[2], train[3]))
    paths = set()
    for i in range(len(test[0])):
        key = (test[2][i], test[3][i])
        part = [j for j, other in enumerate(keys) if other == key]
        if not part:
            paths.add("unseen")
        elif len(part) < k:
            paths.add("small")
        else:
            d = sorted(abs(train[0][j] - test[0][i]) + abs(train[1][j] - test[1][i])
                       for j in part)
            paths.add("pruned" if d[k - 1] < 1.0 else "wide")
    return paths


def _partitioned_pipeline(d):
    """An untrained (unit-weight) model over two continuous and two
    categorical covariates, so the categorical terms count, then predict
    twice: at the default 3 neighbors and at 12, more than the smallest label
    partition holds.  Between them the test rows take every search path."""
    inst = pr.generate(120, 2, 4, seed=17)
    U = inst.dataset.covariates.columns
    cols = [
        4.0 * U[0],
        U[1],
        np.array(["a" if v < 0.5 else "b" for v in U[2]], dtype=object),
        np.array(["c0" if v < 0.15 else "c1" for v in U[3]], dtype=object),
    ]
    names, kinds = ["u0", "u1", "u2", "u3"], [CONTINUOUS, CONTINUOUS] + [CATEGORICAL] * 2
    parts = {}
    for part, rows in (("train", inst.train_rows), ("test", inst.test_rows)):
        parts[part] = [c[rows] for c in cols]
        if part == "test":
            parts[part][3][0] = "c9"
        table = CovariateTable.from_columns(parts[part], kinds, names)
        storage.write_matrix_csv(d / f"X_{part}.csv", inst.dataset.predictors[rows],
                                 ["x0", "x1"])
        storage.write_matrix_csv(d / f"y_{part}.csv", inst.dataset.responses[rows], ["y"])
        storage.write_covariates_csv(d / f"U_{part}.csv", table)
    assert _search_paths(parts["train"], parts["test"], 3) | _search_paths(
        parts["train"], parts["test"], 12) == {"unseen", "small", "pruned", "wide"}
    (d / "schema.json").write_text(json.dumps({"columns": [
        {"name": n, "kind": kind} for n, kind in zip(names, kinds)]}))
    _run("train", "--x", d / "X_train.csv", "--y", d / "y_train.csv",
         "--u", d / "U_train.csv", "--schema", d / "schema.json",
         "--out", d / "fit", "--seed", 6, "--max-iters", 0)
    for k in (3, 12):
        _run("predict", "--model", d / "fit" / "model.json", "--x", d / "X_test.csv",
             "--u", d / "U_test.csv", "--out", d / f"predictions_{k}.csv",
             "--include-theta", "--n-neighbors", k)


PIPELINES = {
    "regression": (
        _regression_pipeline,
        "886a520e7c461e2a1c33204a9fca7bffafff5e6dfa8bba4b5efb59dd008fa173",
    ),
    "mixed-classification": (
        _classification_pipeline,
        "d31cd75ed94ae8884aa213824af95bb48d9fe73e254dedec3c1ab235e7b3e178",
    ),
    "partitioned-prediction": (
        _partitioned_pipeline,
        "bff26079a58e509b9866051460e62a5af3312b5ffcde4a45abf68657745456a5",
    ),
}


def directory_digest(root):
    """sha256 over the relative path and the bytes of every file below root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_seeded_cli_pipeline_bytes_are_pinned(name, tmp_path):
    run, want = PIPELINES[name]
    run(tmp_path)
    assert directory_digest(tmp_path) == want
