"""Seeded fits and CLI pipelines pinned to the bytes of their results.

Speed work must not change what a seeded fit produces.  Each fit case
hashes (sha256) the serialized model together with the per-iteration trace
records of one small fit; each pipeline case hashes every file that one
small seeded run of the command-line tools leaves behind; the envelope
case hashes ``optimizer.com_bounds`` over the regression pipeline's steps;
the pair case hashes the neighbor pairs one training step finds for seeded
loadings; the batch case hashes every field of ``predict_batch`` over
seeded random models.  The hashes were recorded with numpy 2.4.6 and
Python 3.11 on x86-64 Linux, under the CPU kernels ``RECORDED_KERNELS``
names; another numpy build, BLAS kernel or SIMD dispatch may round the
SVD, the matrix products or ``exp`` differently, and then many hashes move
at once.  So every hash failure names the recorded kernels and this host's.
On the recorded kernels, a change that moves a hash changed the arithmetic.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

import persreg as pr
from persreg import cli, storage
from persreg.model import (
    CATEGORICAL,
    CLASSIFICATION,
    CONTINUOUS,
    TASKS,
    CovariateTable,
    Dataset,
    Factorization,
    HyperParams,
    TrainedModel,
)
from persreg.optimizer import com_bounds, resolve_pairs
from persreg.predictor import predict_batch

# the OpenBLAS core and numpy's active SIMD dispatch targets the hashes were
# recorded under
RECORDED_KERNELS = ("SkylakeX", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


def host_kernels() -> tuple:
    """This host's OpenBLAS core, read from numpy's bundled OpenBLAS, and
    numpy's active SIMD dispatch targets; "unknown" where either cannot be
    read."""
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        break
    try:
        from numpy._core import _multiarray_umath as umath
        active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        dispatch = " ".join(active) or "none"
    except (ImportError, AttributeError):
        dispatch = "unknown"
    return core, dispatch


def kernels_note() -> str:
    """The failure message of a hash check: the kernels the hashes were
    recorded under, then this host's."""
    recorded = "OpenBLAS core {}, numpy dispatch {}".format(*RECORDED_KERNELS)
    host = "OpenBLAS core {}, numpy dispatch {}".format(*host_kernels())
    return (f"hash recorded under {recorded}; this host runs {host}. "
            "Other kernels round differently, so check these first.")


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
    assert digest == want, kernels_note()


def _run(*args):
    assert cli.main([str(a) for a in args]) == 0


def _regression_pipeline(d):
    """simulate, a traced train, predict with the coefficients, and
    evaluate against the true coefficients."""
    _run("simulate", "--n", 40, "--p", 2, "--k", 3, "--seed", 11,
         "--out", d, "--normalize-rows")
    _run("train", "--x", d / "X.csv", "--y", d / "Y.csv", "--u", d / "U.csv",
         "--out", d / "fit", "--seed", 2, "--max-iters", 15, "--trace")
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
        "37b4fd1a4e8763d501e58d64a3c3a4d07dae362dd2b1405b24e96884681daf62",
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
    assert directory_digest(tmp_path) == want, kernels_note()


def pairs_digest():
    """sha256 over the radius and the pairs, with their dtypes, that
    ``resolve_pairs`` gives for seeded loadings over the continuous and the
    mixed fit tables: at the automatic radius, at a fixed radius, and
    without distance matching."""
    h = hashlib.sha256()
    settings = (
        pr.HyperParams(),
        pr.HyperParams(radius=0.05, target_neighbors=None),
        pr.HyperParams(distance_match=0.0),
    )
    for seed, build in enumerate((_continuous_regression, _mixed_classification)):
        table = build().covariates
        loadings = np.random.default_rng(seed).standard_normal((2, len(table)))
        for hyper in settings:
            radius, pairs = resolve_pairs(loadings, table, hyper)
            h.update(repr(radius).encode() + b"\0")
            for arr in (pairs.i_idx, pairs.j_idx, pairs.distances):
                h.update(f"{arr.dtype.str}{arr.shape}".encode() + b"\0")
                h.update(np.ascontiguousarray(arr).tobytes() + b"\0")
    return h.hexdigest()


def test_neighbor_pairs_are_pinned():
    assert pairs_digest() == (
        "a12fe66f47e7e95736eacd80b2c9329d3de55358eb4104303a3a178964abfaed"
    ), kernels_note()


def test_center_of_mass_envelopes_are_pinned():
    """The envelopes of the regression pipeline's 15 steps, hashed as
    ``repr`` of each (step, drift) pair; the pipeline's trace does not
    carry them."""
    h = hashlib.sha256()
    for t in range(15):
        h.update(repr(com_bounds(HyperParams(max_iters=15), t)).encode() + b"\0")
    assert h.hexdigest() == (
        "67b2720aa99d46ba6c6ba7fad4bb138e872394200e05652b61e8a27e70ea61df"
    )


def random_prediction_case(rng, n=None, m=None, n_labels=3):
    """A seeded model and query batch over up to two continuous and two
    categorical covariates.  Values on a quarter grid and weights drawn from
    {0, 0.25, 0.5, 1} make distance ties, zero-weight columns, label groups
    below k and k-th distances equal to a label weight common; about one
    query in five is a training row, and query labels include one that no
    training row carries."""
    n = int(rng.integers(1, 30)) if n is None else n
    m = int(rng.integers(0, 61)) if m is None else m
    n_cont = int(rng.integers(0, 3))
    n_cat = int(rng.integers(0 if n_cont else 1, 3))
    kinds = [CONTINUOUS] * n_cont + [CATEGORICAL] * n_cat
    labels = [f"l{i}" for i in range(n_labels)]
    cols = [rng.integers(0, 5, size=n) / 4.0 for _ in range(n_cont)]
    cols += [np.array(rng.choice(labels, size=n), dtype=object) for _ in range(n_cat)]
    table = CovariateTable.from_columns(cols, kinds)
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, min(p, n) + 1))
    model = TrainedModel(
        factorization=Factorization(loadings=rng.standard_normal((q, n)),
                                    dictionary=rng.standard_normal((q, p))),
        weights=rng.choice([0.0, 0.25, 0.5, 1.0], size=len(kinds)),
        population_coef=rng.standard_normal(p),
        train_covariates=table,
        task=str(rng.choice(TASKS)),
        hyper=HyperParams(n_neighbors=int(rng.integers(1, 6))),
    )
    rows = []
    for _ in range(m):
        if rng.random() < 0.2:
            rows.append(table.row(int(rng.integers(n))))
            continue
        row = [float(rng.integers(-1, 6)) / 4.0 for _ in range(n_cont)]
        row += [str(rng.choice(labels + ["unseen"])) for _ in range(n_cat)]
        rows.append(tuple(row))
    return model, 4.0 * rng.standard_normal((m, p)), rows


def batch_cases():
    """150 small random cases, then two large batches: 800 queries against
    500 training rows, which the search splits into several distance blocks
    of label groups and of full passes, and 700 queries against 300."""
    rng = np.random.default_rng(20)
    for _ in range(150):
        yield random_prediction_case(rng)
    yield random_prediction_case(rng, n=500, m=800, n_labels=2)
    yield random_prediction_case(rng, n=300, m=700)


def batch_digest():
    """sha256 over the neighbor ids, distances, coefficients and output of
    every prediction of ``batch_cases``, with the arrays' dtypes."""
    h = hashlib.sha256()
    for model, X, rows in batch_cases():
        for pred in predict_batch(model, X, rows):
            for arr in (pred.neighbor_ids, pred.neighbor_dists, pred.coefficients):
                h.update(f"{arr.dtype.str}{arr.shape}".encode() + b"\0")
                h.update(np.ascontiguousarray(arr).tobytes() + b"\0")
            h.update(repr(pred.y_hat).encode() + b"\0")
    return h.hexdigest()


def test_batch_predictions_are_pinned():
    assert batch_digest() == (
        "436dfd6b46e10e9f8f00283f061f170819af11f8f54a8310618ac2e3bca5f49b"
    ), kernels_note()
