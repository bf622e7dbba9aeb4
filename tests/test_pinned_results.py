"""Seeded fits pinned to the bytes of their results.

Speed work must not change what a seeded fit produces.  Each case hashes
(sha256) the serialized model together with the per-iteration trace
records of one small fit.  The hashes were recorded with numpy 2.4.6 and
Python 3.11 on x86-64 Linux; another numpy build or BLAS may round the
SVD or the matrix products differently, and then every hash moves at once.
A change that moves only some of them changed the arithmetic.
"""

import hashlib
import json

import numpy as np
import pytest

import persreg as pr
from persreg import storage
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
