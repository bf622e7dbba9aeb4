"""CSV and JSON serialization for the command-line workflow.

Numbers are written with shortest round-trip formatting (Python's repr), so
re-serializing parsed artifacts is byte-identical and seeded pipelines can
be compared file for file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import secrets
import stat
from pathlib import Path

import numpy as np

from .model import (
    CATEGORICAL,
    CONTINUOUS,
    CovariateTable,
    Factorization,
    HyperParams,
    TrainedModel,
)


def _fmt(value) -> str:
    return repr(float(value))


def write_matrix_csv(path, matrix, header) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if len(header) != matrix.shape[1]:
        raise ValueError("header width must match matrix")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in matrix:
            writer.writerow([_fmt(v) for v in row])


def read_matrix_csv(path) -> tuple:
    """Returns (header, float matrix with one row per data line).

    Cells must be finite numbers: ``nan`` and ``inf`` parse as floats but
    are rejected like any other malformed cell.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} cells")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric cell") from None
    matrix = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    if not np.all(np.isfinite(matrix)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(matrix), axis=1))[0])
        raise ValueError(f"{path}: non-finite cell in data row {bad + 1}")
    return header, matrix


def write_covariates_csv(path, table: CovariateTable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.names)
        for i in range(len(table)):
            row = []
            for col, kind in zip(table.columns, table.kinds):
                row.append(_fmt(col[i]) if kind == CONTINUOUS else str(col[i]))
            writer.writerow(row)


def read_covariates_csv(path, kinds=None) -> CovariateTable:
    """Read a covariate table; without an explicit schema, columns that parse
    as numbers become continuous and the rest categorical."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        raw = [row for row in reader if row]
    for line_no, row in enumerate(raw, start=2):
        if len(row) != len(names):
            raise ValueError(f"{path}:{line_no}: expected {len(names)} cells")
    columns = list(zip(*raw)) if raw else [() for _ in names]
    if kinds is None:
        kinds = []
        for col in columns:
            try:
                [float(v) for v in col]
                kinds.append(CONTINUOUS)
            except ValueError:
                kinds.append(CATEGORICAL)
    if len(kinds) != len(names):
        raise ValueError("schema does not cover every covariate column")
    parsed = []
    for col, kind in zip(columns, kinds):
        if kind == CONTINUOUS:
            parsed.append(np.array([float(v) for v in col], dtype=float))
        elif kind == CATEGORICAL:
            parsed.append(np.array([str(v) for v in col], dtype=object))
        else:
            raise ValueError(f"unknown covariate kind {kind!r}")
    return CovariateTable.from_columns(parsed, kinds, names)


def read_schema(path) -> list:
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("columns"), list):
        raise ValueError(f"{path}: schema must be an object with a 'columns' list")
    kinds = []
    for entry in data["columns"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"{path}: each schema column needs a 'kind'")
        kinds.append(entry["kind"])
    return kinds


def dump_json(path, obj) -> None:
    """Write strict JSON atomically.

    A NaN or infinity raises before any file is opened.  The text goes to a
    uniquely named temporary file beside the target (beside the file a
    symlink points to), which then replaces it, so a failed write never
    leaves a partial file behind.  An existing target keeps its mode; a new
    one gets the mode ``open`` would give it.
    """
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def hyper_from_dict(data: dict) -> HyperParams:
    allowed = {field.name for field in dataclasses.fields(HyperParams)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
    return HyperParams(**data)


def model_to_dict(model: TrainedModel) -> dict:
    table = model.train_covariates
    rows = []
    for i in range(len(table)):
        row = []
        for col, kind in zip(table.columns, table.kinds):
            row.append(float(col[i]) if kind == CONTINUOUS else str(col[i]))
        rows.append(row)
    return {
        "task": model.task,
        "hyper": dataclasses.asdict(model.hyper),
        "dictionary": model.factorization.dictionary.tolist(),
        "loadings": model.factorization.loadings.tolist(),
        "weights": model.weights.tolist(),
        "population_coef": model.population_coef.tolist(),
        "covariates": {
            "names": list(table.names),
            "kinds": list(table.kinds),
            "rows": rows,
        },
    }


def model_from_dict(data: dict) -> TrainedModel:
    try:
        cov = data["covariates"]
        names, kinds, rows = cov["names"], cov["kinds"], cov["rows"]
        columns = list(zip(*rows)) if rows else [() for _ in names]
        table = CovariateTable.from_columns(
            [
                np.array(col, dtype=float if kind == CONTINUOUS else object)
                for col, kind in zip(columns, kinds)
            ],
            kinds,
            names,
        )
        fact = Factorization(
            loadings=np.asarray(data["loadings"], dtype=float),
            dictionary=np.asarray(data["dictionary"], dtype=float),
        )
        return TrainedModel(
            factorization=fact,
            weights=np.asarray(data["weights"], dtype=float),
            population_coef=np.asarray(data["population_coef"], dtype=float),
            train_covariates=table,
            task=data["task"],
            hyper=hyper_from_dict(data["hyper"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model file: {exc}") from exc


def save_model(path, model: TrainedModel) -> None:
    dump_json(path, model_to_dict(model))


def load_model(path) -> TrainedModel:
    return model_from_dict(load_json(path))


def write_trace_jsonl(path, records) -> None:
    lines = [json.dumps(record, sort_keys=True, allow_nan=False) for record in records]
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
