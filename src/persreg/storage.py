"""CSV and JSON serialization for the command-line workflow.

Numbers are written with shortest round-trip formatting (Python's repr), so
re-serializing parsed artifacts is byte-identical and seeded pipelines can
be compared file for file.  Every file is UTF-8, whatever the locale; each
is written through one atomic writer and every CSV is read through one row
reader.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import secrets
import stat
from pathlib import Path

import numpy as np

from .model import (
    CATEGORICAL,
    CONTINUOUS,
    COVARIATE_KINDS,
    CovariateTable,
    Factorization,
    HyperParams,
    TrainedModel,
)


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, with ``\\n`` line ends.

    The text goes to a uniquely named temporary file beside the target
    (beside the file a symlink points to), which then replaces it, so a
    failed write never leaves a partial file behind.  An existing target
    keeps its mode; a new one gets the mode ``open`` would give it.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header and a list of rows of cells; a float cell is written
    as its repr, the shortest text that parses back to the same number.  A
    NaN or infinity raises before any file is opened."""
    if not all(math.isfinite(c) for row in rows for c in row if isinstance(c, float)):
        raise ValueError(f"{path}: refusing to write a non-finite value")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def read_csv(path) -> tuple:
    """Returns (header, rows, lines): every non-blank data row, each checked
    to be as wide as the header, and the line of the file it ends on."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} cells"
                )
            rows.append(row)
            lines.append(reader.line_num)
    return header, rows, lines


def write_matrix_csv(path, matrix, header) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if len(header) != matrix.shape[1]:
        raise ValueError("header width must match matrix")
    write_csv(path, header, matrix.tolist())


def _float_cells(path, rows, lines, width) -> np.ndarray:
    """Rows of cells as a (len(rows), width) float matrix.  Cells must be
    finite numbers: ``nan`` and ``inf`` parse as floats but are rejected,
    like any other malformed cell, with the ``path:line`` of their row."""
    values = []
    for row, line in zip(rows, lines):
        try:
            values.append([float(v) for v in row])
        except ValueError:
            raise ValueError(f"{path}:{line}: non-numeric cell") from None
    matrix = np.asarray(values, dtype=float) if values else np.empty((0, width))
    if not np.all(np.isfinite(matrix)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(matrix), axis=1))[0])
        raise ValueError(f"{path}:{lines[bad]}: non-finite cell")
    return matrix


def read_matrix_csv(path) -> tuple:
    """Returns (header, float matrix with one row per data line)."""
    header, rows, lines = read_csv(path)
    return header, _float_cells(path, rows, lines, len(header))


def read_column_csv(path, name=None) -> np.ndarray:
    """The float column ``name``, or the file's only column when no name is
    given; its cells are checked as ``read_matrix_csv`` checks them."""
    header, rows, lines = read_csv(path)
    if name is None and len(header) != 1:
        raise ValueError(f"{path}: expected one column, found {len(header)}")
    if name is not None and name not in header:
        raise ValueError(f"{path}: missing {name} column")
    col = 0 if name is None else header.index(name)
    return _float_cells(path, [[row[col]] for row in rows], lines, 1)[:, 0]


def _covariate_rows(table: CovariateTable) -> list:
    """The table row by row: floats for continuous cells, labels for
    categorical ones.  ``model.json`` and the covariates CSV share it."""
    cells = [
        col.tolist() if kind == CONTINUOUS else list(col)
        for col, kind in zip(table.columns, table.kinds)
    ]
    return [list(row) for row in zip(*cells)]


def write_covariates_csv(path, table: CovariateTable) -> None:
    write_csv(path, table.names, _covariate_rows(table))


def _columns(rows, width) -> list:
    """Rows of cells as ``width`` columns, also when there are no rows."""
    return list(zip(*rows)) if rows else [() for _ in range(width)]


def read_covariates_csv(path, schema=None) -> CovariateTable:
    """Read a covariate table.  A schema ``(names, kinds)`` must name the
    header's columns in order; without one, columns that parse as numbers
    become continuous and the rest categorical."""
    names, rows, lines = read_csv(path)
    if schema is None:
        kinds = [None] * len(names)
    else:
        expected, kinds = schema
        if list(expected) != names:
            raise ValueError(
                f"{path}: header {names} does not match the covariates {list(expected)}"
            )
    parsed, found = [], []
    for name, col, kind in zip(names, _columns(rows, len(names)), kinds):
        if kind is None or kind == CONTINUOUS:
            try:
                col, kind = [float(v) for v in col], CONTINUOUS
            except ValueError:
                if kind == CONTINUOUS:
                    for line, cell in zip(lines, col):
                        try:
                            float(cell)
                        except ValueError:
                            msg = f"{path}:{line}: covariate {name!r} is not numeric"
                            raise ValueError(msg) from None
                kind = CATEGORICAL
            else:
                bad = [line for line, v in zip(lines, col) if not math.isfinite(v)]
                if bad:
                    raise ValueError(f"{path}:{bad[0]}: covariate {name!r} is non-finite")
        parsed.append(col)
        found.append(kind)
    return CovariateTable.from_columns(parsed, found, names)


def read_schema(path) -> tuple:
    """Returns (names, kinds) of the schema's covariate columns, in order."""
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("columns"), list):
        raise ValueError(f"{path}: schema must be an object with a 'columns' list")
    entries = data["columns"]
    if not all(isinstance(e, dict) and {"name", "kind"} <= e.keys() for e in entries):
        raise ValueError(f"{path}: each schema column needs a 'name' and a 'kind'")
    names, kinds = [e["name"] for e in entries], [e["kind"] for e in entries]
    for name, kind in zip(names, kinds):
        if kind not in COVARIATE_KINDS:
            raise ValueError(f"{path}: column {name!r} has unknown kind {kind!r}")
    return names, kinds


def dump_json(path, obj) -> None:
    """Write strict JSON atomically; a NaN or infinity raises before any
    file is opened."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    _write_atomic(path, text + "\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def hyper_from_dict(data: dict) -> HyperParams:
    allowed = {field.name for field in dataclasses.fields(HyperParams)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
    return HyperParams(**data)


def model_to_dict(model: TrainedModel) -> dict:
    table = model.train_covariates
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
            "rows": _covariate_rows(table),
        },
    }


def model_from_dict(data: dict) -> TrainedModel:
    try:
        cov = data["covariates"]
        names, kinds, rows = cov["names"], cov["kinds"], cov["rows"]
        if set(map(len, rows)) - {len(names)}:
            i = next(i for i, row in enumerate(rows) if len(row) != len(names))
            raise ValueError(
                f"malformed model file: covariate row {i} has {len(rows[i])} "
                f"cells, expected {len(names)}"
            )
        table = CovariateTable.from_columns(_columns(rows, len(names)), kinds, names)
        fact = Factorization(loadings=data["loadings"], dictionary=data["dictionary"])
        return TrainedModel(
            factorization=fact,
            weights=data["weights"],
            population_coef=data["population_coef"],
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
    _write_atomic(path, "".join(line + "\n" for line in lines))
