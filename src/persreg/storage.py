"""CSV and JSON serialization for the command-line workflow.

Numbers are written with shortest round-trip formatting (Python's repr), so
re-serializing parsed artifacts is byte-identical and seeded pipelines can
be compared file for file.  Every file is UTF-8, whatever the locale; each
is written through one atomic writer; every CSV is read through one
reader, and every number in it is parsed by one rule.
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
    """Returns (header, columns, lines): the non-blank data rows, each
    checked to be as wide as the header, as one tuple of cells per column,
    and the line of the file each row ends on.  A UTF-8 byte-order mark
    before the header is skipped; a file that does not decode raises a
    ValueError that starts with the path."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
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
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return header, _columns(rows, len(header)), lines


def write_matrix_csv(path, matrix, header) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if len(header) != matrix.shape[1]:
        raise ValueError("header width must match matrix")
    write_csv(path, header, matrix.tolist())


def _number(cell) -> float | None:
    """``float(cell)``, or None when the cell is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def _floats(path, name, cells, lines) -> np.ndarray:
    """The cells of column ``name`` as floats.  Each must be a finite
    number; the first that is not (``nan`` and ``inf`` parse, but are
    refused too) raises with its ``path:line`` and the column's name."""
    numbers = [_number(cell) for cell in cells]
    values = np.array(numbers, dtype=float)  # None becomes NaN
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        what = "is not a number" if numbers[i] is None else "is not finite"
        raise ValueError(f"{path}:{lines[i]}: column {name!r} {what}")
    return values


def read_matrix_csv(path) -> tuple:
    """Returns (header, C-ordered float matrix with one row per data line)."""
    header, columns, lines = read_csv(path)
    matrix = np.empty((len(lines), len(header)))
    for j, (name, cells) in enumerate(zip(header, columns)):
        matrix[:, j] = _floats(path, name, cells, lines)
    return header, matrix


def read_column_csv(path, name=None) -> np.ndarray:
    """The float column ``name``, or the file's only column when no name is
    given; its cells are checked as ``read_matrix_csv`` checks them."""
    header, columns, lines = read_csv(path)
    if name is None and len(header) != 1:
        raise ValueError(f"{path}: expected one column, found {len(header)}")
    if name is not None and name not in header:
        raise ValueError(f"{path}: missing {name} column")
    col = 0 if name is None else header.index(name)
    return _floats(path, header[col], columns[col], lines)


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
    names, columns, lines = read_csv(path)
    if schema is None:
        kinds = [None] * len(names)
    else:
        expected, kinds = schema
        if list(expected) != names:
            raise ValueError(
                f"{path}: header {names} does not match the covariates {list(expected)}"
            )
    parsed, found = [], []
    for name, cells, kind in zip(names, columns, kinds):
        if kind is None:
            numeric = all(_number(cell) is not None for cell in cells)
            kind = CONTINUOUS if numeric else CATEGORICAL
        parsed.append(_floats(path, name, cells, lines) if kind == CONTINUOUS else cells)
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


def _json_text(path, obj, indent=None) -> str:
    """``obj`` as strict JSON; a NaN or infinity raises, naming ``path``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path}: refusing to write a non-finite value") from None


def dump_json(path, obj) -> None:
    """Write strict JSON atomically; a NaN or infinity raises before any
    file is opened."""
    text = _json_text(path, obj, indent=2)
    _write_atomic(path, text + "\n")


def load_json(path):
    """The JSON value in ``path``, after any UTF-8 byte-order mark; a file
    that does not decode raises a ValueError that starts with the path."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
    """The model saved at ``path``; a rejected file raises a ValueError
    that starts with the path."""
    data = load_json(path)
    try:
        return model_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_trace_jsonl(path, records) -> None:
    _write_atomic(path, "".join(_json_text(path, record) + "\n" for record in records))
