"""Command-line entry point: simulate, train, predict, evaluate.

Each command parses its arguments and wires library calls together; reading
and writing files belong to ``storage`` and every score to ``simulate``.

Exit codes: 0 on success, 2 for input or validation problems, 3 for a
``NumericalError``, an arithmetic failure inside a solver.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import storage
from .model import (
    INTEGER_HYPERS,
    REGRESSION,
    TASKS,
    Dataset,
    HyperParams,
    NumericalError,
    coefficient_matrix,
)
from .optimizer import fit
from .predictor import predict_batch
from .simulate import generate, recovery_error, score_predictions

HYPER_KEYS = tuple(field.name for field in dataclasses.fields(HyperParams))
CONFIG_KEYS = HYPER_KEYS + ("task",)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="persreg",
        description="Per-sample linear and logistic models with a learned "
        "covariate metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset")
    sim.add_argument("--n", type=int, required=True, help="number of samples")
    sim.add_argument("--p", type=int, required=True, help="number of predictors")
    sim.add_argument("--k", type=int, required=True, help="number of covariates")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--noise-std", type=float, default=0.1)
    sim.add_argument(
        "--normalize-rows",
        action="store_true",
        help="rescale predictor rows to unit l1 norm",
    )

    tr = sub.add_parser("train", help="fit a personalized model")
    tr.add_argument("--x", required=True, help="predictors CSV")
    tr.add_argument("--y", required=True, help="responses CSV")
    tr.add_argument("--u", required=True, help="covariates CSV")
    tr.add_argument("--schema", help="covariate schema JSON")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--task", choices=TASKS)
    tr.add_argument("--config", help="JSON config merged under explicit flags")
    tr.add_argument("--trace", action="store_true", help="write trace.jsonl")
    tr.add_argument(
        "--instrument",
        action="store_true",
        help="add center-of-mass bound fields to the trace (implies --trace)",
    )
    for key in HYPER_KEYS:
        flag = "--" + key.replace("_", "-")
        kind = int if key in INTEGER_HYPERS else float
        tr.add_argument(flag, type=kind, default=None)

    pr = sub.add_parser("predict", help="predict with a trained model")
    pr.add_argument("--model", required=True, help="model.json path")
    pr.add_argument("--x", required=True, help="test predictors CSV")
    pr.add_argument("--u", required=True, help="test covariates CSV")
    pr.add_argument("--out", required=True, help="predictions CSV path")
    pr.add_argument("--n-neighbors", type=int, default=None)
    pr.add_argument(
        "--include-theta",
        action="store_true",
        help="append the assembled coefficient columns",
    )

    ev = sub.add_parser("evaluate", help="score predictions against truth")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--responses", required=True, help="true responses CSV")
    ev.add_argument("--out", required=True, help="metrics JSON path")
    ev.add_argument("--task", choices=TASKS, default=REGRESSION)
    ev.add_argument("--omega-true", help="true coefficients CSV (row per sample)")
    ev.add_argument("--model", help="model.json, required with --omega-true")
    return parser


def run_simulate(args) -> int:
    inst = generate(
        args.n,
        args.p,
        args.k,
        seed=args.seed,
        noise_std=args.noise_std,
        normalize_rows=args.normalize_rows,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = inst.dataset
    storage.write_matrix_csv(
        out / "X.csv", ds.predictors, [f"x{j}" for j in range(ds.p)]
    )
    storage.write_matrix_csv(out / "Y.csv", ds.responses, ["y"])
    storage.write_covariates_csv(out / "U.csv", ds.covariates)
    storage.write_matrix_csv(
        out / "omega_true.csv",
        inst.coefficients_true.T,
        [f"theta{j}" for j in range(ds.p)],
    )
    storage.dump_json(
        out / "meta.json",
        {
            "seed": inst.seed,
            "n": ds.n,
            "p": ds.p,
            "k": ds.k,
            "noise_std": args.noise_std,
            "normalized_rows": bool(args.normalize_rows),
            "train_rows": inst.train_rows.tolist(),
            "test_rows": inst.test_rows.tolist(),
        },
    )
    return 0


def _config_from_args(args) -> dict:
    """Train settings: the ``--config`` object (read once) under the
    explicit flags, ``task`` included.  ``storage.hyper_from_dict`` rejects
    unknown keys."""
    config = {}
    if args.config:
        config = storage.load_json(args.config)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    # an explicit fixed radius replaces the automatic target
    if config.get("radius") is not None and "target_neighbors" not in config:
        config["target_neighbors"] = None
    return config


def run_train(args) -> int:
    config = _config_from_args(args)
    task = config.pop("task", None) or REGRESSION
    hyper = storage.hyper_from_dict(config)
    _, X = storage.read_matrix_csv(args.x)
    y = storage.read_column_csv(args.y)
    schema = storage.read_schema(args.schema) if args.schema else None
    table = storage.read_covariates_csv(args.u, schema)
    dataset = Dataset(predictors=X, responses=y, covariates=table, task=task)

    records = []
    tracing = args.trace or args.instrument
    model = fit(
        dataset,
        hyper,
        seed=args.seed,
        instrument=args.instrument,
        trace_fn=records.append if tracing else None,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    storage.save_model(out / "model.json", model)
    storage.write_matrix_csv(
        out / "Z_embedding.csv",
        model.factorization.loadings.T,
        [f"z{j}" for j in range(model.factorization.latent_dim)],
    )
    storage.write_matrix_csv(out / "phi.csv", model.weights, ["phi"])
    if tracing:
        storage.write_trace_jsonl(out / "trace.jsonl", records)
    return 0


def run_predict(args) -> int:
    model = storage.load_model(args.model)
    if args.n_neighbors is not None:
        model = dataclasses.replace(
            model, hyper=model.hyper.with_overrides(n_neighbors=args.n_neighbors)
        )
    _, X = storage.read_matrix_csv(args.x)
    covariates = model.train_covariates
    table = storage.read_covariates_csv(args.u, (covariates.names, covariates.kinds))
    preds = predict_batch(model, X, [table.row(i) for i in range(len(table))])

    header = ["row_id", "y_hat", "neighbor_ids"]
    if args.include_theta:
        header += [f"theta{j}" for j in range(model.n_predictors)]
    rows = []
    for i, pred in enumerate(preds):
        row = [i, float(pred.y_hat), ";".join(str(int(j)) for j in pred.neighbor_ids)]
        if args.include_theta:
            row += pred.coefficients.tolist()
        rows.append(row)
    storage.write_csv(args.out, header, rows)
    return 0


def run_evaluate(args) -> int:
    y_hat = storage.read_column_csv(args.predictions, "y_hat")
    y_true = storage.read_column_csv(args.responses)
    metrics = score_predictions(y_hat, y_true, args.task)
    if args.omega_true:
        if not args.model:
            raise ValueError("--omega-true requires --model for the estimate")
        estimated = coefficient_matrix(storage.load_model(args.model).factorization)
        _, omega_rows = storage.read_matrix_csv(args.omega_true)
        metrics["recovery"] = recovery_error(estimated, omega_rows.T)
    storage.dump_json(args.out, metrics)
    return 0


_HANDLERS = {
    "simulate": run_simulate,
    "train": run_train,
    "predict": run_predict,
    "evaluate": run_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
