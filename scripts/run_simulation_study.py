#!/usr/bin/env python3
"""Simulation study: personalized fits against the population baseline.

Reproduces the directional comparison on synthetic data across problem
sizes, reporting recovery error of the true per-sample coefficients on the
training split plus R^2 and MSE of test-split predictions.

Example:
    python3 scripts/run_simulation_study.py --seeds 5 --max-iters 400
"""

import argparse
import time

import numpy as np

import persreg as pr
from persreg.model import HyperParams, coefficient_matrix
from persreg.predictor import predict_batch


def score_setting(n, p, k, seeds, max_iters):
    rows = []
    for seed in range(seeds):
        inst = pr.generate(n, p, k, seed=seed)
        train, test = inst.train_dataset(), inst.test_dataset()
        omega_train = inst.coefficients_true[:, inst.train_rows]
        model = pr.fit(train, HyperParams(max_iters=max_iters), seed=seed)
        pop = model.population_coef
        est = coefficient_matrix(model.factorization)
        Xt, yt = test.predictors, test.responses
        u_rows = [test.covariates.row(i) for i in range(len(yt))]
        preds = np.array([pred.y_hat for pred in predict_batch(model, Xt, u_rows)])
        pop_m = pr.evaluate_recovery(
            np.broadcast_to(pop[:, None], omega_train.shape),
            omega_train,
            Xt @ pop,
            yt,
        )
        fit_m = pr.evaluate_recovery(est, omega_train, preds, yt)
        rows.append((pop_m, fit_m))
    return rows


def mean_of(rows, which, field):
    return float(np.mean([getattr(row[which], field) for row in rows]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--max-iters", type=int, default=400)
    parser.add_argument("--k", type=int, default=5, help="covariate count")
    args = parser.parse_args()

    settings = [(500, 2), (500, 10), (500, 25), (100, 5), (500, 5), (2500, 5)]
    print(f"{'n':>6} {'p':>4} {'model':>12} {'recovery':>10} {'R2':>7} {'MSE':>8}")
    for n, p in settings:
        start = time.time()
        rows = score_setting(n, p, args.k, args.seeds, args.max_iters)
        for label, idx in (("population", 0), ("personalized", 1)):
            print(
                f"{n:>6} {p:>4} {label:>12} "
                f"{mean_of(rows, idx, 'recovery'):>10.3f} "
                f"{mean_of(rows, idx, 'r2'):>7.3f} "
                f"{mean_of(rows, idx, 'mse'):>8.4f}"
            )
        print(f"{'':>11} ({time.time() - start:.1f}s over {args.seeds} seeds)")


if __name__ == "__main__":
    main()
