#!/usr/bin/env python3
"""Audit the center-of-mass guarantees on traced training runs.

Runs seeded squared-loss fits with row-normalized predictors and reports the
tightest margins observed for the per-step bound (rate times l1 strength
plus one) and the accumulated geometric drift envelope, both as
``optimizer.com_bounds`` states them.  Instances whose population fit has
an exact-zero coordinate are skipped: there the stationarity condition
holds only as an inclusion and the idealized analysis does not apply.

Example:
    python3 scripts/check_drift_bounds.py --runs 20 --iters 150
"""

import argparse

import numpy as np

import persreg as pr
from persreg.model import HyperParams
from persreg.optimizer import com_bounds
from persreg.population import ElasticNetConfig, fit_population


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--iters", type=int, default=150)
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--match-strength", type=float, default=1.0)
    args = parser.parse_args()

    step_margin = np.inf
    drift_margin = np.inf
    done, seed, skipped = 0, 0, 0
    while done < args.runs:
        p = 2 if seed % 2 == 0 else 3
        inst = pr.generate(args.n, p, 3, seed=seed, normalize_rows=True)
        train = inst.train_dataset()
        pop_cfg = ElasticNetConfig(l1=0.1, l2=0.0, rel_tol=1e-10)
        pop = fit_population(train, pop_cfg)
        seed += 1
        if np.min(np.abs(pop)) <= 0.05:
            skipped += 1
            continue
        gamma = 0.0 if done % 2 == 0 else args.match_strength
        hyper = HyperParams(
            distance_match=gamma,
            rate_floor=1.0,
            max_iters=args.iters,
            rel_tol=1e-14,
        )
        records = []
        pr.fit(
            train,
            hyper,
            seed=seed,
            population_cfg=pop_cfg,
            trace_fn=records.append,
        )
        for r in records:
            step_bound, drift_bound = com_bounds(hyper, r["t"])
            step_margin = min(step_margin, step_bound - r["com_step"])
            drift_margin = min(drift_margin, drift_bound - r["com_drift"])
        done += 1

    print(f"runs audited: {done} (skipped {skipped} without active support)")
    print(f"tightest per-step margin:  {step_margin:.3e}")
    print(f"tightest drift margin:     {drift_margin:.3e}")
    if step_margin < 0 or drift_margin < 0:
        raise SystemExit("bound violated")
    print("all center-of-mass bounds hold")


if __name__ == "__main__":
    main()
