#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both modes and with no failed operation; that a corrupted
prediction is counted as a failed operation; and that a probe whose target
function is gone reports its metric as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import persreg  # noqa: E402
import persreg.metric  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, seed=3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.5", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["meta"], json.loads(lines[-1])


@contextlib.contextmanager
def patched(obj, attr, value):
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, spec in list(workloads.SPECS.items()):
        workloads.SPECS[name] = workloads.tiny(spec)
    workloads.P99_WINDOW, workloads.PREDICT_BLOCK, workloads.MIN_COUNT = 20, 10, 2
    workloads.QUALITY_INSTANCES = 2
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, meta, result = bench(workload, trace)
            expect(code == 0, f"{workload} trace={trace}: exit code {code}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} trace={trace}: no failed operation "
                   f"({result['failed']}/{result['attempted']}, {meta['failures']})")
            got = result["metrics"]
            for metric in declared[key]:
                entry = got.get(metric["name"])
                expect(entry is not None and entry["unit"] == metric["unit"]
                       and isinstance(entry["value"], float),
                       f"{workload} trace={trace}: {metric['name']} [{metric['unit']}]")

    original = persreg.predict_point
    calls = []

    def corrupt_first(*args, **kwargs):
        pred = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            pred = dataclasses.replace(pred, y_hat=pred.y_hat + 1.0)
        return pred

    with patched(persreg, "predict_point", corrupt_first):
        _, meta, result = bench("fit-small", 0)
    expect(result["failed"] >= 1 and not result["correct"],
           f"corrupted prediction counted as failed ({result['failed']} failed: "
           f"{meta['failures'][:2]})")

    # the optimizer keeps its own reference, so training still runs
    saved = persreg.metric.neighbor_sets
    del persreg.metric.neighbor_sets
    try:
        code, meta, result = bench("fit-small", 1)
    finally:
        persreg.metric.neighbor_sets = saved
    expect(code == 0 and "metric.neighbor_sets_ms" not in result["metrics"]
           and "metric.neighbor_sets_ms" in meta["absent"]
           and "metric.neighbor_sets" in meta["missing_probes"],
           "missing probe target reported as absent")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
