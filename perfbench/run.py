#!/usr/bin/env python3
"""persreg benchmark entry point.

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 20 --trace 0

Runs one workload in this process against the library under ``src/`` of
the checkout this file sits in.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  The line before it holds the run's metadata (machine,
versions, thread settings, seed, commit, sample counts, quality scores).
Exits with 2, printing no result, when the library is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = ("fit-small", "fit-large", "serve")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "persreg" / "__init__.py").is_file():
        print(f"error: no persreg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread: the program is single-threaded, and a second BLAS
    # thread on a two-core host only adds contention noise
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import persreg

    if Path(persreg.__file__).resolve().parent != ROOT / "src" / "persreg":
        print(f"error: imported persreg from {persreg.__file__}", file=sys.stderr)
        return 2
    from workloads import SPECS, run_workload

    result, meta = run_workload(
        args.workload, SPECS[args.workload], args.seed, args.seconds,
        bool(args.trace), ROOT,
    )
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(ROOT),
        **meta,
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
