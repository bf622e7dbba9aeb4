"""Spans recorded from outside the library, for the traced benchmark run.

A probe replaces a public persreg function, in every persreg module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent).  Probes are guarded: when a target no longer exists, or is
never called, its metrics are reported as absent instead of failing the
run.  The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time

# (defining module, function, span name).  The span name is the layer
# metric's prefix.
TARGETS = (
    ("metric", "neighbor_sets", "metric.neighbor_sets"),
    ("metric", "neighbor_pairs", "metric.neighbor_pairs"),
    ("metric", "auto_radius", "metric.auto_radius"),
    ("metric", "precompute_cache", "metric.precompute_cache"),
    ("objective", "composite_objective", "objective.composite"),
    ("optimizer", "train_step", "optimizer.train_step"),
    ("optimizer", "initialize", "optimizer.initialize"),
    ("population", "fit_population", "population.fit"),
    ("storage", "load_model", "storage.load_model"),
    ("storage", "save_model", "storage.save_model"),
    ("storage", "read_matrix_csv", "storage.read_csv"),
    ("storage", "read_covariates_csv", "storage.read_csv"),
)

MODULES = (
    "persreg",
    "persreg.metric",
    "persreg.objective",
    "persreg.optimizer",
    "persreg.population",
    "persreg.predictor",
    "persreg.storage",
    "persreg.cli",
)


def _pair_count(args, kwargs, result):
    return len(result[0])


def _loading_count(args, kwargs, result):
    return args[0].shape[1]


def _cache_bytes(args, kwargs, result):
    table = args[0]
    return table.width * len(table) ** 2 * 8


# Extra facts read off a call, each guarded: a changed signature makes the
# fact absent, not the run fail.
EXTRAS = {
    "metric.neighbor_pairs": _pair_count,
    "metric.auto_radius": _loading_count,
    "metric.precompute_cache": _cache_bytes,
}


class Tracer:
    """In-memory span recorder.  Spans are [name, start, end, parent, extra]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.missing: list = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        count_iterations = name == "population.fit" and _accepts(fn, "on_iterate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = []
            if count_iterations and kwargs.get("on_iterate") is None:
                kwargs["on_iterate"] = counter.append
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_iterations:
                self.spans[idx][4] = len(counter)
            elif extra is not None:
                try:
                    self.spans[idx][4] = extra(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        modules = [importlib.import_module(m) for m in MODULES]
        patched = []
        missing = []
        for owner, attr, name in TARGETS:
            original = getattr(importlib.import_module("persreg." + owner), attr, None)
            if not callable(original):
                missing.append(f"{owner}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        self.missing = missing
        try:
            yield
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)


def _accepts(fn, param) -> bool:
    try:
        return param in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, rank_us, predict_us, model_json_bytes) -> dict:
    """Per-layer figures from the recorded spans (None where absent).

    Training layers are medians over traced iterations of the self time
    of that layer during one ``train_step``: time in the function minus
    time in the probed functions it calls, so that a nested call (the
    ``neighbor_pairs`` calls inside ``composite_objective``) counts in one
    layer only and the layers plus ``optimizer.step_self_ms`` add up to
    the step.  Other layers are medians per call, except
    ``storage.read_csv_ms``, which is per CLI pipeline.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    children: dict = {}
    for idx, s in enumerate(spans):
        children.setdefault(s[3], []).append(idx)
    own = [dur[i] - sum(dur[c] for c in children.get(i, ())) for i in range(len(spans))]

    def descendants(idx):
        todo = list(children.get(idx, ()))
        while todo:
            c = todo.pop()
            yield c
            todo.extend(children.get(c, ()))

    def per_call(name):
        return [dur[i] for i, s in enumerate(spans) if s[0] == name]

    def extras(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    steps = [i for i, s in enumerate(spans) if s[0] == "optimizer.train_step"]
    step_parts: dict = {}
    step_self = []
    step_pairs = []
    for st in steps:
        totals: dict = {}
        for d in descendants(st):
            totals[spans[d][0]] = totals.get(spans[d][0], 0.0) + own[d]
            if spans[d][0] == "metric.neighbor_pairs" and spans[d][4] is not None:
                totals["pairs"] = max(totals.get("pairs", 0), spans[d][4])
        for key, value in totals.items():
            step_parts.setdefault(key, []).append(value)
        step_self.append(own[st])
        if "pairs" in totals:
            step_pairs.append(totals["pairs"])

    fits = [i for i, s in enumerate(spans) if s[0] == "bench.fit"]
    iterations = [
        sum(1 for d in descendants(f) if spans[d][0] == "optimizer.train_step")
        for f in fits
    ]
    pipelines = [i for i, s in enumerate(spans) if s[0] == "bench.cli"]
    csv_reads = [
        sum(dur[d] for d in descendants(p) if spans[d][0] == "storage.read_csv")
        for p in pipelines
    ]
    radius_n = extras("metric.auto_radius")
    cache_bytes = extras("metric.precompute_cache")
    pop_iters = extras("population.fit")

    def ms(values):
        m = _median(values)
        return None if m is None else m * 1e3

    rank = _median(rank_us)
    predict = _median(predict_us)
    out = {
        "metric.neighbor_sets_ms": ms(step_parts.get("metric.neighbor_sets", [])),
        "metric.neighbor_pairs_ms": ms(step_parts.get("metric.neighbor_pairs", [])),
        "metric.auto_radius_ms": ms(step_parts.get("metric.auto_radius", [])),
        "metric.radius_matrix_mb": (
            max(radius_n) ** 2 * 8 / 1e6 if radius_n else None
        ),
        "metric.precompute_cache_ms": ms(per_call("metric.precompute_cache")),
        "metric.cache_mb": max(cache_bytes) / 1e6 if cache_bytes else None,
        "metric.pairs_per_iter": _median(step_pairs),
        "objective.composite_ms": ms(step_parts.get("objective.composite", [])),
        "optimizer.train_step_ms": ms([dur[i] for i in steps]),
        "optimizer.step_self_ms": ms(step_self),
        "optimizer.iterations": _median(iterations) if steps else None,
        "optimizer.initialize_ms": ms(per_call("optimizer.initialize")),
        "population.fit_ms": ms(per_call("population.fit")),
        "population.iterations": _median(pop_iters),
        "predictor.rank_neighbors_us": rank,
        "predictor.assemble_us": (
            predict - rank if rank is not None and predict is not None else None
        ),
        "storage.load_model_ms": ms(per_call("storage.load_model")),
        "storage.save_model_ms": ms(per_call("storage.save_model")),
        "storage.model_json_mb": model_json_bytes / 1e6 if model_json_bytes else None,
        "storage.read_csv_ms": ms(csv_reads) if any(csv_reads) else None,
        "cli.predict_s": _median(per_call("cli.predict")),
        "cli.evaluate_s": _median(per_call("cli.evaluate")),
    }
    return out
