"""Span recorder that times docnids' public functions from the outside.

The program's source is not touched: ``Tracer.install`` replaces module
attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back. A name bound by ``from ... import`` lives in the
importing module's namespace, so it is wrapped at each binding, or its
calls would be missed.

Spans close into aggregates keyed by (name, parent name): count, total
time, self time (total minus the time its child spans cover) and rows.
A 110k-row score produces ~770k leaf spans, so only the names that need
percentiles keep every duration.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict


def _rows_arg(i):
    return lambda args, kwargs, result: args[i].shape[0]


def _rows_result(args, kwargs, result):
    return result.rows.shape[0]


def _kfold_name(args, kwargs):
    factory = args[1] if len(args) > 1 else kwargs["detector_factory"]
    return "evaluation.kfold_evaluate." + factory().name


# (module, attribute, span name or name function, rows function)
TARGETS = [
    ("docnids.cli", "cmd_synth", "cli.cmd_synth", None),
    ("docnids.cli", "cmd_train", "cli.cmd_train", None),
    ("docnids.cli", "cmd_score", "cli.cmd_score", None),
    ("docnids.cli", "cmd_evaluate", "cli.cmd_evaluate", None),
    ("docnids.data", "synth_generate", "data.synth_generate", None),
    ("docnids.data", "save_csv", "data.save_csv", None),
    ("docnids.data", "load_csv", "data.load_csv", _rows_result),
    ("docnids.data", "fit_scaler", "data.fit_scaler", None),
    ("docnids.data", "apply_scaler", "data.apply_scaler", None),
    ("docnids.data", "split_benign", "data.split_benign", None),
    ("docnids.pipeline", "apply_scaler", "data.apply_scaler", None),
    ("docnids.evaluation", "apply_scaler", "data.apply_scaler", None),
    ("docnids.evaluation", "fit_scaler", "data.fit_scaler", None),
    ("docnids.evaluation", "split_benign", "data.split_benign", None),
    ("docnids.backend", "forward_pass", "backend.forward_pass", _rows_arg(1)),
    ("docnids.backend", "backward_pass", "backend.backward_pass", None),
    ("docnids.backend", "hbos_scores", "backend.hbos_scores", _rows_arg(3)),
    ("docnids.nn", "sgd_step", "nn.sgd_step", None),
    ("docnids.svdd", "train", "svdd.train", None),
    ("docnids.svdd", "init_center", "svdd.init_center", None),
    ("docnids.svdd", "embed", "svdd.embed", None),
    ("docnids.svdd", "embed_batch", "svdd.embed_batch", None),
    ("docnids.svdd", "distance_score_batch", "svdd.distance_score_batch", None),
    ("docnids.hbos", "fit_histograms", "hbos.fit_histograms", None),
    ("docnids.hbos", "hbos_score", "hbos.hbos_score", None),
    ("docnids.hbos", "hbos_score_batch", "hbos.hbos_score_batch", None),
    ("docnids.pipeline", "fit", "pipeline.fit", None),
    ("docnids.pipeline", "fit_core", "pipeline.fit_core", None),
    ("docnids.pipeline", "save", "pipeline.save", None),
    ("docnids.pipeline", "load", "pipeline.load", None),
    ("docnids.pipeline", "check_schema", "pipeline.check_schema", None),
    ("docnids.pipeline", "score", "pipeline.score", None),
    ("docnids.pipeline", "score_batch", "pipeline.score_batch", None),
    ("docnids.pipeline", "classify", "pipeline.classify", None),
    ("docnids.evaluation", "kfold_evaluate", _kfold_name, None),
    ("docnids.evaluation", "roc_auc", "evaluation.roc_auc", None),
]

# Names whose every duration is kept, for percentiles.
SAMPLED = ("hbos.hbos_score", "pipeline.classify")


class Tracer:
    """Wraps the TARGETS while active and aggregates their spans."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        # (name, parent name) -> [count, total s, self s, rows]
        self.agg: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.samples: dict[str, list[float]] = {n: [] for n in SAMPLED}
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, rows=None):
        stack, agg, samples, clock = self.stack, self.agg, self.samples, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            frame = [span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                entry = agg[(span_name, parent[0] if parent else None)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if span_name in samples:
                    samples[span_name].append(dur)
            if rows is not None:
                entry[3] += rows(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a target that a later version of
        the program renamed or removed is listed in ``missing``."""
        for module_name, attr, name, rows in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, rows))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- queries -------------------------------------------------------

    def _sum(self, name: str, field: int, parent: str | None = "*"):
        return sum(
            v[field] for (n, p), v in self.agg.items() if n == name and (parent == "*" or p == parent)
        )

    def calls(self, name: str, parent: str | None = "*") -> int:
        return self._sum(name, 0, parent)

    def seconds(self, name: str) -> float:
        return self._sum(name, 1)

    def self_seconds(self, name: str) -> float:
        return self._sum(name, 2)

    def rows(self, name: str) -> int:
        return self._sum(name, 3)

    def table(self) -> list[dict]:
        """Every (name, parent) aggregate, largest total time first."""
        by_total = sorted(self.agg.items(), key=lambda kv: -kv[1][1])
        return [
            {"name": n, "parent": p, "calls": c, "s": total, "self_s": self_s, "rows": rows}
            for (n, p), (c, total, self_s, rows) in by_total
        ]

    def percentile_us(self, name: str, q: int) -> float:
        """q-th percentile in microseconds; 0.0 when the name never ran."""
        values = self.samples.get(name) or []
        if len(values) < 2:
            return values[0] * 1e6 if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6
