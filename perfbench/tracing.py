"""Spans recorded from outside the package, and the per-layer metrics.

The tracer swaps module attributes that lcsbeam looks up at call time
(``lcsbeam.engine._rank``, ``lcsbeam.datasets.build_instance``, ...) for
wrappers that record one span per call: its name, the heuristic being
solved, start and end, the enclosing span, any exception, and a few
counts read from the call's arguments or result.  The package itself is
not changed, and leaving ``Tracer.installed()`` puts every original
attribute back.

A span's self time is its duration minus the time its direct children
cover, so the self times of all spans under one solve add up to that
solve's span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from lcsbeam import datasets, engine

HEURISTICS = ("minlen", "kanalytic", "gcov", "hh")


def _rows(args, result):
    return {"rows": len(args[0])}


# (module, attribute, counts read from (args, result)).  A name the package
# no longer has is skipped, and the metrics built on it read 0.
WRAPPED = (
    (engine, "beam_search", lambda a, r: {"levels": r.levels, "children": r.nodes_expanded}),
    (engine, "get_kernel", None),
    (engine, "select_k", None),
    (engine, "score_minlen_batch", _rows),
    (engine, "score_prob_batch", _rows),
    (engine, "score_gcov_batch", _rows),
    (engine, "_rank", _rows),
    (engine, "_merge_duplicates", lambda a, r: {"rows": len(a[0]), "kept": len(r)}),
    (engine, "_walk_arena", lambda a, r: {"kept": sum(len(p) for p, _ in a[1])}),
    (engine, "verify_solution", None),
    (datasets, "build_instance", None),
)

# Scorer spans each heuristic reaches, as metric stems.
SCORERS = {
    "minlen": ("score_minlen",),
    "kanalytic": ("score_prob", "select_k"),
    "gcov": ("score_gcov",),
    "hh": ("score_prob", "select_k", "score_gcov"),
}

SETUP_UNITS = {
    "datasets.parse_s": "s",
    "instance.build_s": "s",
    "instance.table_mib": "MiB",
    "probability.kernel_build_s": "s",
    "probability.kernel_mib": "MiB",
    "probability.kernel_mib_requested": "MiB",
}
PASS_UNITS = {
    "probability.capacity_errors": "count",
    "engine.probe_s.hh": "s",
    "engine.probe_share.hh": "ratio",
    "trace.overhead_s": "s",
}
PER_HEURISTIC_UNITS = {
    "engine.expand_s": "s",
    "engine.rank_s": "s",
    "engine.rank_rows": "count",
    "engine.dedupe_s": "s",
    "engine.merged": "count",
    "engine.walk_s": "s",
    "engine.verify_s": "s",
    "engine.levels": "count",
    "engine.children": "count",
    "engine.kept": "count",
    "engine.kept_ratio": "ratio",
    "heuristics.rows_scored": "count",
    "length": "symbols",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = dict(SETUP_UNITS)
    for h in HEURISTICS:
        units.update({f"{stem}.{h}": unit for stem, unit in PER_HEURISTIC_UNITS.items()})
        units.update({f"heuristics.{stem}_s.{h}": "s" for stem in SCORERS[h]})
    units.update(PASS_UNITS)
    return units


@dataclass(eq=False)
class Span:
    name: str
    label: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """In-memory span recorder; `label` tags new spans with the heuristic."""

    def __init__(self):
        self.spans: list[Span] = []
        self.label = ""
        self.missing: list[str] = []
        self._stack: list[Span] = []

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.label, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child += span.duration
        if counts is not None:
            span.counts = counts(args, result)
        return result

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, counts in WRAPPED:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(attr, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, name, original, counts):
        def traced(*args, **kwargs):
            return self.call(name, original, *args, counts=counts, **kwargs)

        return traced

    def export(self) -> list[list]:
        """Spans as [id, parent id, name, label, start, end, error] rows."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [i, ids[id(s.parent)] if s.parent is not None else -1, s.name, s.label,
             s.start, s.end, s.error]
            for i, s in enumerate(self.spans)
        ]


def setup_metrics(tracer: Tracer, instance, kernel) -> dict[str, float]:
    """Per-layer numbers of one traced set-up: spans `load_plain`, `kernel`."""
    total = {"parse": 0.0, "build_instance": 0.0, "kernel": 0.0}
    for span in tracer.spans:
        if span.name == "load_plain":
            total["parse"] += span.self_time
        elif span.name in total:
            total[span.name] += span.duration
    tables = sum(
        getattr(instance, t).nbytes for t in ("next_table", "suffix_table") if hasattr(instance, t)
    )
    kernel_bytes = getattr(getattr(kernel, "log_values", None), "nbytes", 0)
    return {
        "datasets.parse_s": total["parse"],
        "instance.build_s": total["build_instance"],
        "instance.table_mib": tables / 2**20,
        "probability.kernel_build_s": total["kernel"],
        "probability.kernel_mib": kernel_bytes / 2**20,
        # what the dense (n_max+1)^2 float64 table asks for, built or refused
        "probability.kernel_mib_requested": (instance.max_len + 1) ** 2 * 8 / 2**20,
    }


def pass_metrics(tracer: Tracer, solves) -> dict[str, float]:
    """Layer numbers of one traced pass, per heuristic where spans are per solve.

    `solves` are the pass's results; each carries the root span the
    benchmark opened around its solve call.  A `_rank` called from inside
    `_merge_duplicates` counts toward dedupe, not rank.  The first two
    `beam_search` calls under an hh solve are its probes.
    """
    units = layer_units()
    out = {name: 0.0 for name in units if name not in SETUP_UNITS}
    probes_seen: dict[int, int] = {}
    for span in tracer.spans:
        h, parent = span.label, span.parent
        parent_name = parent.name if parent is not None else ""
        if span.name == "beam_search":
            out[f"engine.expand_s.{h}"] += span.self_time
            out[f"engine.levels.{h}"] += span.counts.get("levels", 0)
            out[f"engine.children.{h}"] += span.counts.get("children", 0)
            if h == "hh" and parent_name == "solve":
                seen = probes_seen.get(id(parent), 0)
                probes_seen[id(parent)] = seen + 1
                if seen < 2:
                    out["engine.probe_s.hh"] += span.duration
        elif span.name == "_rank" and parent_name == "beam_search":
            out[f"engine.rank_s.{h}"] += span.self_time
            out[f"engine.rank_rows.{h}"] += span.counts["rows"]
        elif span.name == "_merge_duplicates":
            out[f"engine.dedupe_s.{h}"] += span.duration
            out[f"engine.merged.{h}"] += span.counts["rows"] - span.counts["kept"]
        elif span.name == "_walk_arena":
            out[f"engine.walk_s.{h}"] += span.duration
            out[f"engine.kept.{h}"] += span.counts["kept"]
        elif span.name == "verify_solution":
            out[f"engine.verify_s.{h}"] += span.duration
        elif span.name == "get_kernel":
            out["probability.capacity_errors"] += span.error == "CapacityError"
        elif span.name.startswith("score_") or span.name == "select_k":
            stem = span.name.removesuffix("_batch")
            out[f"heuristics.{stem}_s.{h}"] += span.duration
            out[f"heuristics.rows_scored.{h}"] += span.counts.get("rows", 0)
    hh_time = 0.0
    for solve in solves:
        out[f"length.{solve.heuristic}"] += solve.length
        if solve.heuristic == "hh":
            hh_time += solve.span.duration
    for h in HEURISTICS:
        children = out[f"engine.children.{h}"]
        out[f"engine.kept_ratio.{h}"] = out[f"engine.kept.{h}"] / children if children else 0.0
    out["engine.probe_share.hh"] = out["engine.probe_s.hh"] / hh_time if hh_time else 0.0
    return out
