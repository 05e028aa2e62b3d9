"""Spans and counters recorded from outside provlens.

The tracer replaces public provlens functions and methods, on the names
where their callers look them up, with wrappers that record a span
(name, start, end, parent, key, note) per call.  The hot inner model
methods get a call counter instead of a span: they run hundreds of
thousands of times per run, and a span each would distort the run.
Every counter is keyed by the innermost open span, so counts can be
attributed to the layer that made them (for example masked forwards
made inside a VA-TG explanation).

Spans and counters stay in memory; ``write`` dumps them when the run
ends.  ``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter

import provlens.data
import provlens.detect
import provlens.gnnexplainer
import provlens.graphmask
import provlens.harness
import provlens.model
import provlens.pipeline
import provlens.report
import provlens.vatg
from provlens.graph import TemporalGraph
from provlens.model import TgnModel


def _event_key(args):
    return args[1].target_index


def _alert_key(args):
    return args[2].t_start


def _edge_key(args):
    edge = args[4]
    return f"{edge.src}-{edge.relation.value}-{edge.dst}"


def _improved(result):
    if result is None:
        return None
    return bool(result.objective < result.initial_objective)


def _pipeline_note(result):
    return {
        "windows": len(result.windows),
        "skipped": sum(len(w.skipped) for w in result.windows),
        "degraded": bool(result.warnings),
    }


# (owner, attribute, span name, key function, note function); one row per
# place a caller looks the function up, so the same span name repeats
SPANS = [
    (provlens.data, "generate_scenario", "data.generate", None, None),
    (provlens.data, "save_dataset", "data.save_dataset", None, None),
    (provlens.data, "load_dataset", "data.load_dataset", None, None),
    (provlens.model, "train", "model.train", None, None),
    (provlens.model, "score_stream", "model.score_stream", None, None),
    (provlens.harness, "score_stream", "model.score_stream", None, None),
    (provlens.pipeline, "score_stream", "model.score_stream", None, None),
    (provlens.model, "extract_context", "graph.extract_context", None, None),
    (TgnModel, "save", "model.save", None, None),
    (TgnModel, "load", "model.load", None, None),
    (provlens.detect, "score_all_windows", "detect.score_all_windows", None, None),
    (provlens.harness, "score_all_windows", "detect.score_all_windows", None, None),
    (provlens.detect, "link_queues", "detect.link_queues", None, None),
    (provlens.harness, "link_queues", "detect.link_queues", None, None),
    (provlens.detect, "reconstruct_subgraph", "detect.reconstruct_subgraph", None, None),
    (provlens.graphmask, "graphmask_explain_event", "graphmask.explain_event",
     _event_key, _improved),
    (provlens.pipeline, "graphmask_explain_event", "graphmask.explain_event",
     _event_key, _improved),
    (provlens.pipeline, "graphmask_aggregate", "graphmask.aggregate", None, None),
    (provlens.gnnexplainer, "gnn_explain_event", "gnnexplainer.explain_event",
     _event_key, None),
    (provlens.pipeline, "gnn_explain_event", "gnnexplainer.explain_event",
     _event_key, None),
    (provlens.gnnexplainer, "fidelity", "gnnexplainer.fidelity", _event_key, None),
    (provlens.vatg, "vatg_explain_event", "vatg.explain_event", _event_key, None),
    (provlens.pipeline, "vatg_explain_event", "vatg.explain_event", _event_key, None),
    (provlens.pipeline, "vatg_aggregate_node", "vatg.aggregate_node", None, None),
    (provlens.pipeline, "run_pipeline", "pipeline.run_pipeline",
     _alert_key, _pipeline_note),
    (provlens.report, "emit_json", "report.emit_json", None, None),
    (provlens.report, "emit_markdown", "report.emit_markdown", None, None),
    (provlens.report, "emit_graph_description", "report.emit_graph_description",
     None, None),
    (provlens.harness, "ablate_edge", "harness.ablate_edge", _edge_key, None),
    (provlens.harness, "remove_edge", "harness.remove_edge", None, None),
]

COUNTED = [
    (TgnModel, "replay_update", "model.replay_update"),
    (TgnModel, "score_event", "model.score_event"),
    (TgnModel, "masked_forward", "model.masked_forward"),
    (TgnModel, "mask_gradient", "model.mask_gradient"),
    (TemporalGraph, "append_event", "graph.append_event"),
]


class Tracer:
    """In-memory span and counter store with install/uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, key, note]
        self.counts: Counter = Counter()  # (name, span index, enclosing counted call)
        self._open: list[int] = []
        self._calls: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, fn, name, key_fn, note_fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            key = key_fn(args) if key_fn is not None else None
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, key, None]
            spans.append(span)
            open_.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if note_fn is not None:
                span[5] = note_fn(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts, open_, calls = self.counts, self._open, self._calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, open_[-1] if open_ else -1,
                    calls[-1] if calls else None)] += 1
            calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                calls.pop()

        return wrapper

    def _replace(self, owner, attr, make):
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        for owner, attr, name, key_fn, note_fn in SPANS:
            self._replace(owner, attr,
                          lambda fn: self._span_wrapper(fn, name, key_fn, note_fn))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, lambda fn: self._count_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- queries ------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def top_level_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def _under(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def inside(self, span: list, name: str) -> bool:
        """Whether a span runs within an enclosing span of that name."""
        return self._under(span[3], name)

    def count(self, name: str, under: str | None = None,
              skip_inside: str | None = None) -> int:
        """Calls of a counted method, optionally only those made inside a
        span of the given name, or not from within another counted
        method."""
        n = 0
        for (cname, idx, caller), c in self.counts.items():
            if cname != name or (skip_inside is not None and caller == skip_inside):
                continue
            if under is not None and not self._under(idx, under):
                continue
            n += c
        return n

    def write(self, path) -> None:
        doc = {
            "spans": self.spans,
            "counts": [[name, idx, caller, c]
                       for (name, idx, caller), c in self.counts.items()],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
