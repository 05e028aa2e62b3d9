"""Analyst-facing outputs: JSON documents, a Markdown summary, and DOT
graph descriptions with importance-band edge styling.

Importance bands over [0, 1]: critical above 0.7, moderate in
[0.3, 0.7] (inclusive bounds), irrelevant below 0.3.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import ClassVar

from .detect import AttackSubgraph
from .fileformat import _excerpt, _read_decimal
from .graph import _I64, NodeDescriptor, Relation

CRITICAL_BOUND = 0.7
MODERATE_BOUND = 0.3


class ImportanceBand(Enum):
    CRITICAL = "critical"
    MODERATE = "moderate"
    IRRELEVANT = "irrelevant"


def band_of(importance: float) -> ImportanceBand:
    """Every value in [0, 1] maps to exactly one band."""
    if importance > CRITICAL_BOUND:
        return ImportanceBand.CRITICAL
    if importance >= MODERATE_BOUND:
        return ImportanceBand.MODERATE
    return ImportanceBand.IRRELEVANT


_BAND_RATIONALE = {
    ImportanceBand.CRITICAL: "critical to alert",
    ImportanceBand.MODERATE: "moderate contributor to alert",
    ImportanceBand.IRRELEVANT: "likely not relevant",
}

_BAND_STYLE = {
    ImportanceBand.CRITICAL: ("bold", "red", 3),
    ImportanceBand.MODERATE: ("solid", "orange", 2),
    ImportanceBand.IRRELEVANT: ("solid", "gray", 1),
}


@dataclass
class WindowReport:
    """One window's explanation results, mirroring the JSON layout."""

    window: tuple[int, int]
    num_events: int
    threshold: float
    graphmask_aggregate: list[dict]   # {src, dst, relation, weight, count}
    nodes: list[dict]                 # {node_id, score, gnn, va_tg}, score desc
    skipped: list[dict] = field(default_factory=list)  # per-event skip records
    # the alert's sorted entities the window's subgraph is drawn over;
    # None in a document written without them
    entities: list[int] | None = None


@dataclass
class ExplanationReport:
    windows: list[WindowReport]
    # read only by perfbench/spans.py's pipeline note; ROADMAP item 4 deletes it
    warnings: ClassVar[tuple[str, ...]] = ()


def load_schema() -> dict:
    path = resources.files("provlens.schemas") / "explanation_report.schema.json"
    return json.loads(path.read_text())


@functools.cache
def _validator():
    """The shipped schema's validator, the schema checked against its
    meta-schema once per process (``jsonschema.validate`` checks it on
    every call, about ten times the cost of validating a window
    document)."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_document(doc: dict) -> None:
    """Raise the ``jsonschema.ValidationError`` that ``jsonschema.validate``
    raises for ``doc`` against the shipped schema, its best match among
    the errors, or return; the schema is checked once per process."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error


def _fmt_window(window: tuple[int, int]) -> str:
    return f"{window[0]}-{window[1]}"


def _parse_window(text: str) -> tuple[int, int]:
    """Inverse of _fmt_window; either bound may be negative, and each is
    in the int64 range."""
    # the bounds part at the first "-" after t0's first character, its sign
    head, sep, tail = text[1:].partition("-")
    bounds = _read_decimal(text[:1] + head), _read_decimal(tail)
    if not sep or not all(b is not None and _I64.min <= b <= _I64.max for b in bounds):
        raise ValueError(f"malformed window {_excerpt(text)}; expected <t0>-<t1>")
    return bounds


def emit_json(report: WindowReport, node_map: dict[int, NodeDescriptor]) -> dict:
    """The per-window JSON document; validates against the shipped schema."""
    referenced: set[int] = set()
    for row in report.graphmask_aggregate:
        referenced.update((row["src"], row["dst"]))
    for node in report.nodes:
        referenced.add(node["node_id"])
        for g in node["gnn"]:
            for e in g["top_edges"]:
                referenced.update((e["src"], e["dst"]))
        for e in node["va_tg"]["aggregate"]:
            referenced.update((e["src"], e["dst"]))

    doc = {
        "window": _fmt_window(report.window),
        "num_events": report.num_events,
        "threshold": report.threshold,
        "graphmask": {"aggregate": report.graphmask_aggregate},
        "nodes": report.nodes,
        **({} if report.entities is None else {"entities": report.entities}),
        "labels": {
            str(nid): node_map[nid].label
            for nid in sorted(referenced)
            if nid in node_map
        },
    }
    validate_document(doc)
    return doc


def parse_report_json(doc: dict) -> WindowReport:
    """Inverse of emit_json (labels section is derived, not round-tripped).
    A document that fails the schema (a node id outside int64 included)
    raises ValueError naming the field."""
    import jsonschema

    try:
        validate_document(doc)
    except jsonschema.ValidationError as exc:
        raise ValueError(
            f"report does not match the schema at {exc.json_path}: {exc.message}"
        ) from exc
    return WindowReport(
        window=_parse_window(doc["window"]),
        num_events=doc["num_events"],
        threshold=doc["threshold"],
        graphmask_aggregate=doc["graphmask"]["aggregate"],
        nodes=doc["nodes"],
        entities=doc.get("entities"),
    )


def node_label(node_map, nid: int) -> str:
    """The node's label, or its id as text when ``node_map`` lacks it."""
    return node_map[nid].label if nid in node_map else str(nid)


def _edge_label(src: int, dst: int, rel: str, node_map, warnings: list[str]) -> str:
    def label(nid: int) -> str:
        if nid not in node_map:
            warnings.append(f"warning: no label for node {nid}; using numeric id")
        return node_label(node_map, nid)

    return f"{label(src)} → {label(dst)}, {rel}"


def emit_markdown(report: WindowReport, node_map: dict[int, NodeDescriptor]) -> str:
    """Human-readable per-window summary with banded edge bullets."""
    warnings: list[str] = []
    lines = [
        f"## Window {_fmt_window(report.window)}",
        "",
        f"- events in window: {report.num_events}",
        f"- anomaly threshold: {report.threshold:.4f}",
        f"- explained nodes: {len(report.nodes)}",
        "",
        "### Globally important edges",
        "",
    ]
    if report.graphmask_aggregate:
        for row in report.graphmask_aggregate:
            band = band_of(row["weight"])
            desc = _edge_label(row["src"], row["dst"], row["relation"],
                               node_map, warnings)
            lines.append(
                f"- Edge ({desc}) — {band.value} "
                f"(weight {row['weight']:.2f}, seen {row['count']}x); "
                f"{_BAND_RATIONALE[band]}"
            )
    else:
        lines.append("- no edges were explained in this window")

    lines += ["", "### Suspicious nodes", ""]
    if not report.nodes:
        lines.append("- no explainable nodes in this window")
    for node in report.nodes:
        nid = node["node_id"]
        lines.append(f"- **{node_label(node_map, nid)}** "
                     f"(node {nid}, score {node['score']:.2f})")
        for g in node["gnn"]:
            for e in g["top_edges"]:
                band = band_of(e["imp"])
                desc = _edge_label(e["src"], e["dst"], e["rel"], node_map, warnings)
                lines.append(
                    f"  - Edge ({desc}) — {band.value} "
                    f"(importance {e['imp']:.2f}); {_BAND_RATIONALE[band]}"
                )
    if warnings:
        lines += [""] + sorted(set(warnings))
    return "\n".join(lines) + "\n"


def emit_graph_description(
    report: WindowReport,
    subgraph: AttackSubgraph,
    node_map: dict[int, NodeDescriptor],
) -> str:
    """DOT document for the subgraph, edges styled by importance band.

    Importance per canonical edge comes from the report's GraphMask
    aggregate; edges absent from every explanation are styled irrelevant.
    Node labels are written as DOT strings, with ``\\`` and ``"`` escaped.
    Node ``nid`` is the DOT ID ``n{nid}``, quoted when ``nid`` is negative,
    since ``n-5`` is not an ID.
    """
    weights = {
        (row["src"], row["dst"], row["relation"]): row["weight"]
        for row in report.graphmask_aggregate
    }
    lines = ["digraph attack_subgraph {", "  rankdir=LR;"]
    for nid in sorted(subgraph.nodes):
        shape = {
            "PROCESS": "box", "FILE": "ellipse", "SOCKET": "diamond"
        }.get(node_map[nid].kind.value if nid in node_map else "", "ellipse")
        label = node_label(node_map, nid).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {_dot_id(nid)} [label="{label}", shape={shape}];')
    seen: set[tuple[int, int, str]] = set()
    for ev in subgraph.events:
        key = (ev.src, ev.dst, ev.relation.value)
        if key in seen:
            continue
        seen.add(key)
        weight = weights.get(key, 0.0)
        style, color, penwidth = _BAND_STYLE[band_of(weight)]
        lines.append(
            f'  {_dot_id(ev.src)} -> {_dot_id(ev.dst)} [label="{ev.relation.value}", '
            f"style={style}, color={color}, penwidth={penwidth}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(nid: int) -> str:
    return f'"n{nid}"' if nid < 0 else f"n{nid}"
