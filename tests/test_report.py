"""Reporting: importance bands, JSON schema, Markdown, DOT output."""

import json
import re

import pytest

from provlens.detect import AttackSubgraph
from provlens.graph import Event, NodeDescriptor, NodeKind, Relation
from provlens.report import (
    ImportanceBand,
    WindowReport,
    band_of,
    emit_graph_description,
    emit_json,
    emit_markdown,
    load_schema,
    parse_report_json,
    validate_document,
)


@pytest.mark.parametrize(
    "value,band",
    [
        (0.0, ImportanceBand.IRRELEVANT),
        (0.29999, ImportanceBand.IRRELEVANT),
        (0.3, ImportanceBand.MODERATE),
        (0.5, ImportanceBand.MODERATE),
        (0.7, ImportanceBand.MODERATE),
        (0.70001, ImportanceBand.CRITICAL),
        (1.0, ImportanceBand.CRITICAL),
    ],
)
def test_band_boundaries(value, band):
    assert band_of(value) is band


def test_bands_partition_unit_interval():
    """Every value in [0, 1] lands in exactly one band."""
    for i in range(0, 1001):
        assert band_of(i / 1000) in ImportanceBand


NODE_MAP = {
    1: NodeDescriptor(1, NodeKind.PROCESS, "sh"),
    2: NodeDescriptor(2, NodeKind.FILE, "/etc/passwd"),
    3: NodeDescriptor(3, NodeKind.SOCKET, "10.0.0.1:80"),
}


def _report():
    return WindowReport(
        window=(0, 900_000_000_000),
        num_events=12,
        threshold=0.77,
        graphmask_aggregate=[
            {"src": 1, "dst": 2, "relation": "READ", "weight": 0.9, "count": 3},
            {"src": 1, "dst": 3, "relation": "SEND", "weight": 0.2, "count": 1},
        ],
        nodes=[
            {
                "node_id": 2,
                "score": 2.4,
                "gnn": [
                    {
                        "event_index": 7,
                        "comprehensiveness": 0.6,
                        "sufficiency": 0.05,
                        "top_edges": [
                            {"src": 1, "dst": 2, "rel": "READ", "imp": 0.9}
                        ],
                    }
                ],
                "va_tg": {
                    "events": [
                        {
                            "event_index": 7,
                            "top_edges": [
                                {"src": 1, "dst": 2, "rel": "READ",
                                 "imp": 0.8}
                            ],
                        }
                    ],
                    "aggregate": [
                        {"src": 1, "dst": 2, "rel": "READ",
                         "mean": 0.8, "var": 0.01}
                    ],
                },
            }
        ],
    )


def test_schema_loads():
    schema = load_schema()
    assert schema["type"] == "object"


def test_emit_json_validates_and_labels():
    doc = emit_json(_report(), NODE_MAP)
    validate_document(doc)  # already validated inside emit; explicit re-check
    assert doc["window"] == "0-900000000000"
    assert doc["labels"]["2"] == "/etc/passwd"
    assert set(doc["labels"]) == {"1", "2", "3"}
    json.dumps(doc)


def test_json_round_trip():
    doc = emit_json(_report(), NODE_MAP)
    back = parse_report_json(doc)
    orig = _report()
    assert back.window == orig.window
    assert back.num_events == orig.num_events
    assert back.threshold == orig.threshold
    assert back.graphmask_aggregate == orig.graphmask_aggregate
    assert back.nodes == orig.nodes


def test_entities_are_optional_and_round_trip():
    """A document carries the window's entities only when the report has
    them, and parse_report_json reads back what was written."""
    plain = emit_json(_report(), NODE_MAP)
    assert "entities" not in plain
    assert parse_report_json(plain).entities is None

    report = _report()
    report.entities = [1, 2, 3]
    doc = emit_json(report, NODE_MAP)
    assert doc["entities"] == [1, 2, 3]
    assert {k: v for k, v in doc.items() if k != "entities"} == plain
    assert parse_report_json(doc).entities == [1, 2, 3]
    doc["entities"] = ["sh"]
    with pytest.raises(ValueError):
        parse_report_json(doc)


def test_validate_rejects_malformed():
    import jsonschema

    doc = emit_json(_report(), NODE_MAP)
    del doc["threshold"]
    with pytest.raises(jsonschema.ValidationError):
        validate_document(doc)


def test_schema_is_checked_once_per_process(monkeypatch):
    """jsonschema.validate checks the schema against its meta-schema on
    every call; validate_document checks it once, however many documents
    it validates."""
    import jsonschema

    import provlens.report as report_module

    cls = jsonschema.validators.validator_for(load_schema())
    checked = []
    check_schema = cls.check_schema

    def counted(schema, *args, **kwargs):
        checked.append(schema)
        return check_schema(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", counted)
    report_module._validator.cache_clear()
    for _ in range(5):
        doc = emit_json(_report(), NODE_MAP)
        parse_report_json(doc)
        validate_document(doc)
    assert checked == [load_schema()]


def _invalid_documents():
    doc = emit_json(_report(), NODE_MAP)
    no_threshold = {k: v for k, v in doc.items() if k != "threshold"}
    return [
        no_threshold,
        {**doc, "threshold": "high"},
        {**doc, "num_events": -1, "window": 5},
        {**doc, "nodes": [{**doc["nodes"][0], "score": "x"}]},
        {**doc, "graphmask": {"aggregate": [{"src": 1}]}},
        {**doc, "entities": ["sh"]},
        {**doc, "extra": 1},
        [],
    ]


@pytest.mark.parametrize("index", range(len(_invalid_documents())))
def test_invalid_document_error_is_jsonschema_validates(index):
    """The same error, message and path, as jsonschema.validate raises."""
    import jsonschema

    doc = _invalid_documents()[index]
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, load_schema())
    with pytest.raises(jsonschema.ValidationError) as got:
        validate_document(doc)
    assert str(got.value) == str(expected.value)
    assert got.value.message == expected.value.message
    assert list(got.value.absolute_path) == list(expected.value.absolute_path)


def test_markdown_contains_bands_and_rationale():
    text = emit_markdown(_report(), NODE_MAP)
    assert "## Window 0-900000000000" in text
    assert "critical" in text
    assert "irrelevant" in text
    assert "critical to alert" in text
    assert "/etc/passwd" in text


def test_markdown_warns_on_missing_label():
    report = _report()
    report.graphmask_aggregate[0]["src"] = 42  # not in the node map
    text = emit_markdown(report, NODE_MAP)
    assert "warning: no label for node 42" in text


def test_graph_description_styles_by_band():
    sub = AttackSubgraph(
        nodes={1, 2, 3},
        event_indexes=[7, 8],
        events=[
            Event(1, 2, Relation.READ, 5),
            Event(1, 3, Relation.SEND, 6),
            Event(1, 3, Relation.SEND, 7),  # duplicate canonical edge
        ],
    )
    dot = emit_graph_description(_report(), sub, NODE_MAP)
    assert dot.startswith("digraph attack_subgraph {")
    assert dot.rstrip().endswith("}")
    assert 'n1 [label="sh", shape=box];' in dot
    assert 'n2 [label="/etc/passwd", shape=ellipse];' in dot
    assert 'n3 [label="10.0.0.1:80", shape=diamond];' in dot
    # READ weight 0.9 -> critical styling; SEND 0.2 -> irrelevant
    assert 'n1 -> n2 [label="READ", style=bold, color=red, penwidth=3];' in dot
    assert 'n1 -> n3 [label="SEND", style=solid, color=gray, penwidth=1];' in dot
    # duplicate canonical edges are drawn once
    assert dot.count('n1 -> n3') == 1


@pytest.mark.parametrize("window, text", [
    ((-900_000_000_000, 0), "-900000000000-0"),
    ((-1_800_000_000_000, -900_000_000_000), "-1800000000000--900000000000"),
    ((0, 900_000_000_000), "0-900000000000"),
    ((-2**63, 2**63 - 1), "-9223372036854775808-9223372036854775807"),
])
def test_window_round_trips_with_negative_bounds(window, text):
    """The window string is written as before, and read back whichever
    of its bounds are negative."""
    report = _report()
    report.window = window
    doc = emit_json(report, NODE_MAP)
    assert doc["window"] == text
    assert parse_report_json(doc).window == window


@pytest.mark.parametrize("text", ["", "1", "1-", "-1", "a-b", "1--", "--1-2",
                                  "1-2-3", " 1-2", "1.5-2",
                                  "9223372036854775808-0", "0--9223372036854775809",
                                  "1" * 5000 + "-2", "1-" + "1" * 5000])
def test_malformed_window_is_named(text):
    """A bound outside the int64 range is malformed too, however many
    digits it has, and the window is quoted cut to 40 characters."""
    doc = emit_json(_report(), NODE_MAP)
    doc["window"] = text
    with pytest.raises(ValueError,
                       match="malformed window " + re.escape(repr(text[:40]))) as err:
        parse_report_json(doc)
    assert len(str(err.value)) < 120


def test_graph_description_escapes_labels():
    """A quote or a backslash in a label is escaped, so the DOT string
    ends where the label does and Graphviz reads no escape into it."""
    node_map = {1: NodeDescriptor(1, NodeKind.PROCESS, 'a"b'),
                2: NodeDescriptor(2, NodeKind.FILE, "c\\N\\n\\")}
    sub = AttackSubgraph(nodes={1, 2}, event_indexes=[0],
                         events=[Event(1, 2, Relation.READ, 5)])
    dot = emit_graph_description(_report(), sub, node_map)
    assert 'n1 [label="a\\"b", shape=box];' in dot
    assert 'n2 [label="c\\\\N\\\\n\\\\", shape=ellipse];' in dot


def test_graph_description_quotes_negative_node_ids():
    """``n-5`` is not a DOT ID, so a negative node id is written quoted;
    every other id keeps its bare ``n{nid}`` form."""
    node_map = {-5: NodeDescriptor(-5, NodeKind.PROCESS, "neg"), **NODE_MAP}
    sub = AttackSubgraph(nodes={-5, 1, 2}, event_indexes=[0, 1],
                         events=[Event(-5, 1, Relation.EXECUTE, 5),
                                 Event(1, 2, Relation.READ, 6)])
    dot = emit_graph_description(_report(), sub, node_map)
    assert '  "n-5" [label="neg", shape=box];' in dot
    assert '  n1 [label="sh", shape=box];' in dot
    assert '  "n-5" -> n1 [label="EXECUTE", ' in dot
    assert '  n1 -> n2 [label="READ", ' in dot
    assert "n-5" not in dot.replace('"n-5"', "")
