"""The column store: a graph filled in bulk (by the dataset loader, the
scenario generator and the log parser, or masked by ablation) is the
graph that one ``append_event`` per event builds, and a malformed
dataset file fails with the error of its first bad record."""

import copy
import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from provlens.data import (
    DatasetFormatError,
    LabeledDataset,
    _keyed_graph,
    load_dataset,
    save_dataset,
)
from provlens.graph import (
    Event,
    NodeDescriptor,
    NodeKind,
    Relation,
    TemporalGraph,
    TruthLabel,
)
from provlens.graphmask import CanonicalEdge
from provlens.harness import remove_edge

from conftest import build_graph

QUARTER = 250_000_000

# node ids: distinct, negative to past 2^40, so never dense
_ids = st.lists(st.integers(-50, 2**40), min_size=1, max_size=7, unique=True)
_nodes = _ids.flatmap(lambda ids: st.tuples(
    st.just(ids),
    st.lists(st.sampled_from(list(NodeKind)), min_size=len(ids), max_size=len(ids)),
    st.lists(st.text("ab/.", min_size=1, max_size=3), min_size=len(ids),
             max_size=len(ids)),
))
# (src pick, dst pick, relation, timestamp step in quarter seconds); a pick
# that is a multiple of 3 is the hub (the first node), equal picks make
# self-loops and a step of 0 a timestamp tie
_events = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from(list(Relation)),
              st.integers(0, 3)),
    max_size=30,
)
_streams = st.tuples(_nodes, _events, st.integers(-2**50, 2**50))


def _records(stream):
    """(nodes, events) of a stream: nodes as (id, kind, label) in insertion
    order, events as Events in order."""
    (ids, kinds, labels), picks, t = stream
    nodes = list(zip(ids, kinds, labels))

    def node(pick):
        return ids[0] if pick % 3 == 0 else ids[pick % len(ids)]

    events = []
    for s, d, rel, step in picks:
        t += step * QUARTER
        events.append(Event(node(s), node(d), rel, t))
    return nodes, events


def _appended(nodes, events) -> TemporalGraph:
    g = TemporalGraph()
    for nid, kind, label in nodes:
        g.add_node(NodeDescriptor(nid, kind, label))
    for e in events:
        g.append_event(e)
    return g


def _windows(graph):
    """Half-open windows that start or end on event timestamps, with ties."""
    ts = sorted({e.timestamp for e in graph.events})
    return [(a, b) for a in ts[:4] for b in ts[-4:] + [ts[-1] + 1] if a < b]


def _assert_same(g: TemporalGraph, ref: TemporalGraph, same_node_order=True):
    """g agrees with ref on every read; ref is checked against brute force."""
    events = list(ref.events)
    assert len(g) == len(ref) == len(events)
    assert list(g.events) == events
    assert g.events == ref.events and g.events == events
    assert [g.events[i] for i in range(-len(g), len(g))] == events + events
    assert g.events[1:-1] == events[1:-1]
    assert dict(g.nodes.items()) == dict(ref.nodes.items())
    if same_node_order:
        assert list(g.nodes) == list(ref.nodes)
    for nid in ref.nodes:
        expected = [i for i, e in enumerate(events) if nid in (e.src, e.dst)]
        assert g.incident(nid) == ref.incident(nid) == expected
    for t0, t1 in (_windows(ref) if events else []):
        expected = [i for i, e in enumerate(events) if t0 <= e.timestamp < t1]
        assert g.window_slice(t0, t1) == ref.window_slice(t0, t1) == expected
    assert g.span() == ref.span()


@settings(max_examples=60, deadline=None)
@given(_streams)
def test_loaded_graph_equals_appended_graph(tmp_path_factory, stream):
    nodes, events = _records(stream)
    ref = _appended(nodes, events)
    path = tmp_path_factory.mktemp("ds") / "ds.json"
    labels = [TruthLabel.BENIGN] * len(events)
    save_dataset(LabeledDataset(ref, labels, (0, 0)), path)
    loaded = load_dataset(path)
    # the file lists nodes by id
    _assert_same(loaded.graph, ref, same_node_order=False)
    assert list(loaded.graph.nodes) == sorted(ref.nodes)
    assert loaded == LabeledDataset(ref, labels, (0, 0))


@settings(max_examples=60, deadline=None)
@given(_streams)
def test_keyed_graph_equals_appended_graph(stream):
    """The generator's and the parser's bulk numbering of (kind, label)
    keys against numbering them one event at a time."""
    nodes, events = _records(stream)
    key = {nid: (kind, label) for nid, kind, label in nodes}
    records = [(key[e.src], key[e.dst], e.relation, e.timestamp) for e in events]
    ref, ids = TemporalGraph(), {}
    for src_key, dst_key, rel, ts in records:
        for k in (src_key, dst_key):
            if k not in ids:
                ids[k] = len(ids)
                ref.add_node(NodeDescriptor(ids[k], *k))
        ref.append_event(Event(ids[src_key], ids[dst_key], rel, ts))
    _assert_same(_keyed_graph(records), ref)


@settings(max_examples=60, deadline=None)
@given(_streams, st.data())
def test_remove_edge_equals_rebuild(stream, data):
    nodes, events = _records(stream)
    if not events:
        return
    graph = _appended(nodes, events)
    labels = [data.draw(st.sampled_from(list(TruthLabel))) for _ in events]
    ds = LabeledDataset(graph, labels, (0, 0))
    e = data.draw(st.sampled_from(events))
    edge = CanonicalEdge(e.src, e.dst, e.relation)
    keep = [i for i, ev in enumerate(events)
            if (ev.src, ev.dst, ev.relation) != (e.src, e.dst, e.relation)]
    # the rebuild ablation made before the column store: nodes by id, then
    # the kept events through append_event
    rebuilt = _appended(sorted(nodes), [events[i] for i in keep])
    ablated = remove_edge(ds, edge)
    _assert_same(ablated.graph, rebuilt)
    assert ablated.labels == [labels[i] for i in keep]
    assert ablated == LabeledDataset(rebuilt, [labels[i] for i in keep], (0, 0))
    assert len(ds.graph) == len(events)  # the input is untouched


# -- malformed files -----------------------------------------------------

def _tiny_doc():
    return {
        "version": 1,
        "nodes": [{"id": 0, "kind": "PROCESS", "label": "sh"},
                  {"id": 1, "kind": "FILE", "label": "/x"}],
        "events": [[0, 1, "OPEN", 1000], [0, 1, "READ", 2000]],
        "labels": ["BENIGN", "BENIGN"],
        "attack_interval": [0, 0],
    }


def _set(*path_value):
    def edit(doc):
        *path, value = path_value
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return edit


# messages of the record-by-record decode the column store replaced
@pytest.mark.parametrize("edit, message", [
    (_set("events", 1, 1, 7), "UnknownNodeError('unknown dst node 7')"),
    (_set("events", 0, 0, 9), "UnknownNodeError('unknown src node 9')"),
    (_set("events", 1, 3, 999),
     "OrderingError('event timestamp 999 precedes last timestamp 1000')"),
    (_set("events", 1, 3, True), "TypeError('expected int, got True')"),
    (_set("events", 0, 0, True), "TypeError('expected int, got True')"),
    (_set("nodes", 1, "id", False), "TypeError('expected int, got False')"),
    (_set("nodes", 0, "label", ""), "ValueError('node label must be non-empty')"),
    (lambda d: d["nodes"].append({"id": 1, "kind": "FILE", "label": "/y"}),
     "ValueError(\"node_id 1 already bound to NodeDescriptor(node_id=1, "
     "kind=<NodeKind.FILE: 'FILE'>, label='/x')\")"),
    # the first bad record wins, whatever its fault
    (lambda d: (_set("events", 0, 0, 9)(d), _set("events", 1, 3, True)(d)),
     "UnknownNodeError('unknown src node 9')"),
    (_set("events", 1, 3, 2**70),
     "OverflowError('Python int too large to convert to C long')"),
], ids=["unknown-dst", "unknown-src", "decreasing", "bool-ts", "bool-src",
        "bool-id", "empty-label", "rebound-node", "first-bad-wins", "past-int64"])
def test_malformed_file_errors(tmp_path, edit, message):
    doc = _tiny_doc()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"malformed dataset file {path}: {message}"


def test_reversed_attack_interval_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_tiny_doc(), "attack_interval": [2000, 1000]}))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == (f"dataset file {path} has attack_interval "
                              f"[2000, 1000], whose start is after its end")


_KINDS = {k.value: k for k in NodeKind}
_RELATIONS = {r.value: r for r in Relation}


def _record_error(doc) -> str | None:
    """The message of a record-by-record decode (nodes, then events, in
    file order) of a document, or None when it decodes."""
    def typed(value, kind):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    graph = TemporalGraph()
    try:
        for n in doc["nodes"]:
            graph.add_node(NodeDescriptor(typed(n["id"], int), _KINDS[n["kind"]],
                                          typed(n["label"], str)))
        for src, dst, rel, ts in doc["events"]:
            graph.append_event(Event(typed(src, int), typed(dst, int),
                                     _RELATIONS[rel], typed(ts, int)))
    except (KeyError, TypeError, ValueError) as exc:
        return repr(exc)
    return None


_faults = st.sampled_from(["unknown-node", "decreasing", "bool", "rebound"])


@settings(max_examples=80, deadline=None)
@given(_streams, st.lists(st.tuples(_faults, st.integers(0, 10**6)),
                          min_size=1, max_size=3))
def test_first_bad_record_names_the_error(tmp_path_factory, stream, faults):
    """Faults at random records of a valid file: the loader's message is
    the record-by-record decode's, so the first bad record wins."""
    nodes, events = _records(stream)
    path = tmp_path_factory.mktemp("ds") / "ds.json"
    save_dataset(LabeledDataset(_appended(nodes, events),
                                [TruthLabel.BENIGN] * len(events), (0, 0)), path)
    doc = json.loads(path.read_text())
    bad = copy.deepcopy(doc)
    for fault, at in faults:
        events = bad["events"]
        if fault == "rebound":
            node = dict(bad["nodes"][at % len(bad["nodes"])])
            node["label"] += "!"
            bad["nodes"].insert(at % (len(bad["nodes"]) + 1), node)
        elif fault == "unknown-node" and events:
            events[at % len(events)][at % 2] = 2**41 + at
        elif fault == "decreasing" and len(events) > 1:
            i = 1 + at % (len(events) - 1)
            events[i][3] = events[i - 1][3] - 1
        elif fault == "bool" and events:
            events[at % len(events)][(0, 1, 3)[at % 3]] = True
    message = _record_error(bad)
    path.write_text(json.dumps(bad))
    if message is None:
        load_dataset(path)
        return
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"malformed dataset file {path}: {message}"


# -- read views ------------------------------------------------------------

def test_incident_returns_a_fresh_list(tiny_graph):
    before = tiny_graph.incident(1)
    got = tiny_graph.incident(1)
    got.append(99)
    got.sort(reverse=True)
    assert tiny_graph.incident(1) == before == [2, 3, 4, 6]


def test_views_are_read_only(tiny_graph):
    with pytest.raises(ValueError):
        tiny_graph.ts[0] = 0
    with pytest.raises(TypeError):
        tiny_graph.events[0] = tiny_graph.events[1]
    with pytest.raises(TypeError):
        tiny_graph.nodes[0] = tiny_graph.nodes[1]
    with pytest.raises(IndexError):
        tiny_graph.events[len(tiny_graph)]
    with pytest.raises(KeyError):
        tiny_graph.nodes[99]


def test_appends_after_a_read_are_seen(tiny_graph):
    """The incidence list is rebuilt after a write, and a column read
    before the write keeps its length."""
    ts = tiny_graph.ts
    assert tiny_graph.incident(3) == [0, 1, 4]
    tiny_graph.append_event(Event(2, 3, Relation.READ, tiny_graph.span()[1]))
    assert tiny_graph.incident(3) == [0, 1, 4, 7]
    assert len(ts) == 7 and len(tiny_graph.ts) == 8


def test_graph_is_freed_by_reference_counting(tmp_path):
    """No reference cycle holds a graph (for example through its views),
    so a dropped graph is freed at once, not at the next full collection."""
    g = build_graph(([(0, NodeKind.PROCESS, "p"), (1, NodeKind.FILE, "f")],
                     [(0, 1, Relation.READ, 1.0), (1, 1, Relation.CLOSE, 2.0)]))
    events, nodes = g.events, g.nodes
    assert g.incident(1) == [0, 1] and len(events) == 2 and 0 in nodes
    path = tmp_path / "ds.json"
    save_dataset(LabeledDataset(g, [TruthLabel.BENIGN] * 2, (0, 0)), path)
    loaded = load_dataset(path).graph
    refs = [weakref.ref(g), weakref.ref(loaded)]
    gc.disable()
    try:
        del g, events, nodes, loaded
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_from_columns_rejects_ragged_columns_and_unknown_codes():
    one_node = ([7], [0], ["p"])
    with pytest.raises(ValueError, match="one length"):
        TemporalGraph.from_columns(*one_node, [7, 7], [7], [0], [1])
    with pytest.raises(ValueError, match="codes"):
        TemporalGraph.from_columns([7], [len(NodeKind)], ["p"], [], [], [], [])
    with pytest.raises(ValueError, match="codes"):
        TemporalGraph.from_columns(*one_node, [7], [7], [-1], [1])
    g = TemporalGraph.from_columns(*one_node, [7], [7], [len(Relation) - 1], [1])
    assert list(g.events) == [Event(7, 7, list(Relation)[-1], 1)]


def test_window_bounds_past_int64(tiny_graph):
    """Window bounds are Python numbers, not int64: a window longer than
    the int64 range (a valid, if huge, window_minutes) still slices."""
    n = len(tiny_graph)
    assert tiny_graph.window_slice(0, 2**70) == list(range(n))
    assert tiny_graph.window_slice(-2**70, 2.5e9) == [0, 1]
    assert tiny_graph.count_before(float("inf")) == n
    assert tiny_graph.count_before(-float("inf")) == 0
