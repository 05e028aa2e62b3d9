"""The column store: a graph filled in bulk (by the dataset loader, the
scenario generator and the log parser, or masked by ablation) is the
graph that one ``append_event`` per event builds, and a malformed
dataset file fails with the error of its first bad record."""

import base64
import copy
import gc
import json
import weakref

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from provlens.data import (
    _KIND_CODES,
    DatasetFormatError,
    LabeledDataset,
    _keyed_graph,
    load_dataset,
    save_dataset,
)
from provlens.graph import (
    NODE_KINDS,
    Event,
    NodeDescriptor,
    NodeKind,
    Relation,
    TemporalGraph,
    TruthLabel,
    UnknownNodeError,
    extract_context,
)
from provlens.graphmask import CanonicalEdge
from provlens.harness import remove_edge
from provlens.model import ModelConfig, TgnModel, score_stream

from conftest import build_graph, save_v1_dataset, v1_document

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


def _assert_same(g: TemporalGraph, ref: TemporalGraph):
    """g agrees with ref on every read, nodes in id order; ref is checked
    against brute force."""
    events = list(ref.events)
    assert len(g) == len(ref) == len(events)
    assert list(g.events) == events
    assert g.events == ref.events and g.events == events
    assert [g.events[i] for i in range(-len(g), len(g))] == events + events
    assert g.events[1:-1] == events[1:-1]
    assert dict(g.nodes.items()) == dict(ref.nodes.items())
    assert list(g.nodes) == list(ref.nodes) == sorted(ref.nodes)
    assert list(g.nodes.values()) == list(ref.nodes.values())
    for nid in ref.nodes:
        expected = [i for i, e in enumerate(events) if nid in (e.src, e.dst)]
        assert g.incident(nid) == ref.incident(nid) == expected
    for t0, t1 in (_windows(ref) if events else []):
        expected = [i for i, e in enumerate(events) if t0 <= e.timestamp < t1]
        assert (list(range(*g.window_bounds(t0, t1)))
                == list(range(*ref.window_bounds(t0, t1))) == expected)
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
    _assert_same(loaded.graph, ref)
    assert loaded == LabeledDataset(ref, labels, (0, 0))


@settings(max_examples=60, deadline=None)
@given(_streams)
def test_keyed_graph_equals_appended_graph(stream):
    """The parser's (and the reference record generator's) bulk
    numbering of (kind, label) keys against numbering them one event at
    a time."""
    nodes, events = _records(stream)
    key = {nid: (_KIND_CODES[kind.value], label) for nid, kind, label in nodes}
    records = [(e.timestamp, i, key[e.src], key[e.dst], e.relation)
               for i, e in enumerate(events)]
    ref, ids = TemporalGraph(), {}
    for ts, _, src_key, dst_key, rel in records:
        for k in (src_key, dst_key):
            if k not in ids:
                ids[k] = len(ids)
                ref.add_node(NodeDescriptor(ids[k], NODE_KINDS[k[0]], k[1]))
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


@settings(max_examples=60, deadline=None)
@given(_streams, st.data())
def test_every_build_holds_nodes_in_id_order(tmp_path_factory, stream, data):
    """Nodes added in any order, node columns in any order, a version-1
    file listing its nodes in any order, a version-2 file and an ablation
    all give a graph with its nodes in ascending id order that agrees with
    the appended graph on every read."""
    nodes, events = _records(stream)
    ref = _appended(nodes, events)
    shuffled = data.draw(st.permutations(nodes))
    ids, kinds, node_labels = zip(*shuffled)
    labels = [TruthLabel.BENIGN] * len(events)
    work = tmp_path_factory.mktemp("ds")
    doc = v1_document(LabeledDataset(ref, labels, (0, 0)))
    doc["nodes"] = data.draw(st.permutations(doc["nodes"]))
    (work / "v1.json").write_text(json.dumps(doc))
    save_dataset(LabeledDataset(ref, labels, (0, 0)), work / "v2.json")
    built = [
        _appended(shuffled, events),
        TemporalGraph.from_columns(
            ids, [list(NodeKind).index(k) for k in kinds], node_labels,
            [e.src for e in events], [e.dst for e in events],
            [list(Relation).index(e.relation) for e in events],
            [e.timestamp for e in events]),
        load_dataset(work / "v1.json").graph,
        load_dataset(work / "v2.json").graph,
    ]
    if events:
        e = data.draw(st.sampled_from(events))
        kept = [ev for ev in events if (ev.src, ev.dst, ev.relation)
                != (e.src, e.dst, e.relation)]
        ablated = remove_edge(LabeledDataset(built[0], labels, (0, 0)),
                              CanonicalEdge(e.src, e.dst, e.relation))
        _assert_same(ablated.graph, _appended(shuffled, kept))
    assert list(ref.nodes) == sorted(ids)
    for g in built:
        _assert_same(g, ref)


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


def test_labels_must_be_an_array(tmp_path):
    """A labels object with one key per event is not read as its keys."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_tiny_doc(),
                                "labels": {"BENIGN": 1, "MALICIOUS": 1}}))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(err.value) == (
        f"malformed dataset file {path}: TypeError(\"expected list, got "
        f"{{'BENIGN': 1, 'MALICIOUS': 1}}\")")


def test_node_listed_twice_with_one_descriptor_loads(tmp_path):
    """The bulk checks reject a repeated node id; the record-by-record
    decode then accepts the repeat, since its descriptor is equal."""
    doc = _tiny_doc()
    doc["nodes"].insert(1, dict(doc["nodes"][0]))
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    loaded = load_dataset(path)
    ref = _appended([(0, NodeKind.PROCESS, "sh"), (1, NodeKind.FILE, "/x")],
                    [Event(0, 1, Relation.OPEN, 1000), Event(0, 1, Relation.READ, 2000)])
    _assert_same(loaded.graph, ref)
    assert loaded == LabeledDataset(ref, [TruthLabel.BENIGN] * 2, (0, 0))


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
    doc = v1_document(LabeledDataset(_appended(nodes, events),
                                     [TruthLabel.BENIGN] * len(events), (0, 0)))
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


# -- version 2 -------------------------------------------------------------

_I64 = (-2**63, 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(_streams, st.data())
def test_version_1_and_version_2_files_load_equal(tmp_path_factory, stream, data):
    nodes, events = _records(stream)
    labels = data.draw(st.lists(st.sampled_from(list(TruthLabel)),
                                min_size=len(events), max_size=len(events)))
    interval = tuple(sorted(data.draw(st.lists(st.integers(*_I64), min_size=2,
                                               max_size=2))))
    ds = LabeledDataset(_appended(nodes, events), labels, interval)
    work = tmp_path_factory.mktemp("ds")
    save_v1_dataset(ds, work / "v1.json")
    save_dataset(ds, work / "v2.json")
    v1, v2 = load_dataset(work / "v1.json"), load_dataset(work / "v2.json")
    assert v1 == v2 == ds


def v2_doc(work) -> dict:
    """The version-2 document of the tiny stream (nodes 0 and 1, events at
    1000 and 2000, the second malicious), saved under ``work``."""
    g = _appended([(0, NodeKind.PROCESS, "sh"), (1, NodeKind.FILE, "/x")],
                  [Event(0, 1, Relation.OPEN, 1000), Event(0, 1, Relation.READ, 2000)])
    path = work / "v2.json"
    save_dataset(LabeledDataset(g, [TruthLabel.BENIGN, TruthLabel.MALICIOUS],
                                (2000, 2000)), path)
    return json.loads(path.read_text())


#: each column's dtype, for editing one
_DTYPES = {("nodes", "id"): "<i8", ("nodes", "kind"): "u1", ("events", "src"): "<i8",
           ("events", "dst"): "<i8", ("events", "timestamp"): "<i8",
           ("events", "relation"): "u1", ("events", "label"): "u1"}


def _column(group, name, values):
    """Edit: the column holds ``values`` (a function of its decoded list)."""
    dtype = _DTYPES[group, name]

    def edit(doc):
        old = np.frombuffer(base64.b64decode(doc[group][name]), dtype).tolist()
        doc[group][name] = base64.b64encode(
            np.asarray(values(old), dtype).tobytes()).decode("ascii")
    return edit


def _raw(group, name, value):
    def edit(doc):
        doc[group][name] = value(doc[group][name]) if callable(value) else value
    return edit


def _top(key, value=None):
    def edit(doc):
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return edit


#: malformed version-2 documents and the field the error must name
MALFORMED_V2 = [
    pytest.param(_top("events"), "missing key(s) events", id="no-events"),
    pytest.param(_top("labels", []), "unknown key(s) labels", id="extra-top-key"),
    pytest.param(_top("nodes", []), "nodes in dataset file", id="nodes-not-object"),
    pytest.param(lambda d: d["nodes"].pop("kind"), "missing key(s) kind", id="no-kind"),
    pytest.param(_raw("events", "weight", ""), "unknown key(s) weight",
                 id="extra-event-key"),
    pytest.param(_raw("events", "src", [0, 0]), "events.src", id="list-src"),
    pytest.param(_raw("events", "timestamp", "!!!!"), "events.timestamp",
                 id="bad64-timestamp"),
    pytest.param(_raw("nodes", "id", lambda t: "\u00e9" + t[1:]), "nodes.id",
                 id="non-ascii-id"),
    pytest.param(_raw("nodes", "id", lambda t: t[:-1]), "nodes.id", id="unpadded-id"),
    pytest.param(_raw("events", "dst", base64.b64encode(bytes(12)).decode()),
                 "events.dst", id="partial-item-dst"),
    pytest.param(_column("events", "dst", lambda v: v[:1]), "events.dst", id="short-dst"),
    pytest.param(_column("events", "label", lambda v: v + [0]), "events.label",
                 id="long-truth"),
    pytest.param(_column("nodes", "kind", lambda v: v[:1]), "nodes.kind", id="short-kind"),
    pytest.param(_raw("nodes", "label", ["sh"]), "nodes.label", id="short-labels"),
    pytest.param(_column("nodes", "kind", lambda v: [0, 3]), "nodes.kind", id="kind-code"),
    pytest.param(_column("events", "relation", lambda v: [9, 0]), "events.relation",
                 id="relation-code"),
    pytest.param(_column("events", "label", lambda v: [0, 255]), "events.label",
                 id="truth-code"),
    pytest.param(_raw("nodes", "label", ["sh", ""]), "nodes.label", id="empty-label"),
    pytest.param(_raw("nodes", "label", ["sh", 1]), "nodes.label", id="int-label"),
    pytest.param(_raw("nodes", "label", "sh"), "nodes.label", id="string-labels"),
    pytest.param(_top("attack_interval", [True, 2000]), "attack_interval",
                 id="bool-bound"),
    pytest.param(_top("attack_interval", [2**63, 2**64]), "attack_interval",
                 id="past-int64"),
    pytest.param(_top("attack_interval", [-2**63 - 1, 0]), "attack_interval",
                 id="before-int64"),
    pytest.param(_top("attack_interval", [2000, 1000]), "attack_interval",
                 id="reversed"),
    pytest.param(_top("attack_interval", [1000]), "attack_interval", id="one-bound"),
    pytest.param(_column("events", "src", lambda v: [0, 7]), "events.src",
                 id="unknown-src"),
    pytest.param(_column("events", "dst", lambda v: [-1, 1]), "events.dst",
                 id="unknown-dst"),
    pytest.param(_column("events", "timestamp", lambda v: [2000, 1000]),
                 "events.timestamp", id="decreasing"),
    pytest.param(_column("nodes", "id", lambda v: [0, 0]), "nodes.id", id="repeated-id"),
    pytest.param(_column("nodes", "id", lambda v: [1, 0]), "nodes.id", id="unordered-ids"),
    pytest.param(_top("version", "2"), "version", id="text-version"),
]


@pytest.mark.parametrize("edit, field", MALFORMED_V2)
def test_version_2_load_names_the_file_and_the_field(tmp_path, edit, field):
    doc = v2_doc(tmp_path)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert str(path) in str(err.value) and field in str(err.value), str(err.value)


def test_version_2_document_layout(tmp_path):
    """Columns are base64 of little-endian int64 ids, endpoints and
    timestamps and of one-byte codes; labels and the interval are plain
    JSON."""
    doc = v2_doc(tmp_path)
    assert doc["version"] == 2
    assert doc["nodes"]["label"] == ["sh", "/x"]
    assert doc["attack_interval"] == [2000, 2000]
    assert base64.b64decode(doc["nodes"]["id"]) == bytes(8) + b"\x01" + bytes(7)
    assert base64.b64decode(doc["events"]["relation"]) == b"\x03\x00"
    decoded = {key: np.frombuffer(base64.b64decode(doc[key[0]][key[1]]), dtype).tolist()
               for key, dtype in _DTYPES.items()}
    assert decoded == {
        ("nodes", "id"): [0, 1], ("nodes", "kind"): [0, 1],
        ("events", "src"): [0, 0], ("events", "dst"): [1, 1],
        ("events", "timestamp"): [1000, 2000], ("events", "relation"): [3, 0],
        ("events", "label"): [0, 1],
    }


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


# node ids at both ends of int64, added out of order, and ids between them
_SPARSE_IDS = [2**63 - 1, 5, -2**63, 40, -7]


def _sparse_graph(ids=_SPARSE_IDS) -> TemporalGraph:
    g = _appended([(nid, NodeKind.FILE, f"n{nid}") for nid in ids], [])
    g.append_event(Event(min(ids), max(ids), Relation.READ, 1))
    g.append_event(Event(5, min(ids), Relation.WRITE, 2))
    return g


def test_lookup_finds_every_id_through_int64_min_and_max():
    g = _sparse_graph()
    assert list(g.nodes) == sorted(_SPARSE_IDS) and len(g.nodes) == 5
    for nid in _SPARSE_IDS:
        assert nid in g.nodes and np.int64(nid) in g.nodes
        assert g.nodes[np.int64(nid)] == NodeDescriptor(nid, NodeKind.FILE, f"n{nid}")
    assert g.incident(-2**63) == [0, 1] and g.incident(2**63 - 1) == [0]
    assert g.incident(5) == [1] and g.incident(40) == g.incident(-7) == []


@pytest.mark.parametrize("ids", [_SPARSE_IDS, [40, -7, 5]], ids=["int64-ends", "inner"])
@pytest.mark.parametrize("key", [
    1.5, 5.0, np.float64(5.0), "5", None, (5,),  # not integers
    -8, 0, 6, 39, 41,                             # below, between, above
    2**63, -2**63 - 1, 2**70,                     # past int64
])
def test_a_key_that_is_no_node_id_is_absent(ids, key):
    """Ids that fall between, below or above the stored ids are absent,
    and so is a key that is not an int64 integer, even where an int64
    cast would hit a node (5.0 -> 5)."""
    g = _sparse_graph(ids)
    assert key not in g.nodes
    with pytest.raises(KeyError):
        g.nodes[key]
    with pytest.raises(KeyError):
        g.incident(key)
    with pytest.raises(UnknownNodeError, match="src"):
        g.append_event(Event(key, 5, Relation.READ, 3))
    with pytest.raises(UnknownNodeError, match="dst"):
        g.append_event(Event(5, key, Relation.READ, 3))
    assert len(g) == 2


@pytest.mark.parametrize("node_id, error", [
    (2**63, OverflowError), (-2**63 - 1, OverflowError), (2.0, TypeError),
])
def test_add_node_checks_the_id_before_it_moves_a_row(node_id, error):
    g = _sparse_graph()
    with pytest.raises(error):
        g.add_node(NodeDescriptor(node_id, NodeKind.FILE, "x"))
    _assert_same(g, _sparse_graph())


def test_appends_after_a_read_are_seen(tiny_graph):
    """A write drops the cached incidence index: after an append_event,
    and after an add_node that moves every node row and an event on the
    new node, extract_context, incident and score_stream's losses and
    contexts read what a fresh graph of the same columns gives. Reads
    with no write between them share one index, and a column read before
    a write keeps its length."""
    g, model = tiny_graph, TgnModel(ModelConfig(hops=2))

    def reads(graph):
        n = len(graph)
        scored = score_stream(model, LabeledDataset(graph, [TruthLabel.BENIGN] * n,
                                                    (0, 0)))
        assert scored._stream.inc is graph._incidences()
        return ([extract_context(graph, i, hops=2).neighborhood for i in range(n)],
                [graph.incident(v) for v in graph.nodes], scored.losses.tolist(),
                [{v: at for v, (_, at) in c.node_states.items()} for c in scored])

    def fresh(graph):
        return TemporalGraph.from_columns(graph.node_ids, graph.node_kinds,
                                          graph.node_labels, graph.src, graph.dst,
                                          graph.rel, graph.ts)

    ts = g.ts
    assert g.incident(3) == [0, 1, 4]
    reads(g)
    assert g._incidences() is g._incidences()
    g.append_event(Event(2, 3, Relation.READ, g.span()[1]))
    assert g.incident(3) == [0, 1, 4, 7]
    assert len(ts) == 7 and len(g.ts) == 8
    assert reads(g) == reads(fresh(g))
    g.add_node(NodeDescriptor(-1, NodeKind.SOCKET, "s"))
    assert reads(g) == reads(fresh(g))
    g.append_event(Event(-1, 3, Relation.SEND, g.span()[1]))
    assert g.incident(-1) == [8] and g.incident(3) == [0, 1, 4, 7, 8]
    assert reads(g) == reads(fresh(g))


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


@pytest.mark.parametrize("columns, message", [
    (([7, 7], [0, 0], ["p", "p"], [], [], [], []), "distinct"),
    (([7], [0], [""], [], [], [], []), "non-empty"),
    (([7, -3], [0, 1], ["p", "f"], [7], [2**41], [0], [1]), "endpoint"),
    (([], [], [], [7], [7], [0], [1]), "endpoint"),
    (([7, -3], [0, 1], ["p", "f"], [7, -3], [-3, 7], [0, 0], [2, 1]), "non-decreasing"),
], ids=["repeated-id", "empty-label", "unknown-endpoint", "no-nodes", "decreasing"])
def test_from_columns_rejects_what_append_event_would(columns, message):
    """The bulk path raises ValueError where the one-record paths would
    raise or, for a repeated node, where they would have to compare."""
    with pytest.raises(ValueError, match=message):
        TemporalGraph.from_columns(*columns)


def test_window_bounds_past_int64(tiny_graph):
    """Window bounds are Python numbers, not int64: a window longer than
    the int64 range (a valid, if huge, window_minutes) still slices."""
    n = len(tiny_graph)
    assert tiny_graph.window_bounds(0, 2**70) == (0, n)
    assert tiny_graph.window_bounds(-2**70, 2.5e9) == (0, 2)
    assert tiny_graph.count_before(float("inf")) == n
    assert tiny_graph.count_before(-float("inf")) == 0
