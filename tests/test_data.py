"""Scenario generation, the plain-text log format, and dataset IO."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from provlens.data import (
    DatasetFormatError,
    LabeledDataset,
    ParseError,
    default_scenario,
    generate_scenario,
    load_dataset,
    parse_log,
    render_log,
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


def test_generation_is_deterministic():
    a = generate_scenario(default_scenario(seed=7))
    b = generate_scenario(default_scenario(seed=7))
    assert a == b


def test_seed_jitters_flat_mix_templates():
    # the default scenario is fully scripted; the seed only jitters
    # flat-mix (non-cycle, non-session) templates
    from provlens.data import BenignTemplate, ScenarioSpec

    tmpl = BenignTemplate(label="bg", mix={Relation.READ: 1}, rate_per_min=30.0)

    def make(seed):
        return generate_scenario(
            ScenarioSpec(duration_s=120.0, benign_templates=(tmpl,),
                         attack_chain=(), seed=seed)
        )

    assert make(1) != make(2)
    assert make(1) == make(1)


def test_scenario_shape(dataset):
    g = dataset.graph
    assert len(g) == len(dataset.labels)
    assert len(g) > 1000
    kinds = {n.kind for n in g.nodes.values()}
    assert kinds == {NodeKind.PROCESS, NodeKind.FILE, NodeKind.SOCKET}
    # timestamps non-decreasing by construction; spot-check anyway
    ts = [e.timestamp for e in g.events]
    assert ts == sorted(ts)


def test_attack_chain_labels(dataset, attack_indexes):
    g = dataset.graph
    rels = [g.events[i].relation for i in attack_indexes]
    assert rels == [Relation.EXECUTE, Relation.READ, Relation.WRITE, Relation.SEND]
    t0, t1 = dataset.attack_interval
    assert t0 == g.events[attack_indexes[0]].timestamp
    assert t1 == g.events[attack_indexes[-1]].timestamp
    for i, lbl in enumerate(dataset.labels):
        if i not in attack_indexes:
            assert lbl is TruthLabel.BENIGN


def test_attack_reads_sensitive_file(dataset, attack_indexes):
    g = dataset.graph
    read = g.events[attack_indexes[1]]
    assert g.nodes[read.dst].label == "/etc/passwd"
    send = g.events[attack_indexes[3]]
    assert g.nodes[send.dst].kind == NodeKind.SOCKET


def test_log_round_trip(dataset):
    text = render_log(dataset)
    parsed = parse_log(text.splitlines())
    assert render_log(parsed) == text
    assert len(parsed.graph) == len(dataset.graph)
    # labels are not carried by the text format
    assert all(l is TruthLabel.UNKNOWN for l in parsed.labels)


# log tokens: anything str.split() keeps in one piece
_token = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1, max_size=6,
)
_entity = st.tuples(st.sampled_from(list(NodeKind)), _token)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(_entity, st.sampled_from(list(Relation)), _entity,
              st.integers(0, 3)),
    max_size=25,
))
def test_log_round_trip_on_generated_graphs(records):
    """Nodes numbered in first-appearance order, as parse_log numbers
    them; equal timestamps keep their order."""
    graph = TemporalGraph()
    ids: dict = {}

    def node_id(key):
        if key not in ids:
            ids[key] = len(ids)
            graph.add_node(NodeDescriptor(ids[key], *key))
        return ids[key]

    t = 0
    for src, rel, dst, dt in records:
        t += dt
        graph.append_event(Event(node_id(src), node_id(dst), rel, t))
    ds = LabeledDataset(graph, [TruthLabel.UNKNOWN] * len(graph), (0, 0))
    assert parse_log(render_log(ds).splitlines()) == ds


def test_parse_log_sorts_and_dedups_nodes():
    lines = [
        "PROCESS sh READ FILE /x 2000",
        "PROCESS sh OPEN FILE /x 1000",
    ]
    ds = parse_log(lines)
    assert [e.relation for e in ds.graph.events] == [Relation.OPEN, Relation.READ]
    assert len(ds.graph.nodes) == 2


@pytest.mark.parametrize(
    "line",
    [
        "PROCESS sh READ FILE /x",                 # missing field
        "GADGET sh READ FILE /x 1000",             # bad kind
        "PROCESS sh FROBNICATE FILE /x 1000",      # bad relation
        "PROCESS sh READ FILE /x notatime",        # bad timestamp
    ],
)
def test_parse_log_rejects_malformed(line):
    with pytest.raises(ParseError):
        parse_log([line])


def test_parse_log_skips_blank_lines():
    ds = parse_log(["", "PROCESS sh READ FILE /x 1000", "   "])
    assert len(ds.graph) == 1


def test_dataset_save_load_round_trip(dataset, tmp_path):
    p = tmp_path / "ds.json"
    save_dataset(dataset, p)
    loaded = load_dataset(p)
    assert loaded == dataset


def test_load_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DatasetFormatError):
        load_dataset(bad)


def _tiny_doc():
    return {
        "version": 1,
        "nodes": [{"id": 0, "kind": "PROCESS", "label": "sh"},
                  {"id": 1, "kind": "FILE", "label": "/x"}],
        "events": [[0, 1, "OPEN", 1000], [0, 1, "READ", 2000]],
        "labels": ["BENIGN", "BENIGN"],
        "attack_interval": [0, 0],
    }


@pytest.mark.parametrize("edit", [
    lambda d: [1, 2],
    lambda d: {**d, "labels": d["labels"][:1]},
    lambda d: {**d, "labels": d["labels"] + ["BENIGN"]},
    lambda d: {**d, "nodes": [{"id": "0", "kind": "PROCESS", "label": "sh"}]},
    lambda d: {**d, "events": [[0, 1, "OPEN", 1000.5]]},
    lambda d: {**d, "attack_interval": "ab"},
    lambda d: {k: v for k, v in d.items() if k != "events"},
], ids=["not-object", "labels-short", "labels-long", "string-id", "float-time",
        "string-interval", "no-events"])
def test_load_dataset_rejects_malformed_documents(tmp_path, edit):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(_tiny_doc())))
    with pytest.raises(DatasetFormatError):
        load_dataset(bad)


def test_load_dataset_reads_tiny_document(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(_tiny_doc()))
    ds = load_dataset(p)
    assert len(ds.graph) == 2 and ds.attack_interval == (0, 0)


def test_attack_offsets_must_increase():
    spec = default_scenario(seed=7)
    with pytest.raises(ValueError):
        type(spec)(
            duration_s=spec.duration_s,
            benign_templates=spec.benign_templates,
            attack_chain=tuple(reversed(spec.attack_chain)),
            seed=spec.seed,
        )
