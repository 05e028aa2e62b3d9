"""Shared fixtures: the default scenario, a trained model, and the
detector products, built once per session."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from provlens import (
    DetectorConfig,
    ModelConfig,
    TemporalGraph,
    compute_threshold,
    default_scenario,
    generate_scenario,
    link_queues,
    score_all_windows,
    score_stream,
    train,
)
from provlens.detect import WindowStats
from provlens.graph import Event, NodeDescriptor, NodeKind, Relation, TruthLabel

NS = 1_000_000_000


@pytest.fixture(scope="session")
def dataset():
    return generate_scenario(default_scenario(seed=7))


@pytest.fixture(scope="session")
def model(dataset):
    return train(dataset, ModelConfig())


@pytest.fixture(scope="session")
def contexts(model, dataset):
    return score_stream(model, dataset)


@pytest.fixture(scope="session")
def stats(model) -> WindowStats:
    return WindowStats.from_benign(model.stats.mu, model.stats.sigma)


@pytest.fixture(scope="session")
def verdicts(dataset, contexts, stats):
    return score_all_windows(dataset.graph, contexts, stats, DetectorConfig())


@pytest.fixture(scope="session")
def alerts(verdicts, stats):
    return link_queues(verdicts, stats, DetectorConfig())


@pytest.fixture(scope="session")
def attack_alert(alerts, dataset):
    """The raised alert overlapping the injected attack interval."""
    t0, t1 = dataset.attack_interval
    matching = [
        a
        for a in alerts
        if a.raised and not (a.t_end < t0 or a.t_start > t1)
    ]
    assert matching, "scenario must produce an alert over the attack"
    return matching[0]


@pytest.fixture(scope="session")
def attack_indexes(dataset):
    return [
        i
        for i, lbl in enumerate(dataset.labels)
        if lbl is TruthLabel.MALICIOUS
    ]


def v1_document(ds) -> dict:
    """The dataset file of format version 1 that ``save_dataset`` wrote
    before version 2, as a JSON-ready dict: a dict per node (in id order)
    and a list per event, enum fields by value. The reference for
    version-1 reads."""
    g = ds.graph
    return {
        "version": 1,
        "nodes": [
            {"id": nid, "kind": list(NodeKind)[kind].value, "label": label}
            for nid, kind, label in zip(g.node_ids.tolist(), g.node_kinds.tolist(),
                                        g.node_labels)
        ],
        "events": [[e.src, e.dst, e.relation.value, e.timestamp] for e in g.events],
        "labels": [lab.value for lab in ds.labels],
        "attack_interval": list(ds.attack_interval),
    }


def save_v1_dataset(ds, path) -> None:
    """Write ``v1_document(ds)`` as the version-1 writer did."""
    Path(path).write_text(json.dumps(v1_document(ds), separators=(",", ":")) + "\n")


def build_graph(spec):
    """Small-graph helper: spec is (nodes, events) where nodes is a list
    of (node_id, kind, label) and events a list of
    (src, dst, relation, t_seconds)."""
    nodes, events = spec
    g = TemporalGraph()
    for nid, kind, label in nodes:
        g.add_node(NodeDescriptor(nid, kind, label))
    for src, dst, rel, t in events:
        g.append_event(Event(src, dst, rel, int(t * NS)))
    return g


@pytest.fixture()
def tiny_graph():
    """Three processes and two files with a short, varied history."""
    return build_graph(
        (
            [
                (0, NodeKind.PROCESS, "p0"),
                (1, NodeKind.PROCESS, "p1"),
                (2, NodeKind.PROCESS, "p2"),
                (3, NodeKind.FILE, "f0"),
                (4, NodeKind.FILE, "f1"),
            ],
            [
                (0, 3, Relation.OPEN, 1.0),
                (0, 3, Relation.READ, 2.0),
                (1, 4, Relation.OPEN, 3.0),
                (0, 1, Relation.EXECUTE, 4.0),
                (1, 3, Relation.READ, 5.0),
                (2, 4, Relation.WRITE, 6.0),
                (1, 4, Relation.SEND, 7.0),
            ],
        )
    )


def random_contexts(contexts, rng, count, max_edges=None, min_edges=1):
    """Deterministic sample of scored contexts with bounded neighborhoods."""
    eligible = [
        c
        for c in contexts
        if min_edges <= len(c.neighborhood_events)
        and (max_edges is None or len(c.neighborhood_events) <= max_edges)
    ]
    picks = rng.choice(len(eligible), size=count, replace=False)
    return [eligible[i] for i in sorted(picks)]
