"""Metamorphic properties of detection: a change to the input whose
effect on the output is known, checked without an oracle.

A node-id bijection (one that keeps id order, and a random permutation)
and a shift of every timestamp that stays inside int64 must leave every
``score_stream`` loss bitwise unchanged, and every ``score_all_windows``
verdict unchanged up to the id map, with the window bounds shifted by
the time shift (the window grid starts at the first event)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from provlens.data import LabeledDataset
from provlens.detect import DetectorConfig, WindowStats, score_all_windows
from provlens.graph import NODE_KINDS, RELATIONS, TemporalGraph, TruthLabel
from provlens.model import ModelConfig, TgnModel, score_stream

from conftest import NS

_I64 = np.iinfo(np.int64)
QUARTER = NS // 4


@st.composite
def _datasets(draw):
    """A small stream: up to 7 nodes with sparse ids and 1 to 30 events.
    A pick that is a multiple of 3 is the hub (the first node), equal
    picks make self-loops and a step of 0 a timestamp tie."""
    ids = draw(st.lists(st.integers(-50, 2**40), min_size=1, max_size=7, unique=True))
    kinds = draw(st.lists(st.integers(0, len(NODE_KINDS) - 1), min_size=len(ids),
                          max_size=len(ids)))
    picks = draw(st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11),
                  st.integers(0, len(RELATIONS) - 1), st.integers(0, 3)),
        min_size=1, max_size=30,
    ))
    start = draw(st.integers(-2**50, 2**50))

    def node(pick):
        return ids[0] if pick % 3 == 0 else ids[pick % len(ids)]

    src, dst, rel, steps = zip(*picks)
    graph = TemporalGraph.from_columns(
        ids, kinds, [f"n{i}" for i in range(len(ids))],
        [node(p) for p in src], [node(p) for p in dst], rel,
        [start + QUARTER * t for t in np.cumsum(steps).tolist()])
    return LabeledDataset(graph, [TruthLabel.BENIGN] * len(graph), (0, 0))


def _mapped(ds: LabeledDataset, mapping: dict[int, int], shift: int) -> LabeledDataset:
    """ds with node ids renamed by ``mapping`` and ``shift`` added to
    every timestamp; kinds, labels and event order are kept."""
    g = ds.graph
    graph = TemporalGraph.from_columns(
        [mapping[n] for n in g.node_ids.tolist()], g.node_kinds, g.node_labels,
        [mapping[n] for n in g.src.tolist()], [mapping[n] for n in g.dst.tolist()],
        g.rel, [t + shift for t in g.ts.tolist()])
    return LabeledDataset(graph, ds.labels, ds.attack_interval)


def _assert_invariant(model, ds, mapping, shift, stats, config):
    """Losses bitwise equal, verdicts equal up to the map and the shift."""
    moved = _mapped(ds, mapping, shift)
    before, after = score_stream(model, ds), score_stream(model, moved)
    assert before.losses.tobytes() == after.losses.tobytes()
    verdicts = score_all_windows(ds.graph, before, stats, config)
    moved_verdicts = score_all_windows(moved.graph, after, stats, config)
    assert len(moved_verdicts) == len(verdicts)
    for u, v in zip(verdicts, moved_verdicts):
        assert v.window == (u.window[0] + shift, u.window[1] + shift)
        assert (v.event_count, v.high_loss_events) == (u.event_count, u.high_loss_events)
        assert list(v.node_scores.items()) == [(mapping[n], s)
                                               for n, s in u.node_scores.items()]
        assert v.suspicious_nodes == {mapping[n] for n in u.suspicious_nodes}
        assert (v.flagged_loss, v.anomalous) == (u.flagged_loss, u.anomalous)


@st.composite
def _changes(draw, ds):
    """(mapping, shift): an order-keeping id map, a random permutation of
    new ids, or the identity with a time shift that stays inside int64."""
    ids = ds.graph.node_ids.tolist()
    kind = draw(st.sampled_from(["increasing", "permutation", "shift"]))
    if kind == "shift":
        ts = ds.graph.ts
        shift = draw(st.integers(_I64.min - int(ts[0]), _I64.max - int(ts[-1])))
        return dict(zip(ids, ids)), shift
    new = draw(st.lists(st.integers(_I64.min, _I64.max), min_size=len(ids),
                        max_size=len(ids), unique=True))
    if kind == "increasing":
        new.sort()
    else:
        new = draw(st.permutations(new))
    return dict(zip(ids, new)), 0


@settings(max_examples=150, deadline=None)
@given(_datasets(), st.data())
def test_detection_is_invariant_under_id_maps_and_time_shifts(model, ds, data):
    """On the trained seed-7 model or an untrained one of any hop count
    and horizon."""
    if not data.draw(st.booleans(), label="trained"):
        model = TgnModel(ModelConfig(hops=data.draw(st.integers(1, 3), label="hops"),
                                     horizon=data.draw(st.integers(1, 10), label="horizon"),
                                     seed=data.draw(st.integers(0, 3), label="seed")))
    mapping, shift = data.draw(_changes(ds), label="change")
    losses = score_stream(model, ds).losses.tolist()
    stats = WindowStats(0.0, 0.0, data.draw(st.sampled_from(losses), label="threshold"))
    config = DetectorConfig(
        window_minutes=data.draw(st.sampled_from([1 / 240, 1 / 60, 0.05, 15.0]),
                                 label="window_minutes"),
        min_suspicious_nodes=data.draw(st.integers(0, 2), label="min_suspicious_nodes"),
        window_loss_budget=data.draw(st.sampled_from([None, stats.threshold]),
                                     label="window_loss_budget"),
    )
    _assert_invariant(model, ds, mapping, shift, stats, config)


@pytest.mark.parametrize("change", ["increasing", "permutation", "1 ns", "1 h",
                                    "to the int64 end"])
def test_seed7_detection_is_invariant(model, dataset, stats, change):
    ids = dataset.graph.node_ids.tolist()
    mapping, shift = dict(zip(ids, ids)), 0
    if change == "increasing":
        mapping = {n: 3 * n - 2**40 for n in ids}
    elif change == "permutation":
        mapping = dict(zip(ids, np.random.default_rng(7).permutation(ids).tolist()))
    else:
        shift = {"1 ns": 1, "1 h": 3600 * NS,
                 "to the int64 end": _I64.max - int(dataset.graph.ts[-1])}[change]
    _assert_invariant(model, dataset, mapping, shift, stats, DetectorConfig())
