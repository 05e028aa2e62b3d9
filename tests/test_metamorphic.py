"""Metamorphic properties of training and detection: a change to the
input whose effect on the output is known, checked without an oracle.

A node-id bijection (one that keeps id order, and a random permutation)
and a shift of every timestamp that stays inside int64 (the attack
interval shifted with them) must leave the retrained head and every
``score_stream`` loss bitwise unchanged, and every ``score_all_windows``
verdict and ``link_queues`` alert unchanged up to the id map, with the
window and alert bounds shifted by the time shift (the window grid
starts at the first event). A change to one benign event's truth label
must change no retrained head, loss, verdict or alert at all."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from provlens.data import LabeledDataset
from provlens.detect import DetectorConfig, WindowStats, link_queues, score_all_windows
from provlens.graph import NODE_KINDS, RELATIONS, TemporalGraph, TruthLabel
from provlens.model import ModelConfig, TgnModel, score_stream, train

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
    every timestamp and to the attack interval ((0, 0), no interval,
    stays); kinds, labels and event order are kept."""
    g = ds.graph
    graph = TemporalGraph.from_columns(
        [mapping[n] for n in g.node_ids.tolist()], g.node_kinds, g.node_labels,
        [mapping[n] for n in g.src.tolist()], [mapping[n] for n in g.dst.tolist()],
        g.rel, [t + shift for t in g.ts.tolist()])
    interval = ds.attack_interval
    if interval != (0, 0):
        interval = (interval[0] + shift, interval[1] + shift)
    return LabeledDataset(graph, ds.labels, interval)


def _detection(model, ds, stats, config):
    """The stream's losses, window verdicts and alerts."""
    contexts = score_stream(model, ds)
    verdicts = score_all_windows(ds.graph, contexts, stats, config)
    return contexts.losses, verdicts, link_queues(verdicts, stats, config)


def _assert_same_detection(before, after, mapping, shift):
    """Losses bitwise equal, verdicts and alerts equal up to the map and
    the shift."""
    (losses, verdicts, alerts), (moved_losses, moved_verdicts, moved_alerts) = before, after
    assert losses.tobytes() == moved_losses.tobytes()

    def moved_window(window):
        return window[0] + shift, window[1] + shift

    assert len(moved_verdicts) == len(verdicts)
    for u, v in zip(verdicts, moved_verdicts):
        assert v.window == moved_window(u.window)
        assert (v.event_count, v.high_loss_events) == (u.event_count, u.high_loss_events)
        assert list(v.node_scores.items()) == [(mapping[n], s)
                                               for n, s in u.node_scores.items()]
        assert v.suspicious_nodes == {mapping[n] for n in u.suspicious_nodes}
        assert (v.flagged_loss, v.anomalous) == (u.flagged_loss, u.anomalous)
    assert len(moved_alerts) == len(alerts)
    for a, b in zip(alerts, moved_alerts):
        assert (b.t_start, b.t_end) == moved_window((a.t_start, a.t_end))
        assert [w.window for w in b.windows] == [moved_window(w.window)
                                                 for w in a.windows]
        assert b.entities == {mapping[n] for n in a.entities}
        assert (b.queue_score, b.raised) == (a.queue_score, a.raised)


def _assert_invariant(model, ds, mapping, shift, stats, config):
    """Detection by one model on ds and on its moved copy agrees up to the
    map and the shift."""
    _assert_same_detection(_detection(model, ds, stats, config),
                           _detection(model, _mapped(ds, mapping, shift), stats, config),
                           mapping, shift)


def _assert_same_model(a, b):
    """Every parameter bitwise equal, and the training statistics."""
    for name in ("Wu", "bu", "Wn", "We", "be", "Wo", "bo"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert (a.config, a.stats) == (b.config, b.stats)


def _relabeled(ds: LabeledDataset, i: int, label: TruthLabel) -> LabeledDataset:
    """ds with event i's truth label replaced."""
    labels = list(ds.labels)
    labels[i] = label
    return LabeledDataset(ds.graph, labels, ds.attack_interval)


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


def _model_config(data, **fields):
    """A small model config of 1-3 hops and horizon 1-10."""
    return ModelConfig(hops=data.draw(st.integers(1, 3), label="hops"),
                       horizon=data.draw(st.integers(1, 10), label="horizon"),
                       seed=data.draw(st.integers(0, 3), label="seed"), **fields)


def _detector(data, losses):
    """Window stats whose threshold is one of the losses, and a detector
    config."""
    stats = WindowStats(0.0, 0.0, data.draw(st.sampled_from(losses.tolist()),
                                            label="threshold"))
    config = DetectorConfig(
        window_minutes=data.draw(st.sampled_from([1 / 240, 1 / 60, 0.05, 15.0]),
                                 label="window_minutes"),
        min_suspicious_nodes=data.draw(st.integers(0, 2), label="min_suspicious_nodes"),
        window_loss_budget=data.draw(st.sampled_from([None, stats.threshold]),
                                     label="window_loss_budget"),
        alert_threshold_factor=data.draw(st.sampled_from([0.0, 1.0, 2.0, 5.0]),
                                         label="alert_threshold_factor"),
    )
    return stats, config


@settings(max_examples=150, deadline=None)
@given(_datasets(), st.data())
def test_detection_is_invariant_under_id_maps_and_time_shifts(model, ds, data):
    """On the trained seed-7 model or an untrained one of any hop count
    and horizon."""
    if not data.draw(st.booleans(), label="trained"):
        model = TgnModel(_model_config(data))
    mapping, shift = data.draw(_changes(ds), label="change")
    stats, config = _detector(data, score_stream(model, ds).losses)
    _assert_invariant(model, ds, mapping, shift, stats, config)


@settings(max_examples=60, deadline=None)
@given(_datasets(), st.data())
def test_retrained_model_is_invariant_under_id_maps_and_time_shifts(ds, data):
    config = _model_config(data, epochs=data.draw(st.integers(1, 40), label="epochs"))
    mapping, shift = data.draw(_changes(ds), label="change")
    _assert_same_model(train(ds, config), train(_mapped(ds, mapping, shift), config))


@settings(max_examples=60, deadline=None)
@given(_datasets(), st.data())
def test_a_benign_truth_label_changes_no_model_loss_verdict_or_alert(ds, data):
    """Every event of these streams is benign; one is relabeled, the model
    retrained on it, and the stream detected with each model."""
    i = data.draw(st.integers(0, len(ds.labels) - 1), label="event")
    label = data.draw(st.sampled_from([TruthLabel.MALICIOUS, TruthLabel.UNKNOWN]),
                      label="label")
    relabeled = _relabeled(ds, i, label)
    config = _model_config(data, epochs=data.draw(st.integers(1, 40), label="epochs"))
    model, relabeled_model = train(ds, config), train(relabeled, config)
    _assert_same_model(model, relabeled_model)
    stats, detector = _detector(data, score_stream(model, ds).losses)
    identity = {n: n for n in ds.graph.node_ids.tolist()}
    _assert_same_detection(_detection(model, ds, stats, detector),
                           _detection(relabeled_model, relabeled, stats, detector),
                           identity, 0)


_SEED7_CHANGES = ["increasing", "permutation", "1 ns", "1 h", "to the int64 end"]


def _seed7_change(dataset, change):
    """(mapping, shift) of the named change to the seed-7 stream."""
    ids = dataset.graph.node_ids.tolist()
    mapping, shift = dict(zip(ids, ids)), 0
    if change == "increasing":
        mapping = {n: 3 * n - 2**40 for n in ids}
    elif change == "permutation":
        mapping = dict(zip(ids, np.random.default_rng(7).permutation(ids).tolist()))
    else:
        shift = {"1 ns": 1, "1 h": 3600 * NS,
                 "to the int64 end": _I64.max - int(dataset.graph.ts[-1])}[change]
    return mapping, shift


@pytest.mark.parametrize("change", _SEED7_CHANGES)
def test_seed7_detection_is_invariant(model, dataset, stats, change):
    mapping, shift = _seed7_change(dataset, change)
    _assert_invariant(model, dataset, mapping, shift, stats, DetectorConfig())


@pytest.mark.parametrize("change", _SEED7_CHANGES)
def test_seed7_retrained_model_is_invariant(model, dataset, change):
    mapping, shift = _seed7_change(dataset, change)
    _assert_same_model(model, train(_mapped(dataset, mapping, shift), ModelConfig()))


@pytest.mark.parametrize("event", ["first", "last"])
def test_seed7_benign_truth_label_changes_no_model_loss_verdict_or_alert(
        model, dataset, stats, event):
    """The first event fits the head; the last comes after the attack."""
    i = {"first": 0, "last": len(dataset.labels) - 1}[event]
    assert dataset.labels[i] is TruthLabel.BENIGN
    relabeled = _relabeled(dataset, i, TruthLabel.MALICIOUS)
    relabeled_model = train(relabeled, ModelConfig())
    _assert_same_model(model, relabeled_model)
    identity = {n: n for n in dataset.graph.node_ids.tolist()}
    config = DetectorConfig()
    before = _detection(model, dataset, stats, config)
    assert any(alert.raised for alert in before[2])
    _assert_same_detection(before, _detection(relabeled_model, relabeled, stats, config),
                           identity, 0)
