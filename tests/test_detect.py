"""Windowed detection, alert queues, and subgraph reconstruction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from provlens.detect import (
    Alert,
    DetectorConfig,
    WindowStats,
    WindowVerdict,
    compute_threshold,
    link_queues,
    reconstruct_subgraph,
    score_window,
    _node_scores,
)
from provlens.graph import TruthLabel

from conftest import NS


def _verdict(window, flagged, node_scores, flagged_loss, anomalous):
    return WindowVerdict(
        window=window,
        event_count=len(flagged),
        event_indexes=list(flagged),
        high_loss_events=list(flagged),
        node_scores=dict(node_scores),
        suspicious_nodes={n for n, s in node_scores.items() if s > 1.0},
        flagged_loss=flagged_loss,
        anomalous=anomalous,
    )


def test_compute_threshold_example():
    stats = compute_threshold([0.0, 2.0])
    assert stats.mu == 1.0
    assert stats.sigma == 1.0  # population std
    assert stats.threshold == 2.5


def test_compute_threshold_needs_two_points():
    with pytest.raises(ValueError):
        compute_threshold([1.0])


def test_threshold_matches_brute_force():
    """Oracle: mu + 1.5 * population sigma recomputed independently."""
    import statistics

    losses = [0.3, 0.9, 1.1, 2.4, 0.05]
    stats = compute_threshold(losses)
    mu = statistics.fmean(losses)
    sigma = statistics.pstdev(losses)
    assert stats.threshold == pytest.approx(mu + 1.5 * sigma, rel=1e-12)


def test_score_window_flags_strictly_above(tiny_graph):
    from provlens.graph import EventContext

    stats = WindowStats(mu=0.0, sigma=0.0, threshold=1.0)
    ctxs = []
    for i, ev in enumerate(tiny_graph.events):
        ctxs.append(EventContext(ev, i, [], [], loss=float(i)))
    v = score_window(tiny_graph, ctxs, (0, 10 * NS), stats)
    # losses 0..6; strictly above 1.0 means indexes 2..6
    assert v.high_loss_events == [2, 3, 4, 5, 6]
    assert v.flagged_loss == pytest.approx(sum(range(2, 7)))
    assert v.event_count == 7


def test_anomalous_needs_flag_and_suspicious_node(tiny_graph):
    from provlens.graph import EventContext

    # high threshold: nothing flagged, no suspicious nodes
    stats = WindowStats(mu=0.0, sigma=0.0, threshold=100.0)
    ctxs = [
        EventContext(ev, i, [], [], loss=0.5)
        for i, ev in enumerate(tiny_graph.events)
    ]
    v = score_window(tiny_graph, ctxs, (0, 10 * NS), stats)
    assert not v.anomalous and not v.high_loss_events

    # the loss budget is an OR-route to anomalous even with nothing flagged
    cfg = DetectorConfig(window_loss_budget=-1.0)
    v2 = score_window(tiny_graph, ctxs, (0, 10 * NS), stats, cfg)
    assert v2.high_loss_events == []
    assert v2.anomalous


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-7, 0, 3, 2**40]),
                          st.sampled_from([-7, 0, 3, 2**40]),
                          st.floats(0.0, 10.0, allow_subnormal=False)),
                max_size=30))
def test_node_scores_match_the_event_loop(events):
    """Oracle: the per-event loop, src then dst, a self-loop counted once;
    sums are bitwise equal and keys in first-appearance order."""
    expected: dict[int, float] = {}
    for src, dst, loss in events:
        expected[src] = expected.get(src, 0.0) + loss
        if dst != src:
            expected[dst] = expected.get(dst, 0.0) + loss
    src, dst, losses = (list(col) for col in zip(*events)) if events else ([], [], [])
    got = _node_scores(np.array(src, np.int64), np.array(dst, np.int64), losses)
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("field", [
    "window_minutes", "window_loss_budget", "alert_threshold_factor",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_detector_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        DetectorConfig(**{field: value})


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(window_minutes=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(window_minutes=-15.0)
    assert DetectorConfig(window_loss_budget=None).window_loss_budget is None


def test_detector_config_derives_window_ns():
    assert DetectorConfig().window_ns == 15 * 60 * NS
    assert DetectorConfig(window_minutes=1 / 60e9).window_ns == 1
    assert dataclasses.replace(DetectorConfig(), window_minutes=1.0).window_ns == 60 * NS


@pytest.mark.parametrize("minutes", [1e-12, 1.5e-11, 1e300])
def test_detector_config_rejects_sub_ns_and_overflowing_windows(minutes):
    """A window under 1 ns truncates to 0 ns and never advances; a huge
    one overflows to an infinite length."""
    with pytest.raises(ValueError, match="window_minutes"):
        DetectorConfig(window_minutes=minutes)


def test_link_queues_merges_runs_sharing_nodes():
    stats = WindowStats(mu=0.0, sigma=0.0, threshold=1.0)
    w = 15 * 60 * NS
    v1 = _verdict((0, w), [0], {7: 2.0}, 1.2, True)
    v2 = _verdict((w, 2 * w), [1], {7: 2.0, 8: 0.5}, 1.5, True)
    v3 = _verdict((2 * w, 3 * w), [], {}, 0.0, False)
    v4 = _verdict((3 * w, 4 * w), [2], {9: 3.0}, 0.4, True)
    alerts = link_queues([v1, v2, v3, v4], stats)
    assert len(alerts) == 2
    first, second = alerts
    assert first.t_start == 0 and first.t_end == 2 * w
    assert first.queue_score == pytest.approx(2.7)
    assert first.raised  # 2.7 >= 2.0 * 1.0
    assert first.entities == {7}  # node 8's score stays under threshold
    assert second.queue_score == pytest.approx(0.4)
    assert not second.raised


def test_link_queues_splits_disjoint_adjacent_windows():
    stats = WindowStats(mu=0.0, sigma=0.0, threshold=0.1)
    w = 15 * 60 * NS
    v1 = _verdict((0, w), [0], {1: 2.0}, 1.0, True)
    v2 = _verdict((w, 2 * w), [1], {2: 2.0}, 1.0, True)  # no shared node
    alerts = link_queues([v1, v2], stats)
    assert len(alerts) == 2


def test_default_scenario_alert(attack_alert, dataset):
    t0, t1 = dataset.attack_interval
    assert attack_alert.raised
    assert attack_alert.t_start <= t0 and t1 <= attack_alert.t_end


def test_reconstruct_subgraph_covers_attack(attack_alert, dataset, attack_indexes):
    sub = reconstruct_subgraph(attack_alert, dataset.graph)
    assert set(attack_indexes) <= set(sub.event_indexes)
    for i in attack_indexes:
        e = dataset.graph.events[i]
        assert e.src in sub.nodes and e.dst in sub.nodes
    # every included event touches an alerted entity
    for i in sub.event_indexes:
        e = dataset.graph.events[i]
        assert e.src in attack_alert.entities or e.dst in attack_alert.entities


def test_alert_json_serializable(attack_alert):
    import json

    doc = attack_alert.to_json()
    json.dumps(doc)
    assert doc["queue_score"] == attack_alert.queue_score
    assert doc["entities"] == sorted(attack_alert.entities)


def test_benign_windows_mostly_quiet(verdicts, dataset):
    """Away from the attack (and the cold-start head of the stream) the
    detector should not fire."""
    t0, _ = dataset.attack_interval
    quiet = [
        v
        for v in verdicts
        if v.window[1] <= t0 and v.window[0] > dataset.graph.span()[0]
    ]
    assert quiet, "expected interior benign windows"
    assert sum(v.anomalous for v in quiet) == 0
