"""Evaluation harness: ablation replays, fidelity summaries, runtime."""

import time
import tracemalloc

import numpy as np
import pytest

from provlens.gnnexplainer import FidelityMetrics
from provlens.graph import Relation, TruthLabel
from provlens.graphmask import CanonicalEdge
from provlens.harness import (
    ABLATION_COLUMNS,
    AblationResult,
    ablate_edge,
    ablation_csv,
    baseline_row,
    fidelity_summary,
    format_edge,
    measure_runtime,
    remove_edge,
)
from provlens.model import score_stream

from conftest import random_contexts


def _attack_edge(dataset, attack_indexes, step):
    e = dataset.graph.events[attack_indexes[step]]
    return CanonicalEdge(e.src, e.dst, e.relation)


def test_remove_edge_drops_all_occurrences(dataset, attack_indexes):
    edge = _attack_edge(dataset, attack_indexes, 1)  # the attack READ
    occurrences = sum(
        1
        for e in dataset.graph.events
        if (e.src, e.dst, e.relation) == (edge.src, edge.dst, edge.relation)
    )
    assert occurrences >= 1
    ablated = remove_edge(dataset, edge)
    assert len(ablated.graph) == len(dataset.graph) - occurrences
    assert not any(
        (e.src, e.dst, e.relation) == (edge.src, edge.dst, edge.relation)
        for e in ablated.graph.events
    )
    # labels stay aligned with the surviving events
    assert len(ablated.labels) == len(ablated.graph)
    assert ablated.attack_interval == dataset.attack_interval


def test_remove_edge_rejects_absent_edge(dataset):
    with pytest.raises(ValueError):
        remove_edge(dataset, CanonicalEdge(0, 0, Relation.CLONE))


def test_ablate_edge_preserves_model_memory(model, dataset, stats, attack_alert,
                                            attack_indexes):
    """Ablation replays through the model without changing it."""
    keys = set(vars(model))
    arrays = {k: v.copy() for k, v in vars(model).items()
              if isinstance(v, np.ndarray)}
    ablate_edge(model, dataset, stats, attack_alert,
                _attack_edge(dataset, attack_indexes, 0))
    assert set(vars(model)) == keys
    for k, v in arrays.items():
        np.testing.assert_array_equal(getattr(model, k), v)


def test_ablate_attack_execute_collapses_alert(model, dataset, stats,
                                               attack_alert, attack_indexes):
    res = ablate_edge(model, dataset, stats, attack_alert,
                      _attack_edge(dataset, attack_indexes, 0),
                      graphmask_score=0.9)
    assert res.delta_anomaly_pct <= -40.0
    assert res.alert_still_raised is False
    assert res.graphmask_score == 0.9
    assert "EXECUTE" in res.removed_edge


def test_ablation_delta_matches_manual_replay(model, dataset, stats,
                                              attack_alert, attack_indexes):
    """Oracle: recompute the flagged-loss delta with a from-scratch replay
    of the ablated stream."""
    edge = _attack_edge(dataset, attack_indexes, 3)  # the attack SEND
    res = ablate_edge(model, dataset, stats, attack_alert, edge)

    before = sum(w.flagged_loss for w in attack_alert.windows)
    ablated = remove_edge(dataset, edge)
    ctxs = score_stream(model, ablated)
    after = 0.0
    for w in attack_alert.windows:
        t0, t1 = w.window
        for i in range(*ablated.graph.window_bounds(t0, t1)):
            if ctxs[i].loss > stats.threshold:
                after += ctxs[i].loss
    expected = 100.0 * (after - before) / before
    assert res.delta_anomaly_pct == pytest.approx(expected, abs=1e-9)


def test_ablation_that_moves_the_first_event_keeps_the_window_grid(
        model, dataset, stats, attack_alert):
    """Removing the stream's first edge moves the ablated stream's first
    event; its windows must still be the original grid, so the delta is
    over the alert's own windows and not -100% by a missed match."""
    first = dataset.graph.events[0]
    edge = CanonicalEdge(first.src, first.dst, first.relation)
    ablated = remove_edge(dataset, edge)
    assert ablated.graph.span()[0] > dataset.graph.span()[0]
    res = ablate_edge(model, dataset, stats, attack_alert, edge)

    losses = score_stream(model, ablated).losses
    before = sum(w.flagged_loss for w in attack_alert.windows)
    after = sum(losses[i] for w in attack_alert.windows
                for i in range(*ablated.graph.window_bounds(*w.window))
                if losses[i] > stats.threshold)
    assert after > 0
    expected = 100.0 * (after - before) / before
    assert res.delta_anomaly_pct == pytest.approx(expected, abs=1e-9)


def test_baseline_row():
    row = baseline_row()
    assert row.removed_edge == "NONE"
    assert row.graphmask_score == 0.0
    assert row.delta_anomaly_pct == 0.0
    assert row.alert_still_raised is True


def test_ablation_csv_layout():
    rows = [baseline_row(),
            AblationResult("sh EXECUTE bash", 0.75, -52.5, False)]
    text = ablation_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(ABLATION_COLUMNS)
    assert lines[1] == "NONE,0.000000,0.00,true"
    assert lines[2] == "sh EXECUTE bash,0.750000,-52.50,false"


def test_format_edge_uses_labels(dataset, attack_indexes):
    edge = _attack_edge(dataset, attack_indexes, 1)
    text = format_edge(dataset, edge)
    assert "READ" in text
    assert "/etc/passwd" in text


def test_fidelity_summary_means():
    s = fidelity_summary([FidelityMetrics(0.9, 0.1)])
    assert (s.mean_comprehensiveness, s.mean_sufficiency, s.count) == (0.9, 0.1, 1)
    s2 = fidelity_summary([FidelityMetrics(0.8, 0.2), FidelityMetrics(0.6, 0.0)])
    assert s2.mean_comprehensiveness == pytest.approx(0.7)
    assert s2.mean_sufficiency == pytest.approx(0.1)
    assert s2.count == 2


def test_fidelity_summary_rejects_empty():
    with pytest.raises(ValueError):
        fidelity_summary([])


def test_measure_runtime(contexts):
    sample = random_contexts(contexts, np.random.default_rng(1), 6)
    calls = []

    def fake_explain(ctx):
        calls.append((ctx.target_index, tracemalloc.is_tracing()))
        time.sleep(0.001)

    row = measure_runtime("fake", fake_explain, sample)
    assert row.method == "fake"
    # one warm-up, a timed pass with tracing off, then a traced pass
    order = [c.target_index for c in sample]
    assert [i for i, _ in calls] == order[:1] + order + order
    assert [t for _, t in calls] == [False] * (len(sample) + 1) + [True] * len(sample)
    assert row.median_seconds_per_event >= 0.001
    assert row.peak_bytes >= 0


def _allocating_explain(nbytes):
    def explain(ctx):
        bytearray(nbytes)
    return explain


def test_measure_runtime_stops_only_the_session_it_started(contexts):
    sample = random_contexts(contexts, np.random.default_rng(1), 5)
    assert not tracemalloc.is_tracing()
    row = measure_runtime("fake", _allocating_explain(1_000_000), sample)
    assert not tracemalloc.is_tracing()
    assert 1_000_000 <= row.peak_bytes < 1_500_000


def test_measure_runtime_under_an_outer_session(contexts):
    """A caller that traces keeps its session, and neither what it freed
    before the call (its old peak) nor what it still holds counts."""
    sample = random_contexts(contexts, np.random.default_rng(1), 5)
    tracemalloc.start()
    try:
        bytearray(50_000_000)       # the caller's freed peak
        held = bytearray(5_000_000)  # the caller's live memory
        row = measure_runtime("fake", _allocating_explain(1_000_000), sample)
        assert tracemalloc.is_tracing()
        assert 1_000_000 <= row.peak_bytes < 1_500_000
        current, _ = tracemalloc.get_traced_memory()
        assert current >= len(held)
    finally:
        tracemalloc.stop()


def test_measure_runtime_needs_five_contexts(contexts):
    with pytest.raises(ValueError):
        measure_runtime("fake", lambda c: None, contexts[:4])
