"""Pipeline orchestration: selection, memory budget, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from provlens.detect import Alert, WindowStats, WindowVerdict
from provlens.gnnexplainer import GnnExplainerConfig
from provlens.graph import Event, Relation
from provlens.graphmask import GraphMaskConfig
from provlens.pipeline import (
    MEMORY_BUDGET_ENV,
    PipelineConfig,
    ResourceError,
    derived_seed,
    ensure_memory,
    estimate_need,
    run_pipeline,
    select_high_loss,
)
from provlens.report import emit_json
from provlens.vatg import VatgConfig

from test_model import _tiny_model


def quick_config(**kw):
    """A cheap pipeline config for orchestration tests; acceptance tests
    exercise the defaults."""
    base = dict(
        top_k_events=5,
        top_m_nodes=3,
        graphmask=GraphMaskConfig(epochs=10),
        gnn=GnnExplainerConfig(epochs=10),
        vatg=VatgConfig(epochs=5, mc_samples=2),
    )
    base.update(kw)
    return PipelineConfig(**base)


def report_bytes(report, dataset):
    docs = [emit_json(w, dataset.graph.nodes) for w in report.windows]
    return json.dumps({"windows": docs, "warnings": report.warnings},
                      sort_keys=True).encode()


def test_select_high_loss_orders_and_breaks_ties():
    events = [
        Event(0, 1, Relation.READ, 30),
        Event(0, 1, Relation.READ, 10),
        Event(0, 1, Relation.READ, 20),
        Event(0, 1, Relation.READ, 20),
    ]
    losses = [1.0, 3.0, 2.0, 2.0]
    assert select_high_loss(events, losses, 3) == [1, 2, 3]
    assert select_high_loss(events, losses, 10) == [1, 2, 3, 0]
    with pytest.raises(ValueError):
        select_high_loss(events, losses[:2], 3)


def test_ensure_memory_decisions():
    assert ensure_memory(100, 80) == ("proceed", [])
    decision, warnings = ensure_memory(100, 150)
    assert decision == "degrade"
    assert warnings and "disabling parallel windows" in warnings[0]
    with pytest.raises(ResourceError):
        ensure_memory(100, 500)


def test_derived_seed_is_pure_and_distinct():
    assert derived_seed(0, 1, 2) == derived_seed(0, 1, 2)
    seeds = {derived_seed(b, w, e)
             for b in range(3) for w in range(3) for e in range(3)}
    assert len(seeds) == 27


def test_run_pipeline_rejects_empty_alert(model, dataset, stats, attack_alert):
    empty = type(attack_alert)(
        windows=[], t_start=0, t_end=0, queue_score=0.0, entities=set(),
        raised=False,
    )
    with pytest.raises(ValueError):
        run_pipeline(model, dataset, empty, stats)


def test_run_pipeline_report_shape(model, dataset, stats, attack_alert,
                                   contexts):
    report = run_pipeline(model, dataset, attack_alert, stats, quick_config(),
                          contexts=contexts)
    assert len(report.windows) == len(attack_alert.windows)
    for w, verdict in zip(report.windows, attack_alert.windows):
        assert w.window == verdict.window
        assert w.num_events == verdict.event_count
        assert w.threshold == stats.threshold
        # node blocks sorted by descending score
        scores = [n["score"] for n in w.nodes]
        assert scores == sorted(scores, reverse=True)
        assert len(w.nodes) <= 3
    # the emitted documents validate against the shipped schema
    report_bytes(report, dataset)


def model_state(model):
    """The model's attribute names and a copy of every array it holds."""
    return {k: v.copy() for k, v in vars(model).items()
            if isinstance(v, np.ndarray)}, set(vars(model))


def assert_model_unchanged(model, before):
    arrays, keys = before
    assert set(vars(model)) == keys
    for k, v in arrays.items():
        np.testing.assert_array_equal(getattr(model, k), v)


def test_run_pipeline_leaves_model_memory_untouched(model, dataset, stats,
                                                    attack_alert):
    before = model_state(model)
    stats_before = model.stats
    run_pipeline(model, dataset, attack_alert, stats, quick_config())
    assert_model_unchanged(model, before)
    assert model.stats == stats_before


def test_node_scores_follow_context_losses(model, dataset, stats, attack_alert,
                                           contexts):
    """The pipeline flags and scores with the losses the contexts carry,
    so an edited loss moves the report's node scores with it."""
    verdict = attack_alert.windows[0]
    pos = next(i for i in verdict.event_indexes
               if contexts[i].loss <= stats.threshold)
    edited = list(contexts)
    edited[pos] = dataclasses.replace(contexts[pos],
                                      loss=stats.threshold + 100.0)
    report = run_pipeline(model, dataset, attack_alert, stats, quick_config(),
                          contexts=edited)
    expected: dict[int, float] = {}
    for i in verdict.event_indexes:
        if edited[i].loss > stats.threshold:
            e = edited[i].target
            for nid in {e.src, e.dst}:
                expected[nid] = expected.get(nid, 0.0) + edited[i].loss
    nodes = report.windows[0].nodes
    assert nodes[0]["node_id"] in (edited[pos].target.src, edited[pos].target.dst)
    for block in nodes:
        assert block["score"] == expected[block["node_id"]]


def test_run_pipeline_contexts_optional(model, dataset, stats, attack_alert,
                                        contexts):
    with_ctx = run_pipeline(model, dataset, attack_alert, stats,
                            quick_config(), contexts=contexts)
    without = run_pipeline(model, dataset, attack_alert, stats, quick_config())
    assert report_bytes(with_ctx, dataset) == report_bytes(without, dataset)


def test_degraded_run_warns_but_matches(model, dataset, stats, attack_alert,
                                        contexts):
    need = estimate_need(attack_alert, model.config.horizon,
                         model.config.memory_dim)
    normal = run_pipeline(model, dataset, attack_alert, stats,
                          quick_config(parallel_windows=2), contexts=contexts)
    degraded = run_pipeline(
        model, dataset, attack_alert, stats,
        quick_config(parallel_windows=2, memory_budget=need // 2),
        contexts=contexts,
    )
    assert degraded.warnings and "memory budget" in degraded.warnings[0]
    assert not normal.warnings
    a = json.dumps([emit_json(w, dataset.graph.nodes) for w in normal.windows],
                   sort_keys=True)
    b = json.dumps([emit_json(w, dataset.graph.nodes) for w in degraded.windows],
                   sort_keys=True)
    assert a == b


def test_window_parallelism_is_byte_identical(model, dataset, stats, verdicts,
                                              contexts):
    """An alert over every window of the stream, explained serially, on
    2 and 4 window workers, and degraded (which falls back to serial):
    the reports are byte-identical."""
    alert = Alert(
        windows=list(verdicts), t_start=verdicts[0].window[0],
        t_end=verdicts[-1].window[1],
        queue_score=sum(v.flagged_loss for v in verdicts),
        entities=set().union(*(v.suspicious_nodes for v in verdicts)), raised=True,
    )
    assert len(alert.windows) >= 4
    assert sum(bool(v.high_loss_events) for v in verdicts) >= 2

    def run(**kw):
        report = run_pipeline(model, dataset, alert, stats, quick_config(**kw),
                              contexts=contexts)
        docs = [emit_json(w, dataset.graph.nodes) for w in report.windows]
        return json.dumps(docs, sort_keys=True).encode(), report.warnings

    serial = run()
    assert serial[1] == []
    assert run(parallel_windows=2) == serial
    assert run(parallel_windows=4) == serial
    need = estimate_need(alert, model.config.horizon, model.config.memory_dim)
    degraded, warnings = run(parallel_windows=4, memory_budget=need // 2)
    assert degraded == serial[0] and "memory budget" in warnings[0]


def test_pipeline_over_budget_raises(model, dataset, stats, attack_alert):
    with pytest.raises(ResourceError):
        run_pipeline(model, dataset, attack_alert, stats,
                     quick_config(memory_budget=1))


def test_memory_budget_env_fallback(model, dataset, stats, attack_alert,
                                    monkeypatch):
    from provlens.pipeline import MEMORY_BUDGET_ENV

    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1")
    with pytest.raises(ResourceError):
        run_pipeline(model, dataset, attack_alert, stats, quick_config())


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(top_k_events=0)
    with pytest.raises(ValueError):
        PipelineConfig(top_m_nodes=0)


@pytest.mark.parametrize("workers", [0, -2])
def test_config_rejects_fewer_than_one_parallel_window(workers):
    with pytest.raises(ValueError, match="parallel_windows"):
        PipelineConfig(parallel_windows=workers)


def test_negative_memory_budget_is_rejected(model, dataset, stats, attack_alert,
                                            monkeypatch):
    """A negative budget is bad input, from the config or the environment;
    a budget of 0 is a valid one that nothing fits in."""
    with pytest.raises(ValueError, match="memory_budget"):
        PipelineConfig(memory_budget=-5)
    with pytest.raises(ResourceError):
        run_pipeline(model, dataset, attack_alert, stats,
                     quick_config(memory_budget=0))
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "-5")
    with pytest.raises(ValueError, match=MEMORY_BUDGET_ENV):
        run_pipeline(model, dataset, attack_alert, stats, quick_config())


def test_vatg_seed_sets_the_pipeline_noise(model, dataset, stats, attack_alert,
                                           contexts):
    """vatg.seed is the base of every per-event VA-TG seed: changing it
    changes the VA-TG output and nothing else."""
    def run(seed):
        config = quick_config(vatg=VatgConfig(epochs=5, mc_samples=2, seed=seed))
        windows = run_pipeline(model, dataset, attack_alert, stats, config,
                               contexts=contexts).windows
        return ([(w.graphmask_aggregate, [(n["node_id"], n["gnn"]) for n in w.nodes])
                 for w in windows],
                [[n["va_tg"] for n in w.nodes] for w in windows])

    default, reseeded = run(0), run(3)
    assert reseeded[0] == default[0]
    assert reseeded[1] != default[1]
    assert "seed" not in {f.name for f in dataclasses.fields(PipelineConfig)}


def test_window_reports_carry_the_alert_entities(model, dataset, stats,
                                                 attack_alert, contexts):
    report = run_pipeline(model, dataset, attack_alert, stats, quick_config(),
                          contexts=contexts)
    for w in report.windows:
        assert w.entities == sorted(attack_alert.entities)
        assert emit_json(w, dataset.graph.nodes)["entities"] == w.entities


def test_skipped_event_is_recorded_once_per_window(tiny_graph):
    """A flagged event with an empty neighborhood and two distinct
    endpoints is skipped by GraphMask and by both of its top nodes, and
    is recorded once."""
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[0]
    assert not ctx.neighborhood_events and ctx.target.src != ctx.target.dst
    flagged = dataclasses.replace(ctx, loss=5.0)
    t = ctx.target.timestamp
    verdict = WindowVerdict(
        window=(t, t + 1), event_count=1, event_indexes=[0],
        high_loss_events=[0], node_scores={}, suspicious_nodes=set(),
        flagged_loss=5.0, anomalous=True,
    )
    alert = Alert(windows=[verdict], t_start=t, t_end=t + 1, queue_score=5.0,
                  entities={ctx.target.src, ctx.target.dst}, raised=True)
    report = run_pipeline(model, None, alert, WindowStats(0.0, 1.0, 1.0),
                          quick_config(), contexts=[flagged])
    (window,) = report.windows
    assert [n["node_id"] for n in window.nodes] == sorted(alert.entities)
    assert window.skipped == [{"event_index": 0, "reason": "no-neighborhood"}]
