"""Pipeline orchestration: selection, determinism."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from provlens.detect import (
    Alert,
    DetectorConfig,
    WindowStats,
    WindowVerdict,
    link_queues,
    score_all_windows,
)
from provlens.gnnexplainer import GnnExplainerConfig
from provlens.graph import Event, Relation
from provlens.graphmask import GraphMaskConfig
from provlens.model import _Stream, score_stream
from provlens.pipeline import (
    PipelineConfig,
    derived_seed,
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
    return json.dumps(docs, sort_keys=True).encode()


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


def test_a_verdicts_event_count_sets_no_limit(model, dataset, stats,
                                              attack_alert, contexts):
    """A window's event count is reported, not charged against a memory
    estimate: with every verdict claiming 10**8 events, the alert is
    explained as before, and only the reports' num_events differ."""
    claimed = dataclasses.replace(attack_alert, windows=[
        dataclasses.replace(v, event_count=10**8) for v in attack_alert.windows
    ])

    def documents(alert):
        report = run_pipeline(model, dataset, alert, stats, quick_config(),
                              contexts=contexts)
        docs = [emit_json(w, dataset.graph.nodes) for w in report.windows]
        counts = [doc.pop("num_events") for doc in docs]
        return json.dumps(docs, sort_keys=True), counts

    original, counts = documents(attack_alert)
    assert counts == [v.event_count for v in attack_alert.windows]
    assert documents(claimed) == (original, [10**8] * len(counts))


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
    """The pipeline scores nodes with the losses the flagged contexts
    carry, so an edited loss moves the report's node scores with it."""
    verdict = attack_alert.windows[0]
    pos = verdict.high_loss_events[0]
    edited = list(contexts)
    edited[pos] = dataclasses.replace(contexts[pos],
                                      loss=stats.threshold + 100.0)
    report = run_pipeline(model, dataset, attack_alert, stats, quick_config(),
                          contexts=edited)
    expected: dict[int, float] = {}
    for i in verdict.high_loss_events:
        e = edited[i].target
        for nid in {e.src, e.dst}:
            expected[nid] = expected.get(nid, 0.0) + edited[i].loss
    nodes = report.windows[0].nodes
    assert nodes[0]["node_id"] in (edited[pos].target.src, edited[pos].target.dst)
    for block in nodes:
        assert block["score"] == expected[block["node_id"]]


def _explained_indexes(report) -> list[int]:
    """Every event index a report explains or skips."""
    idxs = []
    for w in report.windows:
        idxs += [skip["event_index"] for skip in w.skipped]
        for node in w.nodes:
            idxs += [entry["event_index"] for entry in node["gnn"]]
            idxs += [entry["event_index"] for entry in node["va_tg"]["events"]]
    return idxs


def test_pipeline_explains_exactly_the_verdicts_flagged_events(
        model, dataset, stats, attack_alert, contexts):
    """A verdict whose flagged list is a strict subset of its window's
    above-threshold events: the pipeline explains that list only and
    does not threshold the window's losses again."""
    verdict = attack_alert.windows[0]
    above = verdict.high_loss_events
    assert len(above) >= 2
    assert all(contexts.losses[i] > stats.threshold for i in above)
    subset = above[-1:]
    alert = dataclasses.replace(
        attack_alert,
        windows=[dataclasses.replace(verdict, high_loss_events=subset)],
    )
    report = run_pipeline(model, dataset, alert, stats,
                          quick_config(top_k_events=25, top_m_nodes=20),
                          contexts=contexts)
    explained = _explained_indexes(report)
    assert explained and set(explained) <= set(subset)
    ends = {n for i in subset for n in (contexts[i].target.src,
                                        contexts[i].target.dst)}
    assert {node["node_id"] for node in report.windows[0].nodes} == ends


def test_contexts_are_built_for_flagged_events_only(model, dataset, stats,
                                                    attack_alert, monkeypatch):
    """Detection reads the loss array and builds no context; the pipeline
    builds the context of each flagged event of the alert once."""
    built: Counter = Counter()
    context = _Stream.context

    def counting(self, i, *args):
        built[i] += 1
        return context(self, i, *args)

    monkeypatch.setattr(_Stream, "context", counting)
    scored = score_stream(model, dataset)
    verdicts = score_all_windows(dataset.graph, scored, stats, DetectorConfig())
    link_queues(verdicts, stats, DetectorConfig())
    assert not built
    run_pipeline(model, dataset, attack_alert, stats, quick_config(),
                 contexts=scored)
    assert built == Counter(i for v in attack_alert.windows
                            for i in v.high_loss_events)


def test_run_pipeline_contexts_optional(model, dataset, stats, attack_alert,
                                        contexts):
    with_ctx = run_pipeline(model, dataset, attack_alert, stats,
                            quick_config(), contexts=contexts)
    without = run_pipeline(model, dataset, attack_alert, stats, quick_config())
    assert report_bytes(with_ctx, dataset) == report_bytes(without, dataset)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(top_k_events=0)
    with pytest.raises(ValueError):
        PipelineConfig(top_m_nodes=0)


def test_config_has_no_window_pool_knob():
    """Windows are explained serially; the constant is not a field."""
    assert PipelineConfig.parallel_windows == 1
    with pytest.raises(TypeError, match="parallel_windows"):
        PipelineConfig(parallel_windows=2)


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
        window=(t, t + 1), event_count=1,
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
