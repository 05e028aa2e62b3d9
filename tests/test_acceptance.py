"""End-to-end acceptance checks for the shipped defaults.

Each test pins one external contract of the toolkit: the mask identity,
closed-form gradients against finite differences, the variational
primitives, threshold arithmetic, the default-scenario detection story,
ablation causality, fidelity quality, explanation/detection isolation,
output formats, runtime ordering, and cross-seed stability.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from provlens.detect import (
    DetectorConfig,
    compute_threshold,
    link_queues,
    reconstruct_subgraph,
    score_all_windows,
)
from provlens.gnnexplainer import GnnExplainerConfig, fidelity, gnn_explain_event
from provlens.graphmask import (
    CanonicalEdge,
    GraphMaskConfig,
    graphmask_aggregate,
    graphmask_explain_event,
)
from provlens.harness import ablate_edge, fidelity_summary, measure_runtime
from provlens.model import ModelConfig, RELATION_INDEX, score_stream, train
from provlens.pipeline import (
    PipelineConfig,
    run_pipeline,
)
from provlens.report import emit_json, validate_document
from provlens.vatg import (
    VariationalMaskParams,
    VatgConfig,
    kl_term,
    sample_mask,
    vatg_explain_event,
    vatg_gradients,
    vatg_loss,
)

from conftest import random_contexts


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# ----------------------------------------------------------------------
# shared expensive artifacts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def attack_contexts(contexts, attack_indexes):
    return [contexts[i] for i in attack_indexes]


@pytest.fixture(scope="module")
def full_report(model, dataset, stats, attack_alert, contexts):
    """Default-configuration pipeline run over the attack alert."""
    return run_pipeline(model, dataset, attack_alert, stats,
                        PipelineConfig(), contexts=contexts)


@pytest.fixture(scope="module")
def attack_window_report(full_report, dataset):
    t0, _ = dataset.attack_interval
    for w in full_report.windows:
        if w.window[0] <= t0 < w.window[1]:
            return w
    raise AssertionError("no report window covers the attack")


def _report_bytes(report, dataset):
    docs = [emit_json(w, dataset.graph.nodes) for w in report.windows]
    return json.dumps({"windows": docs, "warnings": report.warnings},
                      sort_keys=True).encode()


# ----------------------------------------------------------------------
# 1. mask identity
# ----------------------------------------------------------------------


def test_all_ones_mask_reproduces_unmasked_score(model, contexts):
    rng = np.random.default_rng(100)
    sample = random_contexts(contexts, rng, 100, min_edges=0)
    for ctx in sample:
        n = len(ctx.neighborhood_events)
        _, masked = model.masked_forward(ctx, np.ones(n))
        assert abs(masked - model.score_event(ctx)) <= 1e-9


# ----------------------------------------------------------------------
# 2. closed-form gradients vs finite differences
# ----------------------------------------------------------------------


def _graphmask_objective(model, ctx, cfg, loss_orig, theta):
    m = _sigmoid(theta)
    _, loss = model.masked_forward(ctx, m)
    h = -(m * np.log(m) + (1.0 - m) * np.log(1.0 - m))
    return (abs(loss - loss_orig) + cfg.sparsity_weight * m.sum()
            + cfg.entropy_weight * h.sum())


def _graphmask_grad(model, ctx, cfg, loss_orig, theta):
    m = _sigmoid(theta)
    _, loss = model.masked_forward(ctx, m)
    dj_dm = (
        np.sign(loss - loss_orig) * model.mask_gradient(ctx, m)
        + cfg.sparsity_weight
        + cfg.entropy_weight * np.log((1.0 - m) / m)
    )
    return dj_dm * m * (1.0 - m)


def test_graphmask_gradient_matches_finite_differences(model, contexts):
    cfg = GraphMaskConfig()
    rng = np.random.default_rng(200)
    sample = random_contexts(contexts, rng, 20, max_edges=8, min_edges=2)
    h = 1e-6
    for ctx in sample:
        n = len(ctx.neighborhood_events)
        loss_orig = model.score_event(ctx)
        # stay away from the |loss - loss_orig| kink at equality
        theta = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        _, loss = model.masked_forward(ctx, _sigmoid(theta))
        if abs(loss - loss_orig) < 1e-4:
            theta = np.full(n, -2.0)
        grad = _graphmask_grad(model, ctx, cfg, loss_orig, theta)
        fd = np.zeros(n)
        for j in range(n):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                _graphmask_objective(model, ctx, cfg, loss_orig, up)
                - _graphmask_objective(model, ctx, cfg, loss_orig, dn)
            ) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-3


def test_vatg_gradients_match_finite_differences(model, contexts):
    cfg = VatgConfig(mc_samples=4)
    rng = np.random.default_rng(300)
    sample = random_contexts(contexts, rng, 20, max_edges=8, min_edges=2)
    h = 1e-6
    for ctx in sample:
        n = len(ctx.neighborhood_events)
        params = VariationalMaskParams(
            mu=rng.normal(0, 0.7, n), log_var=rng.normal(-1.5, 0.4, n)
        )
        eps = rng.standard_normal((cfg.mc_samples, n))
        d_mu, d_lv = vatg_gradients(model, ctx, params, cfg, eps)

        def loss_at(mu, lv):
            return vatg_loss(model, ctx,
                             VariationalMaskParams(mu=mu, log_var=lv), cfg, eps)

        fd_mu, fd_lv = np.zeros(n), np.zeros(n)
        for j in range(n):
            um, dm = params.mu.copy(), params.mu.copy()
            um[j] += h
            dm[j] -= h
            fd_mu[j] = (loss_at(um, params.log_var)
                        - loss_at(dm, params.log_var)) / (2 * h)
            ul, dl = params.log_var.copy(), params.log_var.copy()
            ul[j] += h
            dl[j] -= h
            fd_lv[j] = (loss_at(params.mu, ul)
                        - loss_at(params.mu, dl)) / (2 * h)
        rel_mu = np.linalg.norm(d_mu - fd_mu) / max(np.linalg.norm(fd_mu), 1e-12)
        rel_lv = np.linalg.norm(d_lv - fd_lv) / max(np.linalg.norm(fd_lv), 1e-12)
        assert rel_mu < 1e-3
        assert rel_lv < 1e-3


# ----------------------------------------------------------------------
# 3. variational primitives
# ----------------------------------------------------------------------


def test_variational_primitives():
    rng = np.random.default_rng(33)
    mu = rng.normal(0, 2, 64)
    lv = rng.normal(0, 2, 64)
    params = VariationalMaskParams(mu=mu, log_var=lv)
    # zero noise reproduces sigmoid(mu) bitwise
    assert np.array_equal(sample_mask(params, np.zeros(64)), _sigmoid(mu))
    # closed-form anchors
    assert kl_term(VariationalMaskParams(np.zeros(1), np.zeros(1))) == 0.0
    assert kl_term(VariationalMaskParams(np.ones(1), np.zeros(1))) == 0.5
    # non-negativity over 10^4 random parameter vectors
    for _ in range(10_000):
        p = VariationalMaskParams(
            mu=rng.normal(0, 3, 1), log_var=rng.normal(0, 3, 1)
        )
        assert kl_term(p) >= 0.0


# ----------------------------------------------------------------------
# 4. threshold arithmetic
# ----------------------------------------------------------------------


def test_threshold_contract():
    # pinned arithmetic: mean 1, population sigma 1 -> 1 + 1.5 * 1.
    # Published corpus-level threshold figures depend on the original
    # trace data and are not reproducible here; the arithmetic contract
    # is pinned instead.
    assert compute_threshold([0.0, 2.0]).threshold == 2.5


# ----------------------------------------------------------------------
# 5. default scenario end to end
# ----------------------------------------------------------------------


def test_default_scenario_detection_under_ten_minutes(dataset):
    from provlens.detect import THRESHOLD_SIGMA_FACTOR, WindowStats

    start = time.monotonic()
    model = train(dataset, ModelConfig())
    contexts = score_stream(model, dataset)
    stats = WindowStats(
        mu=model.stats.mu,
        sigma=model.stats.sigma,
        threshold=model.stats.mu + THRESHOLD_SIGMA_FACTOR * model.stats.sigma,
    )
    verdicts = score_all_windows(dataset.graph, contexts, stats)
    alerts = link_queues(verdicts, stats)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0

    t0, t1 = dataset.attack_interval
    attack_windows = [v for v in verdicts
                      if not (v.window[1] <= t0 or v.window[0] > t1)]
    assert attack_windows
    assert all(v.anomalous for v in attack_windows)

    covering = [a for a in alerts
                if a.raised and a.t_start <= t0 and t1 <= a.t_end]
    assert covering
    sub = reconstruct_subgraph(covering[0], dataset.graph)
    attack_idxs = {i for i, l in enumerate(dataset.labels) if l.name == "MALICIOUS"}
    assert len(attack_idxs) == 4
    assert attack_idxs <= set(sub.event_indexes)


# ----------------------------------------------------------------------
# 6. ablation causality
# ----------------------------------------------------------------------


def test_ablation_causality(model, dataset, stats, attack_alert,
                            attack_window_report, attack_indexes):
    rows = attack_window_report.graphmask_aggregate
    assert rows

    execute = dataset.graph.events[attack_indexes[0]]
    exec_edge = (execute.src, execute.dst, execute.relation.value)
    top3 = [(r["src"], r["dst"], r["relation"]) for r in rows[:3]]
    assert exec_edge in top3

    exec_row = next(r for r in rows
                    if (r["src"], r["dst"], r["relation"]) == exec_edge)
    res_top = ablate_edge(
        model, dataset, stats, attack_alert,
        CanonicalEdge(execute.src, execute.dst, execute.relation),
        graphmask_score=exec_row["weight"],
    )
    assert res_top.delta_anomaly_pct <= -40.0
    assert res_top.alert_still_raised is False

    malicious = {
        (e.src, e.dst, e.relation.value)
        for e in (dataset.graph.events[i] for i in attack_indexes)
    }
    benign_rows = [r for r in rows
                   if (r["src"], r["dst"], r["relation"]) not in malicious]
    assert benign_rows
    low = benign_rows[-1]  # rows are sorted by descending weight
    from provlens.graph import Relation

    res_low = ablate_edge(
        model, dataset, stats, attack_alert,
        CanonicalEdge(low["src"], low["dst"], Relation(low["relation"])),
        graphmask_score=low["weight"],
    )
    assert abs(res_low.delta_anomaly_pct) < 10.0
    assert res_low.alert_still_raised is True
    # removing the top-ranked edge moves the window score more than
    # removing the least-ranked one
    assert abs(res_top.delta_anomaly_pct) > abs(res_low.delta_anomaly_pct)


# ----------------------------------------------------------------------
# 7. fidelity quality on the attack events
# ----------------------------------------------------------------------


def test_fidelity_on_attack_events(model, attack_contexts):
    metrics = []
    for ctx in attack_contexts:
        n = len(ctx.neighborhood_events)
        assert n > 0
        # evaluate the full ranked mask (up to 10 edges) as the explanation
        cfg = GnnExplainerConfig(top_k=min(n, 10))
        expl = gnn_explain_event(model, ctx, cfg)
        metrics.append(expl.fidelity)
        # exact anchors
        assert fidelity(model, ctx, range(n)).sufficiency == 0.0
        assert fidelity(model, ctx, []).comprehensiveness == 0.0
    summary = fidelity_summary(metrics)
    assert summary.mean_comprehensiveness >= 0.5
    assert summary.mean_sufficiency <= 0.3


# ----------------------------------------------------------------------
# 8. optimal-subset agreement on small contexts
# ----------------------------------------------------------------------


def _best_comprehensiveness_subset(model, ctx):
    """Brute force over all non-empty edge subsets."""
    n = len(ctx.neighborhood_events)
    y = RELATION_INDEX[ctx.target.relation]
    p_orig, _ = model.masked_forward(ctx, np.ones(n))
    best, best_c = None, -np.inf
    for bits in range(1, 1 << n):
        subset = [j for j in range(n) if bits >> j & 1]
        mask = np.ones(n)
        mask[subset] = 0.0
        probs, _ = model.masked_forward(ctx, mask)
        c = p_orig[y] - probs[y]
        if c > best_c:
            best_c = c
            best = set(subset)
    return best


def test_top_edges_intersect_optimal_subset(model, contexts, attack_indexes):
    # ten deterministically chosen small contexts: the attack events that
    # fit in ten edges, then the highest-loss remaining small contexts
    small = [c for c in contexts if 2 <= len(c.neighborhood_events) <= 10]
    chosen = [c for c in small if c.target_index in attack_indexes]
    rest = sorted(
        (c for c in small if c.target_index not in attack_indexes),
        key=lambda c: (-c.loss, c.target_index),
    )
    chosen = (chosen + rest)[:10]
    assert len(chosen) == 10

    hits = 0
    for ctx in chosen:
        optimal = _best_comprehensiveness_subset(model, ctx)
        expl = gnn_explain_event(model, ctx)
        order = sorted(range(len(expl.mask)), key=lambda i: (-expl.mask[i], i))
        top3 = set(order[:3])
        if top3 & optimal:
            hits += 1
    assert hits >= 8


# ----------------------------------------------------------------------
# 9. explanation does not perturb detection; run modes are byte-identical
# ----------------------------------------------------------------------


def test_explanation_is_isolated_and_deterministic(
    model, dataset, stats, attack_alert, contexts, verdicts, full_report
):
    # verdicts recomputed after the full_report pipeline run match the
    # session verdicts computed before any explanation
    after = score_all_windows(dataset.graph, score_stream(model, dataset),
                              stats, DetectorConfig())
    assert after == verdicts

    baseline = _report_bytes(full_report, dataset)

    parallel = run_pipeline(model, dataset, attack_alert, stats,
                            PipelineConfig(parallel_windows=4),
                            contexts=contexts)
    assert _report_bytes(parallel, dataset) == baseline


# ----------------------------------------------------------------------
# 10. output formats and exit codes
# ----------------------------------------------------------------------


def test_output_contracts(full_report, dataset, tmp_path):
    from provlens.cli import EXIT_ARGUMENT, EXIT_OK, EXIT_RESOURCE, main
    from provlens.data import save_dataset
    from provlens.harness import ABLATION_COLUMNS

    for w in full_report.windows:
        validate_document(emit_json(w, dataset.graph.nodes))

    assert ABLATION_COLUMNS == [
        "removed_edge", "graphmask_score", "delta_anomaly_pct",
        "alert_still_raised",
    ]

    out = tmp_path / "ds.json"
    assert main(["generate", "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert main(["detect", "--dataset", str(tmp_path / "missing.json"),
                 "--model", str(tmp_path / "missing2.json"),
                 "--out", str(tmp_path / "a.json")]) == EXIT_ARGUMENT
    assert (EXIT_OK, EXIT_ARGUMENT, EXIT_RESOURCE) == (0, 2, 3)


# ----------------------------------------------------------------------
# 11. runtime budget and ordering
# ----------------------------------------------------------------------


def test_runtime_budget_and_ordering(model, contexts):
    rng = np.random.default_rng(1100)
    sample = random_contexts(contexts, rng, 6, min_edges=5)

    methods = [
        ("graphmask", lambda c: graphmask_explain_event(model, c)),
        ("gnnexplainer", lambda c: gnn_explain_event(model, c)),
        ("va_tg", lambda c: vatg_explain_event(model, c)),
    ]
    # interleave three measurement rounds and keep each method's best
    # median, so slow drift in machine load cannot reorder the methods
    best = {name: np.inf for name, _ in methods}
    for _ in range(3):
        for name, fn in methods:
            row = measure_runtime(name, fn, sample)
            best[name] = min(best[name], row.median_seconds_per_event)

    for seconds in best.values():
        assert seconds <= 10.0
    assert best["graphmask"] <= best["gnnexplainer"]
    assert best["gnnexplainer"] <= best["va_tg"]


# ----------------------------------------------------------------------
# 12. cross-seed stability of the variational explainer
# ----------------------------------------------------------------------


def test_vatg_top_edge_stable_across_seeds(model, attack_contexts):
    ctx = attack_contexts[1]  # the sensitive-file read
    tops = []
    for seed in range(5):
        expl = vatg_explain_event(model, ctx, VatgConfig(seed=seed))
        src, dst, rel, _ = expl.top_edges[0]
        tops.append((src, dst, rel))
    assert len(set(tops)) == 1
