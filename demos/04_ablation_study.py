"""Quantify the explanations: edge ablation, fidelity, and runtime.

Removes the top-ranked and lowest-ranked explained edges from the stream
and replays detection, then summarizes explanation fidelity on the
attack events and the per-event cost of each explainer.
"""

import numpy as np

from provlens import (
    CanonicalEdge,
    DetectorConfig,
    GnnExplainerConfig,
    ModelConfig,
    PipelineConfig,
    WindowStats,
    default_scenario,
    generate_scenario,
    gnn_explain_event,
    link_queues,
    run_pipeline,
    score_all_windows,
)
from provlens.graph import Relation, TruthLabel
from provlens.graphmask import graphmask_explain_event
from provlens.harness import (
    ablate_edge,
    ablation_csv,
    baseline_row,
    fidelity_summary,
    measure_runtime,
)
from provlens.model import score_stream, train
from provlens.vatg import vatg_explain_event

dataset = generate_scenario(default_scenario(seed=7))
model = train(dataset, ModelConfig())
stats = WindowStats.from_benign(model.stats.mu, model.stats.sigma)
contexts = score_stream(model, dataset)
verdicts = score_all_windows(dataset.graph, contexts, stats, DetectorConfig())
alerts = link_queues(verdicts, stats, DetectorConfig())

t0, t1 = dataset.attack_interval
alert = next(a for a in alerts
             if a.raised and a.t_start <= t0 and t1 <= a.t_end)

report = run_pipeline(model, dataset, alert, stats, PipelineConfig(),
                      contexts=contexts)
window = next(w for w in report.windows if w.window[0] <= t0 < w.window[1])
rows = window.graphmask_aggregate

# ablate the top-ranked edge and the lowest-ranked benign edge
malicious = {
    (e.src, e.dst, e.relation.value)
    for i, e in enumerate(dataset.graph.events)
    if dataset.labels[i] is TruthLabel.MALICIOUS
}
benign_rows = [r for r in rows
               if (r["src"], r["dst"], r["relation"]) not in malicious]
targets = [rows[0], benign_rows[-1]]

results = [baseline_row()]
for row in targets:
    edge = CanonicalEdge(row["src"], row["dst"], Relation(row["relation"]))
    results.append(ablate_edge(model, dataset, stats, alert, edge,
                               graphmask_score=row["weight"]))

print("ablation table:")
print(ablation_csv(results))

# fidelity of the full ranked explanation on the attack events
attack_ctxs = [contexts[i] for i, l in enumerate(dataset.labels)
               if l is TruthLabel.MALICIOUS]
metrics = []
for ctx in attack_ctxs:
    cfg = GnnExplainerConfig(top_k=min(len(ctx.neighborhood_events), 10))
    metrics.append(gnn_explain_event(model, ctx, cfg).fidelity)
summary = fidelity_summary(metrics)
print(f"attack-event fidelity: "
      f"comprehensiveness={summary.mean_comprehensiveness:.3f} "
      f"sufficiency={summary.mean_sufficiency:.3f} (n={summary.count})")

# per-event explainer cost on a fixed sample
rng = np.random.default_rng(0)
eligible = [c for c in contexts if len(c.neighborhood_events) >= 5]
sample = [eligible[i] for i in sorted(rng.choice(len(eligible), 6,
                                                 replace=False))]
print("\nper-event runtime (median seconds):")
for name, fn in [
    ("graphmask", lambda c: graphmask_explain_event(model, c)),
    ("gnnexplainer", lambda c: gnn_explain_event(model, c)),
    ("va_tg", lambda c: vatg_explain_event(model, c)),
]:
    row = measure_runtime(name, fn, sample)
    print(f"  {row.method:<14} {row.median_seconds_per_event:.3f} s "
          f"(peak {row.peak_bytes / 1024:.0f} KiB)")
