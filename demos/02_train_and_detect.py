"""Train on the benign prefix and walk the detector over the stream.

Shows the learned loss statistics, the per-window verdicts, the alert
queues, and the reconstructed attack subgraph.
"""

from provlens import (
    DetectorConfig,
    ModelConfig,
    WindowStats,
    default_scenario,
    generate_scenario,
    link_queues,
    reconstruct_subgraph,
    score_all_windows,
)
from provlens.model import score_stream, train

dataset = generate_scenario(default_scenario(seed=7))
model = train(dataset, ModelConfig())
print(f"benign held-out loss: mu={model.stats.mu:.4f} "
      f"sigma={model.stats.sigma:.4f}")

stats = WindowStats.from_benign(model.stats.mu, model.stats.sigma)
print(f"event threshold (mu + 1.5 sigma): {stats.threshold:.4f}")

contexts = score_stream(model, dataset)
verdicts = score_all_windows(dataset.graph, contexts, stats, DetectorConfig())

print("\nwindows:")
for v in verdicts:
    mark = "ANOMALOUS" if v.anomalous else "ok"
    print(f"  [{v.window[0]:>14} .. {v.window[1]:>14})  "
          f"events={v.event_count:<5} flagged={len(v.high_loss_events):<3} "
          f"{mark}")

alerts = link_queues(verdicts, stats, DetectorConfig())
print("\nalerts:")
for a in alerts:
    print(f"  span [{a.t_start}, {a.t_end}] queue={a.queue_score:.2f} "
          f"raised={a.raised} entities={sorted(a.entities)}")

t0, t1 = dataset.attack_interval
attack = next(a for a in alerts
              if a.raised and a.t_start <= t0 and t1 <= a.t_end)
sub = reconstruct_subgraph(attack, dataset.graph)
print(f"\nattack subgraph: {len(sub.nodes)} nodes, "
      f"{len(sub.event_indexes)} events")
for i in sub.event_indexes[:10]:
    e = dataset.graph.events[i]
    print(f"  [{i}] {dataset.graph.nodes[e.src].label} "
          f"{e.relation.value} {dataset.graph.nodes[e.dst].label}")
