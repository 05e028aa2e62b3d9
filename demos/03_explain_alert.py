"""Explain a raised alert with all three edge-mask explainers.

Runs the orchestration pipeline over the attack alert and writes the
JSON report, the Markdown summary, and a DOT rendering of each window's
attack subgraph (the window's events touching the alert's entities, as
`provlens explain` draws it) into ./demo_out/.
"""

import json
from pathlib import Path

from provlens import (
    DetectorConfig,
    ModelConfig,
    PipelineConfig,
    WindowStats,
    default_scenario,
    generate_scenario,
    link_queues,
    run_pipeline,
    score_all_windows,
)
from provlens.detect import span_subgraph
from provlens.model import score_stream, train
from provlens.report import emit_graph_description, emit_json, emit_markdown

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

out = Path("demo_out")
out.mkdir(exist_ok=True)
node_map = dataset.graph.nodes

for wr in report.windows:
    doc = emit_json(wr, node_map)
    (out / f"explanations_{doc['window']}.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    (out / f"window_{doc['window']}.md").write_text(emit_markdown(wr, node_map))
    sub = span_subgraph(dataset.graph, *wr.window, set(wr.entities))
    (out / f"window_{doc['window']}.gv").write_text(
        emit_graph_description(wr, sub, node_map))

    print(f"window {doc['window']}: "
          f"{len(wr.graphmask_aggregate)} aggregate edges, "
          f"{len(wr.nodes)} explained nodes")
    print("  top edges by mask weight:")
    for row in wr.graphmask_aggregate[:5]:
        src = node_map[row["src"]].label
        dst = node_map[row["dst"]].label
        print(f"    {src} {row['relation']} {dst}: "
              f"weight={row['weight']:.3f} seen={row['count']}x")

print(f"\nwrote reports to {out}/ "
      f"(render the .gv files with `dot -Tpng`)")
