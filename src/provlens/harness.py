"""Evaluation harness: edge ablation, fidelity summaries, runtime.

Ablation removes every occurrence of one canonical edge from the event
stream and replays it through the already-trained model with the frozen
detector statistics. The anomaly delta is taken over the original
alert's window spans, and the alert decision is recomputed from scratch.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .detect import Alert, DetectorConfig, WindowStats, link_queues, score_all_windows
from .gnnexplainer import FidelityMetrics
from .graph import RELATION_INDEX, EventContext, TemporalGraph
from .graphmask import CanonicalEdge
from .masks import ordered_sum
from .model import TgnModel, score_stream

ABLATION_COLUMNS = [
    "removed_edge",
    "graphmask_score",
    "delta_anomaly_pct",
    "alert_still_raised",
]


@dataclass
class AblationResult:
    removed_edge: str
    graphmask_score: float
    delta_anomaly_pct: float
    alert_still_raised: bool


@dataclass
class FidelitySummary:
    mean_comprehensiveness: float
    mean_sufficiency: float
    count: int


@dataclass
class RuntimeRow:
    method: str
    median_seconds_per_event: float
    peak_bytes: int


def format_edge(dataset: LabeledDataset, edge: CanonicalEdge) -> str:
    nodes = dataset.graph.nodes
    src = nodes[edge.src].label if edge.src in nodes else str(edge.src)
    dst = nodes[edge.dst].label if edge.dst in nodes else str(edge.dst)
    return f"{src} {edge.relation.value} {dst}"


def baseline_row() -> AblationResult:
    return AblationResult("NONE", 0.0, 0.0, True)


def remove_edge(dataset: LabeledDataset, edge: CanonicalEdge) -> LabeledDataset:
    """Dataset with every occurrence of one canonical edge dropped: the
    graph's event columns masked, its nodes kept, in node-id order."""
    g = dataset.graph
    keep = ~((g.src == edge.src) & (g.dst == edge.dst)
             & (g.rel == RELATION_INDEX[edge.relation]))
    if keep.all():
        raise ValueError(f"edge not present in stream: {edge}")
    by_id = np.argsort(g.node_ids, kind="stable")
    labels = g.node_labels
    graph = TemporalGraph.from_columns(
        g.node_ids[by_id], g.node_kinds[by_id], [labels[r] for r in by_id.tolist()],
        g.src[keep], g.dst[keep], g.rel[keep], g.ts[keep],
    )
    kept = np.flatnonzero(keep).tolist()
    return LabeledDataset(graph, [dataset.labels[i] for i in kept],
                          dataset.attack_interval)


def ablate_edge(
    model: TgnModel,
    dataset: LabeledDataset,
    stats: WindowStats,
    alert: Alert,
    edge: CanonicalEdge,
    config: DetectorConfig = DetectorConfig(),
    graphmask_score: float = 0.0,
) -> AblationResult:
    """Replay the stream without one edge, same weights and thresholds.

    delta_anomaly_pct is the percent change of summed flagged loss over
    the original alert's window spans; alert_still_raised is whether
    re-detection on the ablated stream still yields a raised alert whose
    span overlaps the original alert's span. Unrelated alerts elsewhere
    in the stream do not count.
    """
    before = ordered_sum(v.flagged_loss for v in alert.windows)
    if before <= 0:
        raise ValueError("alert carries no flagged loss; nothing to compare")
    ablated = remove_edge(dataset, edge)
    contexts = score_stream(model, ablated)
    verdicts = score_all_windows(ablated.graph, contexts, stats, config)
    spans = {v.window for v in alert.windows}
    after = ordered_sum(v.flagged_loss for v in verdicts if v.window in spans)
    alerts = link_queues(verdicts, stats, config)
    still = any(
        a.raised
        and not (a.t_end < alert.t_start or a.t_start > alert.t_end)
        for a in alerts
    )
    return AblationResult(
        removed_edge=format_edge(dataset, edge),
        graphmask_score=graphmask_score,
        delta_anomaly_pct=100.0 * (after - before) / before,
        alert_still_raised=still,
    )


def fidelity_summary(metrics: list[FidelityMetrics]) -> FidelitySummary:
    if not metrics:
        raise ValueError("cannot summarize an empty fidelity list")
    return FidelitySummary(
        mean_comprehensiveness=ordered_sum(m.comprehensiveness for m in metrics)
        / len(metrics),
        mean_sufficiency=ordered_sum(m.sufficiency for m in metrics) / len(metrics),
        count=len(metrics),
    )


def measure_runtime(
    method: str, explain_fn, contexts: list[EventContext]
) -> RuntimeRow:
    """Median wall seconds per explained event, after one warm-up call.

    Requires at least 5 contexts so the median means something. Time and
    memory come from separate passes over the contexts, because
    tracemalloc slows the code it traces: the calls are timed with
    tracing off, and peak memory is tracemalloc's high-water mark over a
    second, untimed pass.
    """
    if len(contexts) < 5:
        raise ValueError("need at least 5 contexts to measure runtime")
    explain_fn(contexts[0])  # warm-up, untimed
    durations = []
    for ctx in contexts:
        t0 = time.perf_counter()
        explain_fn(ctx)
        durations.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        for ctx in contexts:
            explain_fn(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return RuntimeRow(method, statistics.median(durations), peak)


def ablation_csv(rows: list[AblationResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ABLATION_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.removed_edge,
                f"{r.graphmask_score:.6f}",
                f"{r.delta_anomaly_pct:.2f}",
                str(r.alert_still_raised).lower(),
            ]
        )
    return buf.getvalue()
