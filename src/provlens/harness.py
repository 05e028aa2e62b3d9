"""Evaluation harness: edge ablation, fidelity summaries, runtime.

Ablation removes every occurrence of one canonical edge from the event
stream and replays it through the already-trained model with the frozen
detector statistics, on the original stream's window grid (the removal
may move the first event). The anomaly delta is taken over the original
alert's windows, and the alert decision is recomputed from scratch.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from .data import LabeledDataset
from .detect import Alert, DetectorConfig, WindowStats, link_queues, score_all_windows
from .gnnexplainer import FidelityMetrics
from .graph import RELATION_INDEX, EventContext, TemporalGraph
from .graphmask import CanonicalEdge
from .masks import ordered_sum
from .model import TgnModel, score_stream
from .report import node_label

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
    return (f"{node_label(nodes, edge.src)} {edge.relation.value} "
            f"{node_label(nodes, edge.dst)}")


def baseline_row() -> AblationResult:
    return AblationResult("NONE", 0.0, 0.0, True)


def remove_edge(dataset: LabeledDataset, edge: CanonicalEdge) -> LabeledDataset:
    """Dataset with every occurrence of one canonical edge dropped: the
    graph's event columns masked, its node columns kept as they are."""
    g = dataset.graph
    keep = ~((g.src == edge.src) & (g.dst == edge.dst)
             & (g.rel == RELATION_INDEX[edge.relation]))
    if keep.all():
        raise ValueError(f"edge not present in stream: {edge}")
    graph = TemporalGraph.from_columns(g.node_ids, g.node_kinds, g.node_labels,
                                       g.src[keep], g.dst[keep], g.rel[keep], g.ts[keep])
    labels = [lab for lab, k in zip(dataset.labels, keep.tolist()) if k]
    return LabeledDataset(graph, labels, dataset.attack_interval)


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

    The ablated stream is scored on the original stream's window grid.
    delta_anomaly_pct is the percent change of summed flagged loss over
    the original alert's windows; alert_still_raised is whether
    re-detection on the ablated stream still yields a raised alert whose
    half-open span overlaps the original alert's. Unrelated alerts
    elsewhere in the stream do not count.
    """
    before = ordered_sum(v.flagged_loss for v in alert.windows)
    if before <= 0:
        raise ValueError("alert carries no flagged loss; nothing to compare")
    ablated = remove_edge(dataset, edge)
    contexts = score_stream(model, ablated)
    verdicts = score_all_windows(ablated.graph, contexts, stats, config,
                                 span=dataset.graph.span())
    spans = {v.window for v in alert.windows}
    after = ordered_sum(v.flagged_loss for v in verdicts if v.window in spans)
    alerts = link_queues(verdicts, stats, config)
    still = any(a.raised and a.overlaps(alert.t_start, alert.t_end) for a in alerts)
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
    tracing off (unless the caller traces), and ``peak_bytes`` is
    tracemalloc's high-water mark over a second, untimed pass, above the
    traced size at its start. A caller that already traces keeps its
    session, with its peak reset by the pass; a session this function
    starts, it stops.
    """
    if len(contexts) < 5:
        raise ValueError("need at least 5 contexts to measure runtime")
    explain_fn(contexts[0])  # warm-up, untimed
    durations = []
    for ctx in contexts:
        t0 = time.perf_counter()
        explain_fn(ctx)
        durations.append(time.perf_counter() - t0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        for ctx in contexts:
            explain_fn(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return RuntimeRow(method, statistics.median(durations), peak - base)


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
