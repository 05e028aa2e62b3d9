"""Explanation pipeline orchestration.

Each window of a raised alert is explained from its detector verdict:
the verdict's ``high_loss_events`` are the window's flagged events, and
only their contexts are built from the detector's scored stream, so the
explained set is the detector's by construction. One pass over them
scores each endpoint node and collects its flagged contexts. The top-K
flagged events get the window-level mask explainer and its aggregate;
the top-M nodes get both per-event explainers over their flagged
contexts, once per event even when an event touches two of those nodes.
Strictly post-hoc: the model holds parameters only.

Windows can run on a thread pool (``parallel_windows``); VA-TG's
randomness is derived per event from (VA-TG seed, window, event), so
scheduling cannot change results. Memory is bounded by construction:
a window builds only its verdict's flagged contexts, node states are
read-only trace rows, and VA-TG draws its noise in fixed-size blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .detect import Alert, WindowStats
from .graph import Event, EventContext
from .gnnexplainer import GnnExplainerConfig, gnn_explain_event
from .graphmask import GraphMaskConfig, graphmask_aggregate, graphmask_explain_event
from .masks import check_fields
from .model import TgnModel, score_stream
from .report import ExplanationReport, WindowReport
from .vatg import VatgConfig, vatg_aggregate_node, vatg_explain_event


@dataclass(frozen=True)
class PipelineConfig:
    top_k_events: int = 25
    top_m_nodes: int = 20
    parallel_windows: int = 1
    graphmask: GraphMaskConfig = GraphMaskConfig()
    gnn: GnnExplainerConfig = GnnExplainerConfig()
    vatg: VatgConfig = VatgConfig()

    def __post_init__(self):
        check_fields(self)
        if min(self.top_k_events, self.top_m_nodes, self.parallel_windows) < 1:
            raise ValueError(
                "top_k_events, top_m_nodes and parallel_windows must be >= 1"
            )


def select_high_loss(events: list[Event], losses, k: int) -> list[int]:
    """Indexes of the K highest-loss events; ties break toward earlier
    timestamp, then lower index. Fewer than K events -> all of them."""
    if len(events) != len(losses):
        raise ValueError("events and losses must have equal length")
    order = sorted(
        range(len(events)),
        key=lambda i: (-losses[i], events[i].timestamp, i),
    )
    return order[:k]


def derived_seed(base: int, window_index: int, event_index: int) -> int:
    ss = np.random.SeedSequence(entropy=(base, window_index, event_index))
    return int(ss.generate_state(1)[0])


def run_pipeline(
    model: TgnModel,
    dataset,
    alert: Alert,
    stats: WindowStats,
    config: PipelineConfig = PipelineConfig(),
    contexts: Sequence[EventContext] | None = None,
) -> ExplanationReport:
    """Explain every window of a raised alert.

    ``stats`` and ``contexts`` (else scored here) are the ones that gave
    the alert's verdicts; a window builds the contexts of its verdict's
    ``high_loss_events`` and thresholds nothing again. Explainer skip
    signals are recorded once per event and window, never fatal. Each
    window report carries the alert's sorted entities, the nodes its
    attack subgraph is drawn over.
    """
    if not alert.windows:
        raise ValueError("alert has zero windows; nothing to explain")

    if contexts is None:
        contexts = score_stream(model, dataset)
    entities = sorted(alert.entities)

    def process(args) -> WindowReport:
        w_idx, verdict = args
        flagged = [contexts[i] for i in verdict.high_loss_events]
        return _explain_window(model, w_idx, verdict, flagged, stats, config,
                               entities)

    jobs = list(enumerate(alert.windows))
    if config.parallel_windows > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=config.parallel_windows) as pool:
            windows = list(pool.map(process, jobs))
    else:
        windows = [process(j) for j in jobs]

    return ExplanationReport(windows=windows)


def _edge_rows(top_edges) -> list[dict]:
    return [{"src": s, "dst": d, "rel": r.value, "imp": imp}
            for s, d, r, imp in top_edges]


def _skip(ctx: EventContext) -> dict:
    return {"event_index": ctx.target_index, "reason": "no-neighborhood"}


def _explain_window(
    model: TgnModel,
    window_index: int,
    verdict,
    flagged: list[EventContext],
    stats: WindowStats,
    config: PipelineConfig,
    entities: list[int],
) -> WindowReport:
    # node scores and each node's flagged contexts, in window order
    node_scores: dict[int, float] = {}
    node_ctxs: dict[int, list[EventContext]] = {}
    for ctx in flagged:
        for nid in {ctx.target.src, ctx.target.dst}:
            node_scores[nid] = node_scores.get(nid, 0.0) + ctx.loss
            node_ctxs.setdefault(nid, []).append(ctx)
    top_nodes = sorted(node_scores, key=lambda n: (-node_scores[n], n))
    top_nodes = top_nodes[: config.top_m_nodes]

    # one skip record per event, in the order the skips are met
    skipped: dict[int, dict] = {}
    masks = []
    top = select_high_loss([c.target for c in flagged], [c.loss for c in flagged],
                           config.top_k_events)
    for ctx in (flagged[i] for i in top):
        m = graphmask_explain_event(model, ctx, config.graphmask)
        if m is None:
            skipped.setdefault(ctx.target_index, _skip(ctx))
        else:
            masks.append((ctx, m))
    aggregate_rows = [
        {"src": row.edge.src, "dst": row.edge.dst,
         "relation": row.edge.relation.value,
         "weight": row.weight, "count": row.count}
        for row in (graphmask_aggregate(masks) if masks else [])
    ]

    # an event can touch two top nodes; both read one explanation of it
    explained: dict[int, tuple | None] = {}
    node_blocks = []
    for nid in top_nodes:
        gnn_entries = []
        vatg_pairs = []
        for ctx in node_ctxs[nid]:
            if ctx.target_index not in explained:
                explained[ctx.target_index] = _explain_event(
                    model, ctx, config, window_index)
            pair = explained[ctx.target_index]
            if pair is None:
                skipped.setdefault(ctx.target_index, _skip(ctx))
                continue
            expl, vexpl = pair
            gnn_entries.append({
                "event_index": expl.event_index,
                "comprehensiveness": expl.fidelity.comprehensiveness,
                "sufficiency": expl.fidelity.sufficiency,
                "top_edges": _edge_rows(expl.top_edges),
            })
            vatg_pairs.append((ctx, vexpl))
        node_blocks.append({
            "node_id": nid,
            "score": node_scores[nid],
            "gnn": gnn_entries,
            "va_tg": {
                "events": [{"event_index": v.event_index,
                            "top_edges": _edge_rows(v.top_edges)}
                           for _, v in vatg_pairs],
                "aggregate": [
                    {"src": row.src, "dst": row.dst, "rel": row.relation.value,
                     "mean": row.mean, "var": row.var}
                    for row in (vatg_aggregate_node(vatg_pairs) if vatg_pairs else [])
                ],
            },
        })

    return WindowReport(
        window=verdict.window,
        num_events=verdict.event_count,
        threshold=stats.threshold,
        graphmask_aggregate=aggregate_rows,
        nodes=node_blocks,
        skipped=list(skipped.values()),
        entities=entities,
    )


def _explain_event(model, ctx, config, window_index):
    """GNNExplainer and VA-TG for one event, or None on an empty
    neighborhood (both explainers skip exactly then)."""
    expl = gnn_explain_event(model, ctx, config.gnn)
    if expl is None:
        return None
    vcfg = replace(config.vatg, seed=derived_seed(config.vatg.seed, window_index,
                                                  ctx.target_index))
    return expl, vatg_explain_event(model, ctx, vcfg)
