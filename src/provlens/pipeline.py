"""Explanation pipeline orchestration.

For every window of a raised alert, the window's losses are read from
the detector's scored stream, and only its flagged contexts (those
whose loss exceeds the threshold) are built. One pass over them scores
each endpoint node and collects its flagged contexts. The top-K flagged
events get the window-level mask explainer and its aggregate; the top-M
nodes get both per-event explainers over their flagged contexts, once
per event even when an event touches two of those nodes. Strictly
post-hoc: the model holds parameters only, and the flagged set is the
detector's by construction.

Window-level work can run in parallel; VA-TG's randomness is derived
per event from (VA-TG seed, window, event) so scheduling cannot change
results.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .detect import Alert, WindowStats, event_losses
from .graph import Event, EventContext
from .gnnexplainer import GnnExplainerConfig, gnn_explain_event
from .graphmask import GraphMaskConfig, graphmask_aggregate, graphmask_explain_event
from .masks import check_fields
from .model import TgnModel, score_stream
from .report import ExplanationReport, WindowReport
from .vatg import VatgConfig, vatg_aggregate_node, vatg_explain_event

MEMORY_BUDGET_ENV = "PROVLENS_MEMORY_BUDGET"
DEFAULT_MEMORY_BUDGET = 1 << 30  # 1 GiB


class ResourceError(RuntimeError):
    """Estimated need exceeds the memory budget even after degradation."""


@dataclass(frozen=True)
class PipelineConfig:
    top_k_events: int = 25
    top_m_nodes: int = 20
    memory_budget: int | None = None     # bytes; None -> env var or default
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
        if self.memory_budget is not None and self.memory_budget < 0:
            raise ValueError(f"memory_budget must be >= 0, got {self.memory_budget}")


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


def ensure_memory(budget: int, estimated_need: int) -> tuple[str, list[str]]:
    """Proceed/degrade decision. Degradation disables window parallelism;
    it never changes numeric results."""
    if estimated_need <= budget:
        return "proceed", []
    if estimated_need // 2 <= budget:
        return "degrade", [
            f"memory budget {budget} below estimated need {estimated_need}; "
            "disabling parallel windows"
        ]
    raise ResourceError(
        f"estimated need {estimated_need} exceeds budget {budget} even after "
        "degradation; reduce the window duration or top-K"
    )


def estimate_need(alert: Alert, horizon: int, memory_dim: int) -> int:
    per_edge = 2 * memory_dim * 8 + 64
    total_events = sum(w.event_count for w in alert.windows)
    return total_events * (2 * horizon * per_edge + 512)


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

    ``contexts`` may carry the detector's scored full-stream contexts;
    otherwise they are scored here. Only each window's flagged contexts
    are read from it. Explainer skip signals are recorded once per
    event and window, never fatal. Each window report carries the
    alert's sorted entities, the nodes its attack subgraph is drawn over.
    """
    if not alert.windows:
        raise ValueError("alert has zero windows; nothing to explain")

    budget = config.memory_budget
    if budget is None:
        budget = int(os.environ.get(MEMORY_BUDGET_ENV, DEFAULT_MEMORY_BUDGET))
        if budget < 0:
            raise ValueError(f"{MEMORY_BUDGET_ENV} must be >= 0, got {budget}")
    need = estimate_need(alert, model.config.horizon, model.config.memory_dim)
    decision, warnings = ensure_memory(budget, need)
    parallel = config.parallel_windows if decision == "proceed" else 1

    if contexts is None:
        contexts = score_stream(model, dataset)
    entities = sorted(alert.entities)

    def process(args) -> WindowReport:
        w_idx, verdict = args
        idxs = verdict.event_indexes
        flagged = [contexts[i] for i, loss in zip(idxs, event_losses(contexts, idxs))
                   if loss > stats.threshold]
        return _explain_window(model, w_idx, verdict, flagged, stats, config,
                               entities)

    jobs = list(enumerate(alert.windows))
    if parallel > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            windows = list(pool.map(process, jobs))
    else:
        windows = [process(j) for j in jobs]

    return ExplanationReport(windows=windows, warnings=warnings)


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
