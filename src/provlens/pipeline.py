"""Explanation pipeline orchestration.

For every window of a raised alert: read the per-event losses the
detector scored, select the top-K flagged events, run the window-level
mask explainer and aggregate it, pick the top-M suspicious nodes, and run
both per-event explainers over each node's flagged events, once per event
even when an event touches two of those nodes. Strictly post-hoc: the
model holds parameters only, and the flagged set is the detector's by
construction.

Window-level work can run in parallel; per-event explainer randomness is
derived from (seed, window, event) so scheduling cannot change results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .detect import Alert, WindowStats
from .graph import Event, EventContext
from .gnnexplainer import GnnExplainerConfig, gnn_explain_event
from .graphmask import GraphMaskConfig, graphmask_aggregate, graphmask_explain_event
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
    seed: int = 0
    graphmask: GraphMaskConfig = GraphMaskConfig()
    gnn: GnnExplainerConfig = GnnExplainerConfig()
    vatg: VatgConfig = VatgConfig()

    def __post_init__(self):
        if self.top_k_events < 1 or self.top_m_nodes < 1:
            raise ValueError("top_k_events and top_m_nodes must be >= 1")


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


class ContextCache:
    """LRU cache of per-window context lists with byte-size accounting."""

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = budget_bytes
        self._store: dict = {}
        self._sizes: dict = {}
        self._order: list = []
        self.total_bytes = 0

    def get(self, key, supplier):
        if key in self._store:
            self._order.remove(key)
            self._order.append(key)
            return self._store[key]
        contexts = supplier()
        size = _contexts_bytes(contexts)
        self._store[key] = contexts
        self._sizes[key] = size
        self._order.append(key)
        self.total_bytes += size
        if self.budget_bytes is not None:
            while self.total_bytes > self.budget_bytes and len(self._order) > 1:
                victim = self._order.pop(0)
                self.total_bytes -= self._sizes.pop(victim)
                del self._store[victim]
        return contexts


def _contexts_bytes(contexts: list[EventContext]) -> int:
    """Approximate bytes a list of contexts holds. Contexts share their
    read-only state vectors, so each distinct vector counts once."""
    vectors = {id(h): h.nbytes for c in contexts for h, _ in c.node_states.values()}
    return sum(vectors.values()) + sum(64 * len(c.neighborhood) + 256 for c in contexts)


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
    contexts: list[EventContext] | None = None,
    cache: ContextCache | None = None,
) -> ExplanationReport:
    """Explain every window of a raised alert.

    ``contexts`` may carry the detector's scored full-stream contexts;
    otherwise they are scored here. Explainer skip signals are recorded
    per event, never fatal.
    """
    if not alert.windows:
        raise ValueError("alert has zero windows; nothing to explain")

    budget = config.memory_budget
    if budget is None:
        budget = int(os.environ.get(MEMORY_BUDGET_ENV, DEFAULT_MEMORY_BUDGET))
    need = estimate_need(alert, model.config.horizon, model.config.memory_dim)
    decision, warnings = ensure_memory(budget, need)
    parallel = config.parallel_windows if decision == "proceed" else 1

    if contexts is None:
        contexts = score_stream(model, dataset)

    def window_contexts(verdict):
        if cache is None:
            return [contexts[i] for i in verdict.event_indexes]
        return cache.get(
            verdict.window, lambda: [contexts[i] for i in verdict.event_indexes]
        )

    def process(args) -> WindowReport:
        w_idx, verdict = args
        return _explain_window(
            model, w_idx, verdict, window_contexts(verdict), stats, config
        )

    jobs = list(enumerate(alert.windows))
    if parallel > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            windows = list(pool.map(process, jobs))
    else:
        windows = [process(j) for j in jobs]

    return ExplanationReport(windows=windows, warnings=warnings)


def _explain_window(
    model: TgnModel,
    window_index: int,
    verdict,
    window_ctxs: list[EventContext],
    stats: WindowStats,
    config: PipelineConfig,
) -> WindowReport:
    events = [c.target for c in window_ctxs]
    losses = [c.loss for c in window_ctxs]

    flagged_pos = [i for i, l in enumerate(losses) if l > stats.threshold]
    flagged_events = [events[i] for i in flagged_pos]
    flagged_losses = [losses[i] for i in flagged_pos]
    top_pos = [
        flagged_pos[i]
        for i in select_high_loss(flagged_events, flagged_losses, config.top_k_events)
    ]

    skipped: list[dict] = []
    masks = []
    for pos in top_pos:
        ctx = window_ctxs[pos]
        m = graphmask_explain_event(model, ctx, config.graphmask)
        if m is None:
            skipped.append(
                {"event_index": ctx.target_index, "reason": "no-neighborhood"}
            )
        else:
            masks.append((ctx, m))
    aggregate_rows = []
    if masks:
        for row in graphmask_aggregate(masks):
            aggregate_rows.append(
                {
                    "src": row.edge.src,
                    "dst": row.edge.dst,
                    "relation": row.edge.relation.value,
                    "weight": row.weight,
                    "count": row.count,
                }
            )

    # node scores over flagged events only
    node_scores: dict[int, float] = {}
    for pos in flagged_pos:
        e = events[pos]
        node_scores[e.src] = node_scores.get(e.src, 0.0) + losses[pos]
        if e.dst != e.src:
            node_scores[e.dst] = node_scores.get(e.dst, 0.0) + losses[pos]
    top_nodes = sorted(node_scores, key=lambda n: (-node_scores[n], n))
    top_nodes = top_nodes[: config.top_m_nodes]

    # an event can touch two top nodes; both read one explanation of it
    explained: dict[int, tuple] = {}

    def explain_event(ctx: EventContext):
        if ctx.target_index not in explained:
            expl = gnn_explain_event(model, ctx, config.gnn)
            vexpl = None
            if expl is not None:
                vcfg = replace(
                    config.vatg,
                    seed=derived_seed(config.seed, window_index, ctx.target_index),
                )
                vexpl = vatg_explain_event(model, ctx, vcfg)
            explained[ctx.target_index] = (expl, vexpl)
        return explained[ctx.target_index]

    node_blocks = []
    for nid in top_nodes:
        gnn_entries = []
        vatg_pairs = []
        vatg_events = []
        for pos in flagged_pos:
            ctx = window_ctxs[pos]
            if nid not in (ctx.target.src, ctx.target.dst):
                continue
            expl, vexpl = explain_event(ctx)
            if expl is None:
                skipped.append(
                    {"event_index": ctx.target_index, "reason": "no-neighborhood"}
                )
                continue
            gnn_entries.append(
                {
                    "event_index": expl.event_index,
                    "comprehensiveness": expl.fidelity.comprehensiveness,
                    "sufficiency": expl.fidelity.sufficiency,
                    "top_edges": [
                        {"src": s, "dst": d, "rel": r.value, "imp": imp}
                        for s, d, r, imp in expl.top_edges
                    ],
                }
            )
            if vexpl is not None:
                vatg_pairs.append((ctx, vexpl))
                vatg_events.append(
                    {
                        "event_index": vexpl.event_index,
                        "top_edges": [
                            {"src": s, "dst": d, "rel": r.value, "imp": imp}
                            for s, d, r, imp in vexpl.top_edges
                        ],
                    }
                )
        va_aggregate = []
        if vatg_pairs:
            for row in vatg_aggregate_node(vatg_pairs):
                va_aggregate.append(
                    {
                        "src": row.src,
                        "dst": row.dst,
                        "rel": row.relation.value,
                        "mean": row.mean,
                        "var": row.var,
                    }
                )
        node_blocks.append(
            {
                "node_id": nid,
                "score": node_scores[nid],
                "gnn": gnn_entries,
                "va_tg": {"events": vatg_events, "aggregate": va_aggregate},
            }
        )

    return WindowReport(
        window=verdict.window,
        num_events=verdict.event_count,
        threshold=stats.threshold,
        graphmask_aggregate=aggregate_rows,
        nodes=node_blocks,
        skipped=skipped,
    )
