"""Per-event edge-mask explanations with fidelity metrics.

The mask is optimized to preserve the model's output on the event's true
relation (cross-entropy of the masked prediction against it), regularized
for sparsity and entropy. The top-k edges form "the explanation";
comprehensiveness and sufficiency quantify it with hard 0/1 masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EventContext, Relation
from .masks import descend_mask, require_finite, require_int, top_edges
from .model import MaskEvaluator, TgnModel


@dataclass(frozen=True)
class GnnExplainerConfig:
    # 250 epochs keeps the per-event cost above GraphMask's paper-stated
    # 200-epoch schedule, preserving the published runtime ordering
    epochs: int = 250
    learning_rate: float = 0.01
    top_k: int = 3
    sparsity_weight: float = 1e-3
    entropy_weight: float = 1e-3

    def __post_init__(self):
        require_int(epochs=self.epochs, top_k=self.top_k)
        if min(self.epochs, self.top_k) < 1 or self.learning_rate <= 0:
            raise ValueError("GNNExplainer config values must be positive")
        if min(self.sparsity_weight, self.entropy_weight) < 0:
            raise ValueError("GNNExplainer penalty weights must be non-negative")
        require_finite(learning_rate=self.learning_rate,
                       sparsity_weight=self.sparsity_weight,
                       entropy_weight=self.entropy_weight)


@dataclass
class FidelityMetrics:
    comprehensiveness: float  # P_original - P_removed (higher is better)
    sufficiency: float        # P_original - P_kept (lower is better)


@dataclass
class EventExplanation:
    event_index: int
    mask: np.ndarray
    top_edges: list[tuple[int, int, Relation, float]]  # (src, dst, rel, importance)
    fidelity: FidelityMetrics


def _true_prob(evaluator: MaskEvaluator, mask: np.ndarray) -> float:
    probs, _ = evaluator.forward(mask)
    return float(probs[evaluator.y])


def fidelity(
    model: TgnModel,
    ctx: EventContext,
    edge_subset,
    evaluator: MaskEvaluator | None = None,
) -> FidelityMetrics:
    """Hard-mask fidelity of an edge subset of the neighborhood.

    removed = all ones with the subset zeroed; kept = all zeros with the
    subset set to one. Identities: the full subset gives sufficiency 0
    exactly, the empty subset gives comprehensiveness 0 exactly. Pass
    the context's evaluator to reuse it.
    """
    n = len(ctx.neighborhood_events)
    subset = sorted(set(edge_subset))
    if subset and (subset[0] < 0 or subset[-1] >= n):
        raise IndexError(f"edge subset {subset} out of range for {n} edges")
    if evaluator is None:
        evaluator = MaskEvaluator(model, ctx)

    ones = np.ones(n)
    p_original = _true_prob(evaluator, ones)

    removed = ones.copy()
    removed[subset] = 0.0
    kept = np.zeros(n)
    kept[subset] = 1.0

    p_removed = p_original if not subset else _true_prob(evaluator, removed)
    p_kept = p_original if len(subset) == n else _true_prob(evaluator, kept)
    return FidelityMetrics(
        comprehensiveness=p_original - p_removed,
        sufficiency=p_original - p_kept,
    )


def gnn_explain_event(
    model: TgnModel,
    ctx: EventContext,
    config: GnnExplainerConfig = GnnExplainerConfig(),
) -> EventExplanation | None:
    """Optimize a soft edge mask for one event; None on empty neighborhood.

    Objective: loss(masked) + sparsity_weight*sum(m)
    + entropy_weight*sum(H(m)), minimized by :func:`masks.descend` on
    the mask logits from m = 0.5; the best iterate is kept.
    """
    if not ctx.neighborhood_events:
        return None

    evaluator = MaskEvaluator(model, ctx)
    mask, _, _ = descend_mask(evaluator, config, lambda loss: (loss, 1.0))
    top, rows = top_edges(ctx, mask, config.top_k)
    return EventExplanation(
        event_index=ctx.target_index,
        mask=mask,
        top_edges=rows,
        fidelity=fidelity(model, ctx, top, evaluator),
    )
