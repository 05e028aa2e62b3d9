"""Window-level deterministic edge importance.

A soft mask over a context's neighborhood edges is gradient-descended to
keep the model's loss on the masked graph close to the original loss
while paying for mask mass and mask entropy. Per-event masks are then
averaged per canonical edge into a window aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import EventContext, Relation
from .masks import check_fields, descend_mask, edge_groups
from .model import MaskEvaluator, TgnModel


@dataclass(frozen=True)
class GraphMaskConfig:
    epochs: int = field(default=200, metadata={"min": 1})
    learning_rate: float = field(default=0.01, metadata={"above": 0})
    sparsity_weight: float = field(default=1e-3, metadata={"above": 0})
    entropy_weight: float = field(default=1e-3, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)


@dataclass
class EdgeMask:
    values: np.ndarray        # strictly inside (0, 1)
    objective: float          # best objective reached
    initial_objective: float


@dataclass(frozen=True)
class CanonicalEdge:
    src: int
    dst: int
    relation: Relation


@dataclass
class AggregateRow:
    edge: CanonicalEdge
    weight: float
    count: int


def graphmask_explain_event(
    model: TgnModel, ctx: EventContext, config: GraphMaskConfig = GraphMaskConfig()
) -> EdgeMask | None:
    """Optimize the mask for one event; None signals an empty neighborhood.

    Objective: |loss(masked) - loss(original)| + sparsity_weight*sum(m)
    + entropy_weight*sum(H(m)), minimized by :func:`masks.descend` on
    the mask logits (initialized at 0, i.e. m = 0.5). The best iterate
    seen is returned, so the result never exceeds the initial objective.
    """
    n = len(ctx.neighborhood_events)
    if n == 0:
        return None

    evaluator = MaskEvaluator(model, ctx)
    _, loss_orig = evaluator.forward(np.ones(n))

    def data_term(loss: float) -> tuple[float, float]:
        d = loss - loss_orig
        return abs(d), (d > 0) - (d < 0)

    values, best_j, trace = descend_mask(evaluator, config, data_term)
    return EdgeMask(values=values, objective=best_j, initial_objective=trace[0])


def graphmask_aggregate(
    masks: list[tuple[EventContext, EdgeMask]]
) -> list[AggregateRow]:
    """Mean mask value and appearance count per canonical (src, dst,
    relation) edge, sorted by descending weight."""
    if not masks:
        raise ValueError("cannot aggregate an empty mask list")
    return [
        AggregateRow(edge=CanonicalEdge(*edge), weight=mean, count=len(vals))
        for edge, mean, vals in edge_groups((ctx, m.values) for ctx, m in masks)
    ]
