"""Pieces shared by the edge-mask explainers.

The logistic squashing of mask logits, the binary-entropy penalty, the
finite-value check of explainer configs, the ranking of a context's
edges by importance, and the regularized gradient descent on mask
logits that GraphMask and GNNExplainer both run.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import EventContext, Relation


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def binary_entropy(m: np.ndarray) -> np.ndarray:
    return -(m * np.log(m) + (1.0 - m) * np.log(1.0 - m))


def require_finite(**values: float) -> None:
    """ValueError naming the first NaN or infinite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def top_edges(
    ctx: EventContext, importance: np.ndarray, k: int
) -> tuple[list[int], list[tuple[int, int, Relation, float]]]:
    """Indices of the k most important neighborhood edges (ties to the
    lower index) and their (src, dst, relation, importance) rows."""
    order = sorted(range(len(importance)), key=lambda i: (-importance[i], i))[:k]
    rows = []
    for i in order:
        ev = ctx.neighborhood_events[i]
        rows.append((ev.src, ev.dst, ev.relation, float(importance[i])))
    return order, rows


def descend_mask(evaluator, config, data_term):
    """Gradient descent on mask logits, started at 0 (m = 0.5).

    The objective is data_term(loss)[0] + sparsity_weight*sum(m)
    + entropy_weight*sum(H(m)), where loss is the masked loss from the
    context's evaluator and data_term(loss)[1] is the data term's slope
    in the loss. One evaluator pass per epoch gives both the loss of the
    new mask and the gradient for the next step. Returns the best mask
    seen, its objective and the initial objective.
    """
    theta = np.zeros(evaluator.n)

    def objective(m):
        loss, dl_dm = evaluator.loss_and_gradient(m)
        value, slope = data_term(loss)
        j = (
            value
            + config.sparsity_weight * m.sum()
            + config.entropy_weight * binary_entropy(m).sum()
        )
        return j, slope * dl_dm

    m = sigmoid(theta)
    initial_j, dv_dm = objective(m)
    best_j, best_m = initial_j, m

    for _ in range(config.epochs):
        dj_dm = (
            dv_dm
            + config.sparsity_weight
            + config.entropy_weight * np.log((1.0 - m) / m)
        )
        theta -= config.learning_rate * dj_dm * m * (1.0 - m)
        m = sigmoid(theta)
        j, dv_dm = objective(m)
        if j < best_j:
            best_j, best_m = j, m

    return best_m, best_j, initial_j
