"""Pieces shared by the edge-mask explainers.

The logistic squashing of mask logits, the binary-entropy penalty, the
one type rule of every config dataclass (:func:`check_fields`), the
ranking of a context's edges by importance, the per-edge grouping of
the window aggregates, and the gradient-descent loop that GraphMask,
GNNExplainer and VA-TG all run, with its one divergence rule: a
non-finite objective raises :class:`DivergenceError`.

GraphMask and GNNExplainer descend on mask logits with
:func:`descend_mask`: one step per evaluation, the context's
:class:`~provlens.model.MaskEvaluator` one-row pass followed by both
penalties with each shared subexpression once, bitwise equal to the
plain sum of the loss and the penalties.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys

import numpy as np

from .graph import EventContext, Relation


class DivergenceError(RuntimeError):
    """Training or an explainer produced a non-finite loss."""


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def binary_entropy(m: np.ndarray) -> np.ndarray:
    return -(m * np.log(m) + (1.0 - m) * np.log(1.0 - m))


#: what each checked annotation takes; the float bound keeps out NaN,
#: infinities and ints past float range
_TYPE_RULES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral)),
    "float": ("a finite number", lambda v: isinstance(v, numbers.Real)
              and abs(v) <= sys.float_info.max),
}


def check_fields(config) -> None:
    """ValueError naming the first init field of the dataclass ``config``
    whose value breaks the type rule of its annotation: an ``int`` field
    takes an integer (numpy integers included), a ``float`` field a
    finite real number (integers included), neither a bool, and
    ``... | None`` also takes None. Other annotations, such as nested
    configs, are not checked. Annotations are read as the strings that
    ``from __future__ import annotations`` leaves.
    """
    for f in dataclasses.fields(config):
        base = f.type.removesuffix(" | None")
        if not f.init or base not in _TYPE_RULES:
            continue
        value = getattr(config, f.name)
        if value is None and base != f.type:
            continue
        what, fits = _TYPE_RULES[base]
        if isinstance(value, bool) or not fits(value):
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


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


def edge_groups(pairs) -> list[tuple[tuple[int, int, Relation], float, list[float]]]:
    """Group the per-edge values of (context, values) pairs by canonical
    (src, dst, relation) edge: one (edge, mean, values) triple per edge,
    the values in the order met, sorted by descending mean, then by src,
    dst and relation."""
    values: dict[tuple[int, int, Relation], list[float]] = {}
    for ctx, per_edge in pairs:
        for ev, value in zip(ctx.neighborhood_events, per_edge):
            values.setdefault((ev.src, ev.dst, ev.relation), []).append(float(value))
    groups = [(edge, sum(vals) / len(vals), vals) for edge, vals in values.items()]
    groups.sort(key=lambda g: (-g[1], g[0][0], g[0][1], g[0][2].value))
    return groups


def descend_mask(evaluator, config, data_term):
    """:func:`descend` on mask logits theta from 0 (m = 0.5) over
    ``config.epochs + 1`` evaluations, for GraphMask and GNNExplainer.

    With m = sigmoid(theta) the objective is data_term(loss)[0]
    + sparsity_weight*sum(m) + entropy_weight*sum(H(m)), where loss is
    the context's masked loss and data_term(loss)[1] is the data term's
    slope in the loss. Returns the best mask seen, its objective and the
    trace.

    Each evaluation is one step: one :meth:`MaskEvaluator.loss_and_gradient`
    pass, then both penalties and the chain rule into theta with 1 - m
    computed once and the entropy negated after its sum, which is exact,
    so the masks and objectives are bitwise those of the loss plus
    :func:`binary_entropy`. It keeps log((1 - m) / m) rather than the
    identity -theta: the two part where m rounds to 0 or 1, which is
    where a descent diverges.
    """
    sw, ew = config.sparsity_weight, config.entropy_weight

    def step(theta):
        m = sigmoid(theta)
        om = 1.0 - m
        loss, dl_dm = evaluator.loss_and_gradient(m)
        value, slope = data_term(loss)
        j = (value + sw * np.add.reduce(m)
             + ew * -np.add.reduce(m * np.log(m) + om * np.log(om)))
        dj_dm = slope * dl_dm + sw + ew * np.log(om / m)
        return j, dj_dm * m * om

    theta, best_j, trace = descend(step, np.zeros(evaluator.n),
                                   config.learning_rate, config.epochs + 1)
    return sigmoid(theta), best_j, trace


def descend(objective, x, learning_rate: float, evaluations: int):
    """Plain gradient descent from x, the one loop of every explainer.

    ``objective(x)`` returns the value at x and its gradient in x. Each
    of the ``evaluations`` evaluations raises :class:`DivergenceError` on
    a non-finite value, appends the value to the trace, keeps x when it
    is strictly better than the best so far, and steps
    ``x = x - learning_rate * gradient``. Returns the best x, its value
    and the trace, whose first entry is the value at the start.

    The loop runs with numpy's divide, overflow and invalid-value
    warnings off: a diverging descent produces them on its way to the
    non-finite value, and :class:`DivergenceError` is its one report.
    """
    best_x, best_value, trace = x, math.inf, []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(evaluations):
            value, gradient = objective(x)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"explainer objective went non-finite at evaluation "
                    f"{len(trace) + 1} of {evaluations}"
                )
            trace.append(value)
            if value < best_value:
                best_x, best_value = x, value
            x = x - learning_rate * gradient
    return best_x, best_value, trace
