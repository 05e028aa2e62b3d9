"""Pieces shared by the edge-mask explainers.

The logistic squashing of mask logits, the binary-entropy penalty, the
left-to-right float sum of every reported figure (:func:`ordered_sum`),
the one type rule of every config dataclass (:func:`check_fields`), the
ranking of a context's edges by importance, the per-edge grouping of
the window aggregates, and the gradient-descent loop that GraphMask,
GNNExplainer and VA-TG all run, with its one divergence rule: a
non-finite objective raises :class:`DivergenceError`.

GraphMask and GNNExplainer descend on negated mask logits with
:func:`descend_mask`: one step per evaluation, the context's
:class:`~provlens.model.MaskEvaluator` one-row pass followed by both
penalties with each shared subexpression once and one ``log`` call,
bitwise equal to the plain sum of the loss and the penalties.

Every numpy call in an explainer's evaluation takes array operands:
numpy converts a Python number operand to an array on every call, about
0.2 us at these sizes, so each constant of a loop (1.0, 0.5, 1e-300, the
penalty weights, the learning rate) is a read-only 0-d float64 array
(:func:`constant`) made once per process or once per descent. A 0-d
array broadcasts as the Python number did and holds the same value, so
every result keeps its bits.
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


def constant(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: a numpy operand that
    costs no conversion per call. ``float`` first, because a config's
    float field may hold an integer past int64, of which ``np.array``
    would make an object array."""
    c = np.array(float(value))
    c.flags.writeable = False
    return c


ONE = constant(1.0)


def sigmoid(x, out=None):
    return np.divide(ONE, ONE + np.exp(-x), out=out)


def ordered_sum(values):
    """Sum of ``values`` added one at a time from the left, starting at 0.

    Python 3.12 made ``sum()`` of floats compensated and 3.11's is not;
    every float sum that reaches a report, an alert or a CSV goes through
    this one, so their bytes do not depend on the Python version."""
    total = 0
    for v in values:
        total += v
    return total


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
    """ValueError naming the first field of the dataclass ``config``
    whose value breaks the type rule of its annotation: an ``int`` field
    takes an integer (numpy integers included), a ``float`` field a
    finite real number (integers included), neither a bool, and
    ``... | None`` also takes None. Other annotations, such as nested
    configs, are not checked. Annotations are read as the strings that
    ``from __future__ import annotations`` leaves.
    """
    for f in dataclasses.fields(config):
        base = f.type.removesuffix(" | None")
        if base not in _TYPE_RULES:
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
    groups = [(edge, ordered_sum(vals) / len(vals), vals)
              for edge, vals in values.items()]
    groups.sort(key=lambda g: (-g[1], g[0][0], g[0][1], g[0][2].value))
    return groups


def _squash(phi, out=None):
    """The mask 1 / (1 + exp(phi)) of the negated logits phi = -theta:
    sigmoid(theta) with no negation, since exp(phi) is exp(-theta)."""
    e = np.exp(phi, out=out)
    np.add(ONE, e, out=e)
    return np.divide(ONE, e, out=e)


def descend_mask(evaluator, config, data_term):
    """:func:`descend` on mask logits theta from 0 (m = 0.5) over
    ``config.epochs + 1`` evaluations, for GraphMask and GNNExplainer.

    With m = sigmoid(theta) the objective is data_term(loss)[0]
    + sparsity_weight*sum(m) + entropy_weight*sum(H(m)), where loss is
    the context's masked loss and data_term(loss)[1] is the data term's
    slope in the loss. Returns the best mask seen, its objective and the
    trace.

    The descent runs on the negated logits phi = -theta, at rate
    -learning_rate, so m = 1 / (1 + exp(phi)) (:func:`_squash`) needs no
    negation. That is exact: round-to-nearest is symmetric in sign, so
    phi - (-rate * g) is bitwise -(theta - rate * g), up to the sign of
    a zero, and exp gives 1 for either zero.

    Each evaluation is one step: one :meth:`MaskEvaluator.loss_and_gradient`
    pass, then both penalties and the chain rule into theta. m, 1 - m,
    (1 - m) / m and the per-edge entropy terms m*log(m)
    + (1 - m)*log(1 - m) are the four rows of one (4, n) buffer: one
    ``log`` call over the first three rows gives both entropy logs and
    the entropy gradient's log((1 - m) / m), one product into a (2, n)
    buffer gives both entropy products, and one ``np.add.reduce`` over
    rows 0 and 3 gives sum(m) and the entropy sum, each row's own
    pairwise sum since each row is contiguous. The objective is
    assembled from those sums as Python floats. The entropy is negated
    after its sum and a slope of 1.0 is not multiplied, both exact, so
    the masks and objectives are bitwise those of the loss plus
    :func:`binary_entropy`. It keeps log((1 - m) / m) rather than the
    identity phi: the two part where m rounds to 0 or 1, which is where
    a descent diverges.

    The buffers, the weights as 0-d arrays (:func:`constant`), the
    evaluator's bound ``loss_and_gradient`` and the numpy functions are
    bound once per descent, as locals of the step.
    """
    n = evaluator.n
    sw, ew = float(config.sparsity_weight), float(config.entropy_weight)
    sw_c, ew_c, one = constant(sw), constant(ew), ONE
    buf, logs, plogp = np.empty((4, n)), np.empty((3, n)), np.empty((2, n))
    both, terms, m_and_h = buf[:2], buf[:3], buf[::3]
    m, om, ratio, h = buf
    log_both, log_ratio = logs[:2], logs[2]
    plogp_m, plogp_om = plogp
    loss_and_gradient = evaluator.loss_and_gradient
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    log, add_reduce = np.log, np.add.reduce

    def step(phi):
        _squash(phi, out=m)
        subtract(one, m, out=om)
        divide(om, m, out=ratio)
        loss, dl_dm = loss_and_gradient(m)
        value, slope = data_term(loss)
        log(terms, out=logs)
        multiply(both, log_both, out=plogp)
        add(plogp_m, plogp_om, out=h)
        sum_m, sum_h = add_reduce(m_and_h, 1).tolist()
        j = value + sw * sum_m + ew * -sum_h
        if slope != 1.0:
            dl_dm = slope * dl_dm
        dj_dm = add(dl_dm, sw_c) + multiply(ew_c, log_ratio)
        return j, dj_dm * m * om

    phi, best_j, trace = descend(step, np.zeros(n), -float(config.learning_rate),
                                 config.epochs + 1)
    return _squash(phi), best_j, trace


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
    The learning rate enters the step as a 0-d array (:func:`constant`).
    """
    rate = constant(learning_rate)
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
            x = x - rate * gradient
    return best_x, best_value, trace
