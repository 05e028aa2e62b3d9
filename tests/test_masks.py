"""Helpers shared by the explainers and the finite-value config contract."""

import math

import numpy as np
import pytest

from provlens.gnnexplainer import GnnExplainerConfig
from provlens.graphmask import GraphMaskConfig
from provlens.masks import (
    DivergenceError,
    binary_entropy,
    descend,
    sigmoid,
    top_edges,
)
from provlens.vatg import VatgConfig

from test_model import _tiny_model


@pytest.mark.parametrize("cls, field", [
    (GraphMaskConfig, "learning_rate"),
    (GraphMaskConfig, "sparsity_weight"),
    (GraphMaskConfig, "entropy_weight"),
    (GnnExplainerConfig, "learning_rate"),
    (GnnExplainerConfig, "sparsity_weight"),
    (GnnExplainerConfig, "entropy_weight"),
    (VatgConfig, "learning_rate"),
    (VatgConfig, "lambda_kl"),
    (VatgConfig, "lambda_sp"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_configs_reject_non_finite(cls, field, value):
    with pytest.raises(ValueError):
        cls(**{field: value})


@pytest.mark.parametrize("cls", [GraphMaskConfig, GnnExplainerConfig])
@pytest.mark.parametrize("field", ["sparsity_weight", "entropy_weight"])
def test_mask_penalty_weights_reject_negative(cls, field):
    """A negative penalty would reward mask mass or entropy."""
    with pytest.raises(ValueError):
        cls(**{field: -1e-3})


@pytest.mark.parametrize("field", ["sparsity_weight", "entropy_weight"])
def test_gnnexplainer_penalty_weights_allow_zero(field):
    assert getattr(GnnExplainerConfig(**{field: 0.0}), field) == 0.0


def test_sigmoid_and_entropy_anchors():
    assert sigmoid(0.0) == 0.5
    assert binary_entropy(np.array([0.5]))[0] == pytest.approx(math.log(2))
    m = np.array([0.2, 0.8])
    assert binary_entropy(m)[0] == binary_entropy(m)[1]


def test_top_edges_rank_by_importance_then_index(tiny_graph):
    _, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    n = len(ctx.neighborhood_events)
    assert n >= 3
    importance = np.full(n, 0.5)
    importance[n - 1] = 0.9
    top, rows = top_edges(ctx, importance, 3)
    assert top == [n - 1, 0, 1]
    ev = ctx.neighborhood_events[n - 1]
    assert rows[0] == (ev.src, ev.dst, ev.relation, 0.9)
    assert len(top_edges(ctx, importance, n + 5)[0]) == n


def _quadratic(x):
    """|x - c|^2 with its gradient; the minimum 0 is at c."""
    d = x - np.array([1.0, -2.0])
    return float(d @ d), 2.0 * d


def test_descend_traces_and_keeps_best():
    start = np.zeros(2)
    best, value, trace = descend(_quadratic, start, 0.1, 12)
    assert len(trace) == 12
    assert trace[0] == _quadratic(start)[0]
    assert value == min(trace) == _quadratic(best)[0]
    assert trace == sorted(trace, reverse=True)
    # an overshooting step makes the start the best iterate
    best, value, trace = descend(_quadratic, start, 1.5, 5)
    assert np.array_equal(best, start) and value == trace[0] == min(trace)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_descend_raises_on_non_finite_objective(bad):
    calls = []

    def objective(x):
        calls.append(x)
        return (bad if len(calls) == 3 else 1.0), np.ones(1)

    with pytest.raises(DivergenceError):
        descend(objective, np.zeros(1), 0.1, 10)
    assert len(calls) == 3

