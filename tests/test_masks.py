"""Helpers shared by the explainers and the finite-value config contract."""

import math

import numpy as np
import pytest

from provlens.gnnexplainer import GnnExplainerConfig
from provlens.graphmask import GraphMaskConfig
from provlens.masks import binary_entropy, sigmoid, top_edges
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
