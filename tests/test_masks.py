"""Helpers shared by the explainers and the config type rule."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from provlens.detect import DetectorConfig
from provlens.gnnexplainer import (
    FidelityMetrics,
    GnnExplainerConfig,
    gnn_explain_event,
)
from provlens.graphmask import GraphMaskConfig, graphmask_explain_event
from provlens.masks import (
    DivergenceError,
    binary_entropy,
    descend,
    descend_mask,
    ordered_sum,
    sigmoid,
    top_edges,
)
from provlens.model import MaskEvaluator, ModelConfig
from provlens.pipeline import PipelineConfig
from provlens.vatg import VatgConfig, vatg_explain_event

from conftest import random_contexts
from test_model import _sized_cases, _tiny_cases, _tiny_model


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


_INTEGER_FIELDS = [
    (GraphMaskConfig, "epochs"),
    (GnnExplainerConfig, "epochs"),
    (GnnExplainerConfig, "top_k"),
    (VatgConfig, "mc_samples"),
    (VatgConfig, "epochs"),
    (VatgConfig, "sparsity_top_k"),
    (VatgConfig, "seed"),
]


@pytest.mark.parametrize("cls, field", _INTEGER_FIELDS)
@pytest.mark.parametrize("value", [True, False, np.True_, 2.5, 3.0, 1e9, "3"])
def test_integer_fields_reject_bools_and_non_integers(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", _INTEGER_FIELDS)
def test_integer_fields_accept_numpy_integers(cls, field):
    config = cls(**{field: np.int32(3)})
    assert getattr(config, field) == 3


def test_vatg_seed_is_not_negative():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        VatgConfig(seed=-1)
    assert VatgConfig(seed=0).seed == 0


_CONFIGS = [ModelConfig, DetectorConfig, PipelineConfig, GraphMaskConfig,
            GnnExplainerConfig, VatgConfig]


def _fields(pick):
    """(class, field) for every init field of the configs whose
    annotation string passes ``pick``."""
    return [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
            for cls in _CONFIGS for f in dataclasses.fields(cls)
            if f.init and pick(f.type)]


_INT_FIELDS = _fields(lambda t: t.removesuffix(" | None") == "int")
_FLOAT_FIELDS = _fields(lambda t: t.removesuffix(" | None") == "float")
_OPTIONAL_FIELDS = _fields(lambda t: t.endswith(" | None"))


@pytest.mark.parametrize("cls", _CONFIGS)
def test_config_annotations_are_strings(cls):
    """The type rule reads annotations as strings; a module without
    ``from __future__ import annotations`` would leave its fields unchecked."""
    assert all(isinstance(f.type, str) for f in dataclasses.fields(cls))


@pytest.mark.parametrize("cls, field", _INT_FIELDS)
@pytest.mark.parametrize("value", [True, np.True_, 2.5, "3"])
def test_declared_int_fields_reject_non_integers(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", _INT_FIELDS)
def test_declared_int_fields_accept_numpy_integers(cls, field):
    # 4 rather than 3: time_dim must be even
    assert cls(**{field: np.int32(4)}) == cls(**{field: 4})


@pytest.mark.parametrize("cls, field", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400,
                                   True, "0.01"])
def test_declared_float_fields_reject_non_finite_and_non_numbers(cls, field,
                                                                 value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", _FLOAT_FIELDS)
def test_declared_float_fields_accept_ints(cls, field):
    assert cls(**{field: 1}) == cls(**{field: 1.0})


@pytest.mark.parametrize("cls, field", _OPTIONAL_FIELDS)
def test_optional_fields_accept_none(cls, field):
    assert getattr(cls(**{field: None}), field) is None


def test_model_seed_is_not_negative():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ModelConfig(seed=-1)
    assert ModelConfig(seed=0).seed == 0


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



# ----------------------------------------------------------------------
# bitwise oracles: the mask objective as it was written before
# descend_mask fused its step and cut its numpy calls (one
# loss_and_gradient pass through the head with the transposes taken per
# call, the penalties from binary_entropy, the slope always multiplied),
# with the head pass as model._head then wrote it
# ----------------------------------------------------------------------

def _reference_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _reference_head(A, Wo, bo):
    Z = np.tanh(A)
    logits = (Z @ Wo.T + bo).T
    expl = np.exp(logits - logits.max(0))
    return Z, (expl / expl.sum(0)).T


def _reference_pass(evaluator, m):
    """(probs, loss, z) of MaskEvaluator's one-row pass."""
    z, probs = _reference_head(evaluator.a0 + evaluator.B @ m,
                               evaluator.Wo, evaluator.bo)
    return probs, float(-np.log(max(probs[evaluator.y], 1e-300))), z


def _reference_descend_mask(evaluator, config, data_term):
    def loss_and_gradient(m):
        probs, loss, z = _reference_pass(evaluator, m)
        dlogits = probs.copy()
        dlogits[evaluator.y] -= 1.0
        return loss, evaluator.B.T @ ((1.0 - z * z) * (evaluator.Wo.T @ dlogits))

    def objective(theta):
        m = _reference_sigmoid(theta)
        loss, dl_dm = loss_and_gradient(m)
        value, slope = data_term(loss)
        j = (
            value
            + config.sparsity_weight * m.sum()
            + config.entropy_weight * binary_entropy(m).sum()
        )
        dj_dm = (
            slope * dl_dm
            + config.sparsity_weight
            + config.entropy_weight * np.log((1.0 - m) / m)
        )
        return j, dj_dm * m * (1.0 - m)

    theta, best_j, trace = descend(objective, np.zeros(evaluator.n),
                                   config.learning_rate, config.epochs + 1)
    return _reference_sigmoid(theta), best_j, trace


def _graphmask_term(evaluator):
    """GraphMask's data term on the reference pass."""
    _, loss_orig, _ = _reference_pass(evaluator, np.ones(evaluator.n))
    return lambda loss: (abs(loss - loss_orig), np.sign(loss - loss_orig))


def _gnn_term(loss):
    return loss, 1.0


def _reference_graphmask(model, ctx, config):
    """(values, objective, initial_objective)."""
    evaluator = MaskEvaluator(model, ctx)
    values, best_j, trace = _reference_descend_mask(evaluator, config,
                                                    _graphmask_term(evaluator))
    return values, best_j, trace[0]


def _reference_gnn(model, ctx, config):
    """(mask, top-edge rows, fidelity)."""
    evaluator = MaskEvaluator(model, ctx)
    mask, _, _ = _reference_descend_mask(evaluator, config, _gnn_term)
    top, rows = top_edges(ctx, mask, config.top_k)
    n, y = evaluator.n, evaluator.y
    p_original = float(_reference_pass(evaluator, np.ones(n))[0][y])
    removed, kept = np.ones(n), np.zeros(n)
    removed[top], kept[top] = 0.0, 1.0
    p_removed = float(_reference_pass(evaluator, removed)[0][y])
    p_kept = (p_original if len(top) == n
              else float(_reference_pass(evaluator, kept)[0][y]))
    return mask, rows, FidelityMetrics(p_original - p_removed, p_original - p_kept)


def oracle_contexts(contexts, seed):
    """Seed-7 contexts: two with one edge, two with two, two with nine and
    three with ten to twenty."""
    rng = np.random.default_rng(seed)
    return (random_contexts(contexts, rng, 2, max_edges=1)
            + random_contexts(contexts, rng, 2, min_edges=2, max_edges=2)
            + random_contexts(contexts, rng, 2, min_edges=9, max_edges=9)
            + random_contexts(contexts, rng, 3, min_edges=10, max_edges=20))


def _assert_descents_equal(evaluator, config, data_term):
    """descend_mask and the reference give the same mask, objective and
    trace, or diverge at the same evaluation."""
    try:
        expected = _reference_descend_mask(evaluator, config, data_term)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as got:
            descend_mask(evaluator, config, data_term)
        assert str(got.value) == str(exc)
        return
    got = descend_mask(evaluator, config, data_term)
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1:] == expected[1:]


@pytest.mark.parametrize("config, term", [
    (GraphMaskConfig(), "graphmask"),
    (GnnExplainerConfig(), "gnnexplainer"),
    (GnnExplainerConfig(sparsity_weight=0.0), "graphmask"),
    (GnnExplainerConfig(entropy_weight=0.0), "graphmask"),
], ids=["graphmask", "gnnexplainer", "sparsity_weight=0", "entropy_weight=0"])
def test_descend_mask_traces_are_bitwise_the_reference(model, contexts, config,
                                                       term):
    """Every evaluation's objective, not only the best one, under
    GraphMask's data term (a slope of -1 or 1) and GNNExplainer's (a
    slope of 1.0, which the step does not multiply)."""
    for ctx in oracle_contexts(contexts, 20):
        evaluator = MaskEvaluator(model, ctx)
        data_term = _graphmask_term(evaluator) if term == "graphmask" else _gnn_term
        _assert_descents_equal(evaluator, config, data_term)


@settings(max_examples=40, deadline=None)
@given(_tiny_cases(), st.sampled_from([0.01, 1.0, 100.0]))
def test_small_contexts_are_bitwise_the_reference(case, learning_rate):
    """Untrained models on small random graphs: GraphMask's and
    GNNExplainer's descents and outputs; at learning rate 100 a descent
    may diverge, and then at the same evaluation."""
    model, ctx, _ = case
    assume(ctx.neighborhood_events)
    evaluator = MaskEvaluator(model, ctx)
    gm_config = GraphMaskConfig(epochs=30, learning_rate=learning_rate)
    gnn_config = GnnExplainerConfig(epochs=30, learning_rate=learning_rate)
    _assert_descents_equal(evaluator, gm_config, _graphmask_term(evaluator))
    _assert_descents_equal(evaluator, gnn_config, _gnn_term)
    for explain, reference, config, mask_of in (
        (graphmask_explain_event, _reference_graphmask, gm_config,
         lambda out: (out.values, out.objective, out.initial_objective)),
        (gnn_explain_event, _reference_gnn, gnn_config,
         lambda out: (out.mask, out.top_edges, out.fidelity)),
    ):
        try:
            expected = reference(model, ctx, config)
        except DivergenceError:
            continue    # the descents above compared the messages
        got = mask_of(explain(model, ctx, config))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1:] == expected[1:]


#: mask widths around numpy's pairwise sum, which changes method at 8
#: elements, up to the widest neighborhood (2 * horizon)
ORACLE_EDGES = [1, 7, 8, 9, 20]


@pytest.mark.parametrize("edges", ORACLE_EDGES)
@settings(max_examples=8, deadline=None)
@given(st.data(), st.sampled_from([0.01, 1.0, 100.0]))
def test_sized_contexts_are_bitwise_the_reference(edges, data, learning_rate):
    """The small-context oracle above on contexts of exactly ``edges``
    edges."""
    test_small_contexts_are_bitwise_the_reference.hypothesis.inner_test(
        data.draw(_sized_cases(edges)), learning_rate)


#: integer-valued config numbers, which the float type rule accepts:
#: small ones, and 10**30, past int64, of which np.array and np.full make
#: an object array; the loops' constants must carry each as the Python
#: number did
INTEGER_VALUES = st.sampled_from([1, 2, 3, 10**30])


@settings(max_examples=40, deadline=None)
@given(_tiny_cases(), INTEGER_VALUES, st.one_of(st.just(0), INTEGER_VALUES),
       st.one_of(st.just(0), INTEGER_VALUES))
def test_integer_config_values_are_bitwise_the_reference(case, learning_rate,
                                                         sparsity, entropy):
    """Integer learning rates and penalty weights, zero where a config
    allows it (GNNExplainer's weights), give the reference descent's
    masks, objectives and traces, or its DivergenceError at the same
    evaluation."""
    model, ctx, _ = case
    assume(ctx.neighborhood_events)
    evaluator = MaskEvaluator(model, ctx)
    weights = dict(learning_rate=learning_rate, sparsity_weight=sparsity,
                   entropy_weight=entropy)
    _assert_descents_equal(evaluator, GnnExplainerConfig(epochs=10, **weights),
                           _gnn_term)
    if sparsity and entropy:
        _assert_descents_equal(evaluator, GraphMaskConfig(epochs=10, **weights),
                               _graphmask_term(evaluator))


def test_graphmask_is_bitwise_the_reference(model, contexts):
    config = GraphMaskConfig()
    for ctx in oracle_contexts(contexts, 21):
        out = graphmask_explain_event(model, ctx, config)
        values, objective, initial = _reference_graphmask(model, ctx, config)
        assert np.array_equal(out.values, values)
        assert out.objective == objective
        assert out.initial_objective == initial


@pytest.mark.parametrize("config", [
    GnnExplainerConfig(),
    GnnExplainerConfig(sparsity_weight=0.0),
    GnnExplainerConfig(entropy_weight=0.0),
], ids=["default", "sparsity_weight=0", "entropy_weight=0"])
def test_gnnexplainer_is_bitwise_the_reference(model, contexts, config):
    for ctx in oracle_contexts(contexts, 22):
        out = gnn_explain_event(model, ctx, config)
        mask, rows, fid = _reference_gnn(model, ctx, config)
        assert np.array_equal(out.mask, mask)
        assert out.top_edges == rows
        assert out.fidelity == fid


def test_divergence_comes_at_the_reference_evaluation(model, contexts):
    """At learning_rate 100 a descent either diverges at the same
    evaluation as the reference or returns the same result."""
    rng = np.random.default_rng(23)
    ctxs = (random_contexts(contexts, rng, 8, max_edges=9)
            + random_contexts(contexts, rng, 8, min_edges=10))
    runs = [
        (graphmask_explain_event, _reference_graphmask,
         GraphMaskConfig(learning_rate=100.0), lambda out: out.values),
        (gnn_explain_event, _reference_gnn,
         GnnExplainerConfig(learning_rate=100.0), lambda out: out.mask),
    ]
    for explain, reference, config, mask_of in runs:
        diverged = 0
        for ctx in ctxs:
            try:
                expected = reference(model, ctx, config)
            except DivergenceError as exc:
                with pytest.raises(DivergenceError) as got:
                    explain(model, ctx, config)
                assert str(got.value) == str(exc)
                diverged += 1
            else:
                assert np.array_equal(mask_of(explain(model, ctx, config)),
                                      expected[0])
        assert diverged > 0


def test_evaluator_passes_per_event(model, contexts, monkeypatch):
    """A count of the work per event that does not depend on the host,
    at the default configs: GraphMask one forward (the unmasked loss)
    and epochs + 1 = 201 one-row steps; GNNExplainer 251 steps and a
    forward per fidelity probability (the kept-edges one only when the
    top edges are not all of the edges); VA-TG one batched pass per
    epoch, 150."""
    calls = Counter()
    for name in ("forward", "loss_and_gradient", "losses_and_gradients"):
        def counted(self, *args, _method=getattr(MaskEvaluator, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(MaskEvaluator, name, counted)

    for ctx in oracle_contexts(contexts, 24):
        calls.clear()
        graphmask_explain_event(model, ctx)
        assert calls == {"forward": 1, "loss_and_gradient": 201}
        calls.clear()
        out = gnn_explain_event(model, ctx)
        kept = len(out.top_edges) < len(ctx.neighborhood_events)
        assert calls == {"loss_and_gradient": 251, "forward": 2 + kept}
        calls.clear()
        vatg_explain_event(model, ctx)
        assert calls == {"losses_and_gradients": 150}


def test_ordered_sum_adds_left_to_right():
    """Python 3.12's compensated sum() gives 2.0 here; report figures
    must keep the uncompensated left-to-right value on every version."""
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
