"""Variational explainer: sampling, KL term, gradients, aggregation."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from provlens.masks import DivergenceError, descend, top_edges
from provlens.model import MaskEvaluator
from provlens.vatg import (
    _NOISE_BLOCK,
    _noise,
    VariationalMaskParams,
    VatgConfig,
    kl_term,
    sample_mask,
    vatg_aggregate_node,
    vatg_explain_event,
    vatg_gradients,
    vatg_loss,
)

from conftest import random_contexts
from test_masks import INTEGER_VALUES, ORACLE_EDGES, _reference_head, oracle_contexts
from test_model import _sized_cases, _tiny_cases, _tiny_model


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_config_validation():
    with pytest.raises(ValueError):
        VatgConfig(lambda_kl=0.0)
    with pytest.raises(ValueError):
        VatgConfig(mc_samples=0)
    with pytest.raises(ValueError):
        VatgConfig(learning_rate=0.0)


def test_sample_mask_zero_noise_is_sigmoid_mu():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=50)
    params = VariationalMaskParams(mu=mu, log_var=rng.normal(size=50))
    out = sample_mask(params, np.zeros(50))
    np.testing.assert_array_equal(out, _sigmoid(mu))


def test_sample_mask_reparameterization():
    params = VariationalMaskParams(
        mu=np.array([0.2, -1.0]), log_var=np.array([0.4, -0.6])
    )
    eps = np.array([1.5, -0.5])
    expected = _sigmoid(params.mu + eps * np.exp(0.5 * params.log_var))
    np.testing.assert_array_equal(sample_mask(params, eps), expected)


def test_sample_mask_shape_check():
    params = VariationalMaskParams(mu=np.zeros(3), log_var=np.zeros(3))
    with pytest.raises(ValueError):
        sample_mask(params, np.zeros(4))


def test_kl_term_anchors():
    zero = VariationalMaskParams(mu=np.zeros(4), log_var=np.zeros(4))
    assert kl_term(zero) == 0.0
    one = VariationalMaskParams(mu=np.array([1.0]), log_var=np.array([0.0]))
    assert kl_term(one) == 0.5


def test_kl_term_nonnegative_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(1, 100)
        params = VariationalMaskParams(
            mu=rng.normal(0, 3, n), log_var=rng.normal(0, 3, n)
        )
        assert kl_term(params) >= 0.0


def test_kl_term_matches_monte_carlo():
    """Oracle: estimate KL(N(mu, s^2) || N(0,1)) by sampling the
    log-density ratio."""
    mu, lv = 0.7, -0.8
    params = VariationalMaskParams(mu=np.array([mu]), log_var=np.array([lv]))
    rng = np.random.default_rng(5)
    s = np.exp(0.5 * lv)
    x = rng.normal(mu, s, 2_000_000)
    log_q = -0.5 * np.log(2 * np.pi) - 0.5 * lv - (x - mu) ** 2 / (2 * s * s)
    log_p = -0.5 * np.log(2 * np.pi) - x * x / 2
    estimate = float(np.mean(log_q - log_p))
    assert kl_term(params) == pytest.approx(estimate, abs=2e-3)


def test_gradients_match_finite_differences(tiny_graph):
    """Oracle: central finite differences of vatg_loss at fixed noise."""
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    n = len(ctx.neighborhood_events)
    cfg = VatgConfig(mc_samples=4)
    rng = np.random.default_rng(2)
    params = VariationalMaskParams(
        mu=rng.normal(0, 0.5, n), log_var=rng.normal(-1.5, 0.3, n)
    )
    eps = rng.standard_normal((cfg.mc_samples, n))
    d_mu, d_lv = vatg_gradients(model, ctx, params, cfg, eps)
    h = 1e-6

    def loss_at(mu, lv):
        return vatg_loss(
            model, ctx, VariationalMaskParams(mu=mu, log_var=lv), cfg, eps
        )

    for j in range(n):
        up_mu, dn_mu = params.mu.copy(), params.mu.copy()
        up_mu[j] += h
        dn_mu[j] -= h
        fd_mu = (loss_at(up_mu, params.log_var) - loss_at(dn_mu, params.log_var)) / (2 * h)
        assert d_mu[j] == pytest.approx(fd_mu, abs=1e-6, rel=1e-4)

        up_lv, dn_lv = params.log_var.copy(), params.log_var.copy()
        up_lv[j] += h
        dn_lv[j] -= h
        fd_lv = (loss_at(params.mu, up_lv) - loss_at(params.mu, dn_lv)) / (2 * h)
        assert d_lv[j] == pytest.approx(fd_lv, abs=1e-6, rel=1e-4)


def _sparsity_penalty(params, k):
    """Sum of the k largest mask means, plus its subgradient w.r.t. mu."""
    means = _sigmoid(params.mu)
    n = len(means)
    top = np.argsort(-means, kind="stable")[: min(k, n)]
    grad = np.zeros(n)
    grad[top] = means[top] * (1.0 - means[top])
    return float(means[top].sum()), grad


def _reference_objective(model, ctx, params, config, epsilons):
    """The per-sample Monte Carlo loop: one one-row evaluator pass per
    noise row, means taken left to right. Returns (loss, d_mu, d_lv)."""
    evaluator = MaskEvaluator(model, ctx)
    n = len(params)
    ce, d_mu, d_lv = 0.0, np.zeros(n), np.zeros(n)
    for eps in epsilons:
        m = sample_mask(params, eps)
        loss, dl_dm = evaluator.loss_and_gradient(m)
        ce += loss
        jac = m * (1.0 - m)
        d_mu += dl_dm * jac
        d_lv += dl_dm * jac * eps * 0.5 * np.exp(0.5 * params.log_var)
    ce /= len(epsilons)
    d_mu /= len(epsilons)
    d_lv /= len(epsilons)

    d_mu += config.lambda_kl * params.mu
    d_lv += config.lambda_kl * 0.5 * (np.exp(params.log_var) - 1.0)
    omega, omega_grad = _sparsity_penalty(params, config.sparsity_top_k)
    d_mu += config.lambda_sp * omega_grad
    loss = ce + config.lambda_kl * kl_term(params) + config.lambda_sp * omega
    return loss, d_mu, d_lv


def _context_with(contexts, n):
    return next(c for c in contexts if len(c.neighborhood_events) == n)


def _random_params(rng, n):
    return VariationalMaskParams(
        mu=rng.normal(0, 1.0, n), log_var=rng.normal(-1.5, 0.5, n)
    )


@pytest.mark.parametrize("samples", [1, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 9, 20])
def test_batched_objective_matches_per_sample_loop(model, contexts, samples, n):
    ctx = _context_with(contexts, n)
    cfg = VatgConfig(mc_samples=samples)
    rng = np.random.default_rng(100 * samples + n)
    for _ in range(5):
        params = _random_params(rng, n)
        eps = rng.standard_normal((samples, n))
        loss_ref, d_mu_ref, d_lv_ref = _reference_objective(
            model, ctx, params, cfg, eps)
        d_mu, d_lv = vatg_gradients(model, ctx, params, cfg, eps)
        assert vatg_loss(model, ctx, params, cfg, eps) == pytest.approx(
            loss_ref, rel=0, abs=1e-12)
        np.testing.assert_allclose(d_mu, d_mu_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_lv, d_lv_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("samples", [1, 8])
def test_gradients_match_finite_differences_narrow_and_wide(
        model, contexts, samples):
    """Central differences of vatg_loss at fixed noise, on trained-model
    contexts with one edge and with ten or more, at one sample and at
    the default eight."""
    rng = np.random.default_rng(samples)
    cfg = VatgConfig(mc_samples=samples)
    narrow = random_contexts(contexts, rng, 3, max_edges=1)
    wide = random_contexts(contexts, rng, 3, min_edges=10)
    h = 1e-6
    for ctx in narrow + wide:
        n = len(ctx.neighborhood_events)
        params = _random_params(rng, n)
        eps = rng.standard_normal((samples, n))
        grads = vatg_gradients(model, ctx, params, cfg, eps)
        x = np.stack([params.mu, params.log_var])
        for which, grad in enumerate(grads):
            for j in range(n):
                up, dn = x.copy(), x.copy()
                up[which, j] += h
                dn[which, j] -= h
                fd = (vatg_loss(model, ctx, VariationalMaskParams(*up), cfg, eps)
                      - vatg_loss(model, ctx, VariationalMaskParams(*dn), cfg, eps)
                      ) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6, rel=1e-4)


# ----------------------------------------------------------------------
# bitwise oracle: vatg._objective as it was written before its fused
# form (np.mean, exp(log_var) twice, a params object per evaluation),
# with the batched pass as MaskEvaluator and model._head then wrote it
# ----------------------------------------------------------------------

def _reference_kl(params):
    mu, lv = params.mu, params.log_var
    return float(0.5 * np.sum(mu * mu + np.exp(lv) - 1.0 - lv))


def _reference_batched_pass(evaluator, masks):
    Z, P = _reference_head(evaluator.a0 + masks @ evaluator.B.T,
                           evaluator.Wo, evaluator.bo)
    rows = np.arange(len(masks))
    losses = -np.log(np.maximum(P[rows, evaluator.y], 1e-300))
    P[rows, evaluator.y] -= 1.0
    return losses, ((1.0 - Z * Z) * (P @ evaluator.Wo)) @ evaluator.B


def _reference_batched_objective(evaluator, params, config, epsilons):
    sd = np.exp(0.5 * params.log_var)
    masks = _sigmoid(params.mu + epsilons * sd)
    losses, dl_dm = _reference_batched_pass(evaluator, masks)
    dl_dx = dl_dm * (masks * (1.0 - masks))
    grad = np.stack([dl_dx.mean(0), (dl_dx * epsilons * 0.5 * sd).mean(0)])
    d_mu, d_lv = grad

    d_mu += config.lambda_kl * params.mu
    d_lv += config.lambda_kl * 0.5 * (np.exp(params.log_var) - 1.0)

    omega, omega_grad = _sparsity_penalty(params, config.sparsity_top_k)
    d_mu += config.lambda_sp * omega_grad
    loss = (float(losses.mean()) + config.lambda_kl * _reference_kl(params)
            + config.lambda_sp * omega)
    return loss, grad


def _reference_explain(model, ctx, config):
    """(best [mu; log_var], importance, trace) of vatg_explain_event, its
    noise drawn at every evaluation."""
    n = len(ctx.neighborhood_events)
    evaluator = MaskEvaluator(model, ctx)
    rng = np.random.default_rng(config.seed)

    def objective(x):
        eps = rng.standard_normal((config.mc_samples, n))
        params = VariationalMaskParams(mu=x[0], log_var=x[1])
        return _reference_batched_objective(evaluator, params, config, eps)

    start = np.stack([np.zeros(n), np.full(n, -2.0)])
    best, _, trace = descend(objective, start, config.learning_rate, config.epochs)
    return best, _sigmoid(best[0]), trace


def _assert_explain_equal(model, ctx, config):
    """vatg_explain_event and the reference give the same parameters,
    importances, trace and top edges, or diverge at the same evaluation."""
    try:
        best, importance, trace = _reference_explain(model, ctx, config)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as got:
            vatg_explain_event(model, ctx, config)
        assert str(got.value) == str(exc)
        return
    out = vatg_explain_event(model, ctx, config)
    assert out.params.mu.tobytes() == best[0].tobytes()
    assert out.params.log_var.tobytes() == best[1].tobytes()
    assert out.importance.tobytes() == importance.tobytes()
    assert out.trace == trace
    assert out.top_edges == top_edges(ctx, importance, 3)[1]


@pytest.mark.parametrize("config", [VatgConfig(), VatgConfig(mc_samples=1)],
                         ids=["default", "mc_samples=1"])
def test_explain_is_bitwise_the_reference(model, contexts, config):
    for ctx in oracle_contexts(contexts, 31):
        _assert_explain_equal(model, ctx, config)


@settings(max_examples=40, deadline=None)
@given(_tiny_cases(), st.sampled_from([0.01, 1.0, 100.0]), st.integers(1, 3),
       st.integers(0, 2))
def test_small_contexts_are_bitwise_the_reference(case, learning_rate, samples,
                                                  seed):
    """Untrained models on small random graphs, at several learning
    rates, sample counts and seeds."""
    model, ctx, _ = case
    assume(ctx.neighborhood_events)
    _assert_explain_equal(model, ctx, VatgConfig(
        epochs=20, mc_samples=samples, learning_rate=learning_rate, seed=seed))


@pytest.mark.parametrize("edges", ORACLE_EDGES)
@settings(max_examples=8, deadline=None)
@given(st.data(), st.sampled_from([0.01, 1.0, 100.0]), st.sampled_from([1, 2, 8, 33]),
       st.integers(0, 2))
def test_sized_contexts_are_bitwise_the_reference(edges, data, learning_rate,
                                                  samples, seed):
    """The small-context oracle above on contexts of exactly ``edges``
    edges, with sample counts on both sides of numpy's 8-element
    pairwise block."""
    test_small_contexts_are_bitwise_the_reference.hypothesis.inner_test(
        data.draw(_sized_cases(edges)), learning_rate, samples, seed)


@settings(max_examples=40, deadline=None)
@given(_tiny_cases(), INTEGER_VALUES, INTEGER_VALUES, INTEGER_VALUES,
       st.integers(1, 3), st.integers(0, 2))
def test_integer_config_values_are_bitwise_the_reference(case, learning_rate,
                                                         lambda_kl, lambda_sp,
                                                         samples, seed):
    """Integer learning rates, lambda_kl and lambda_sp (the config needs
    all three positive) give the reference objective at random
    parameters and the reference descent, or its DivergenceError at the
    same evaluation."""
    model, ctx, _ = case
    assume(ctx.neighborhood_events)
    config = VatgConfig(epochs=10, mc_samples=samples, seed=seed,
                        learning_rate=learning_rate, lambda_kl=lambda_kl,
                        lambda_sp=lambda_sp)
    n = len(ctx.neighborhood_events)
    rng = np.random.default_rng(seed)
    params = _random_params(rng, n)
    eps = rng.standard_normal((samples, n))
    loss, (d_mu, d_lv) = _reference_batched_objective(
        MaskEvaluator(model, ctx), params, config, eps)
    assert repr(vatg_loss(model, ctx, params, config, eps)) == repr(loss)
    got_mu, got_lv = vatg_gradients(model, ctx, params, config, eps)
    assert got_mu.tobytes() == d_mu.tobytes() and got_lv.tobytes() == d_lv.tobytes()
    _assert_explain_equal(model, ctx, config)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(1, 6), st.integers(1, 4),
       st.integers(1, 5))
def test_one_noise_draw_is_one_draw_per_evaluation(seed, epochs, samples, n):
    """vatg_explain_event draws (epochs, S, n) at once; the generator
    yields the same numbers as one (S, n) draw per evaluation."""
    whole = np.random.default_rng(seed).standard_normal((epochs, samples, n))
    rng = np.random.default_rng(seed)
    for block in whole:
        assert block.tobytes() == rng.standard_normal((samples, n)).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 3), st.sampled_from([-1, 0, 1]),
       st.integers(1, 3), st.integers(1, 4))
def test_noise_blocks_are_the_one_draw(seed, blocks, offset, samples, n):
    """The noise vatg_explain_event draws _NOISE_BLOCK evaluations at a
    time is bitwise one (epochs, S, n) draw, at epoch counts just below,
    at and just above a block boundary."""
    epochs = blocks * _NOISE_BLOCK + offset
    assume(epochs >= 1)
    whole = np.random.default_rng(seed).standard_normal((epochs, samples, n))
    got = list(_noise(np.random.default_rng(seed), epochs, samples, n))
    assert len(got) == epochs
    assert np.array(got).tobytes() == whole.tobytes()


def test_noise_memory_does_not_grow_with_epochs(model, contexts):
    """At 2,000 epochs of 64 samples on a wide context, one draw of all
    the noise would hold 2000 * 64 * n floats (about 20 MB at 20 edges);
    the traced peak of an event stays under 2 MiB."""
    ctx = random_contexts(contexts, np.random.default_rng(34), 1, min_edges=15)[0]
    config = VatgConfig(epochs=2000, mc_samples=64)
    tracemalloc.start()
    try:
        vatg_explain_event(model, ctx, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("samples", [1, 3, 8])
def test_objective_is_bitwise_the_reference(model, contexts, samples):
    """vatg_loss, vatg_gradients and the evaluator's batched pass at
    random parameters and noise."""
    rng = np.random.default_rng(samples)
    cfg = VatgConfig(mc_samples=samples)
    for ctx in oracle_contexts(contexts, 32):
        n = len(ctx.neighborhood_events)
        params = _random_params(rng, n)
        eps = rng.standard_normal((samples, n))
        evaluator = MaskEvaluator(model, ctx)
        loss, (d_mu, d_lv) = _reference_batched_objective(evaluator, params, cfg, eps)
        assert vatg_loss(model, ctx, params, cfg, eps) == loss
        got_mu, got_lv = vatg_gradients(model, ctx, params, cfg, eps)
        assert np.array_equal(got_mu, d_mu) and np.array_equal(got_lv, d_lv)
        masks = _sigmoid(rng.normal(size=(samples, n)))
        for got, expected in zip(evaluator.losses_and_gradients(masks),
                                 _reference_batched_pass(evaluator, masks)):
            assert np.array_equal(got, expected)


def test_divergence_comes_at_the_reference_evaluation(model, contexts):
    config = VatgConfig(learning_rate=1e300)
    for ctx in oracle_contexts(contexts, 33):
        with pytest.raises(DivergenceError) as expected:
            _reference_explain(model, ctx, config)
        with pytest.raises(DivergenceError) as got:
            vatg_explain_event(model, ctx, config)
        assert str(got.value) == str(expected.value)


def test_empty_neighborhood_is_rejected(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    params = VariationalMaskParams(mu=np.zeros(0), log_var=np.zeros(0))
    for fn in (vatg_loss, vatg_gradients):
        with pytest.raises(ValueError, match="empty neighborhood"):
            fn(model, ctxs[0], params, VatgConfig(), np.zeros((4, 0)))


def test_params_of_wrong_length_are_rejected(tiny_graph):
    """A length-1 mu or log_var would broadcast against the (S, n) noise."""
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    n = len(ctx.neighborhood_events)
    eps = np.zeros((4, n))
    for bad in ("mu", "log_var"):
        for length in (1, n + 1):
            params = VariationalMaskParams(mu=np.zeros(n), log_var=np.zeros(n))
            setattr(params, bad, np.zeros(length))
            for fn in (vatg_loss, vatg_gradients):
                with pytest.raises(ValueError,
                                   match=re.escape(f"params.{bad} shape ({length},)")):
                    fn(model, ctx, params, VatgConfig(), eps)


def test_noise_of_wrong_shape_is_rejected(tiny_graph):
    """No samples, a noise row of the wrong width, a 1-D draw and a
    trailing axis are all rejected rather than divided by zero or
    broadcast."""
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    n = len(ctx.neighborhood_events)
    params = VariationalMaskParams(mu=np.zeros(n), log_var=np.zeros(n))
    for shape in ((0, n), (8, 1), (8, n, 1), (n,), (8, n + 1)):
        for fn in (vatg_loss, vatg_gradients):
            with pytest.raises(ValueError, match=re.escape(f"epsilons shape {shape}")):
                fn(model, ctx, params, VatgConfig(), np.zeros(shape))


def test_explain_empty_neighborhood_is_none(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    assert vatg_explain_event(model, ctxs[0]) is None


def test_explain_seeded_determinism(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    cfg = VatgConfig(epochs=20, seed=4)
    a = vatg_explain_event(model, ctx, cfg)
    b = vatg_explain_event(model, ctx, cfg)
    np.testing.assert_array_equal(a.params.mu, b.params.mu)
    np.testing.assert_array_equal(a.importance, b.importance)
    assert a.trace == b.trace
    assert len(a.trace) == cfg.epochs


def test_importance_is_sigmoid_of_mu(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    out = vatg_explain_event(model, ctxs[-1], VatgConfig(epochs=10))
    np.testing.assert_array_equal(out.importance, _sigmoid(out.params.mu))
    # top edges ranked by importance, ties by index
    imps = [w for *_, w in out.top_edges]
    assert imps == sorted(imps, reverse=True)


def test_best_iterate_is_returned(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    cfg = VatgConfig(epochs=30, seed=9)
    out = vatg_explain_event(model, ctx, cfg)
    # the reported parameters achieve the minimum traced loss when
    # re-evaluated against the same noise sequence
    rng = np.random.default_rng(cfg.seed)
    n = len(ctx.neighborhood_events)
    best_epoch = int(np.argmin(out.trace))
    for _ in range(best_epoch):
        rng.standard_normal((cfg.mc_samples, n))
    eps = rng.standard_normal((cfg.mc_samples, n))
    replayed = vatg_loss(model, ctx, out.params, cfg, eps)
    assert replayed == pytest.approx(min(out.trace))


def test_divergence_is_reported_as_divergence_error(tiny_graph):
    """A finite but huge step overflows the loss; the CLI maps the
    error to its argument exit code."""
    from provlens.model import DivergenceError

    model, ctxs = _tiny_model(tiny_graph)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            vatg_explain_event(model, ctxs[-1],
                               VatgConfig(epochs=5, learning_rate=1e300))


def test_aggregate_mean_and_variance():
    from provlens.graph import Event, Relation

    from test_graphmask import _ctx

    e = Event(1, 2, Relation.READ, 1)
    ctx_a = _ctx([e])
    ctx_b = _ctx([e])

    def fake(imp):
        params = VariationalMaskParams(mu=np.zeros(1), log_var=np.zeros(1))
        from provlens.vatg import VatgExplanation

        return VatgExplanation(0, params, np.array([imp]), [], [])

    rows = vatg_aggregate_node([(ctx_a, fake(0.2)), (ctx_b, fake(0.8))])
    assert len(rows) == 1
    assert rows[0].mean == pytest.approx(0.5)
    assert rows[0].var == pytest.approx(0.09)  # population variance


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        vatg_aggregate_node([])
