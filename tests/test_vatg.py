"""Variational explainer: sampling, KL term, gradients, aggregation."""

import numpy as np
import pytest

from provlens.vatg import (
    VariationalMaskParams,
    VatgConfig,
    kl_term,
    sample_mask,
    vatg_aggregate_node,
    vatg_explain_event,
    vatg_gradients,
    vatg_loss,
)

from test_model import _tiny_model


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
