"""Variational temporal edge-mask explainer.

Each neighborhood edge gets logistic-normal mask parameters (mu,
log_var). Masks are sampled via the reparameterization trick

    m = sigmoid(mu + eps * exp(0.5 * log_var)),   eps ~ N(0, 1)

and (mu, log_var) are optimized on a Monte Carlo estimate of the masked
cross-entropy plus a closed-form KL penalty toward the unit Gaussian
prior and a sparsity penalty on the largest mask means, by the same
:func:`masks.descend` loop that GraphMask and GNNExplainer run. Each
evaluation takes an (S, n) noise matrix, drawn from the seeded stream
with those of the next evaluations in blocks of :data:`_NOISE_BLOCK`,
and scores its S sampled masks in one batched :class:`MaskEvaluator`
pass. One objective, :func:`_objective`, serves
:func:`vatg_explain_event`, :func:`vatg_loss` and
:func:`vatg_gradients`; it is built once per descent, with its
constants as 0-d arrays and its buffers, and it takes mu and log_var as
arrays, computes exp(log_var) once per evaluation, the sampled masks
and sigmoid(mu) in one ``sigmoid`` call, and both Monte Carlo means
with one ``np.add.reduce``, the reduction ``np.mean`` makes. The mask
means sigmoid(mu) serve as edge importances; the loss trace is kept as
an optimization diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EventContext, Relation
from .masks import (ONE, check_fields, constant, descend, edge_groups, ordered_sum,
                    sigmoid, top_edges)
from .model import MaskEvaluator, TgnModel

_INIT_LOG_VAR = -2.0
_HALF = constant(0.5)
#: evaluations per noise draw of :func:`vatg_explain_event`; a draw holds
#: _NOISE_BLOCK * mc_samples * n floats, whatever the epoch count
_NOISE_BLOCK = 32


@dataclass(frozen=True)
class VatgConfig:
    lambda_kl: float = 1e-3
    lambda_sp: float = 1e-3
    mc_samples: int = 8
    epochs: int = 150
    learning_rate: float = 0.01
    sparsity_top_k: int = 5
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.lambda_kl <= 0 or self.lambda_sp <= 0:
            raise ValueError("penalty weights must be positive")
        if self.mc_samples < 1 or self.epochs < 1 or self.sparsity_top_k < 1:
            raise ValueError("mc_samples, epochs, sparsity_top_k must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class VariationalMaskParams:
    mu: np.ndarray
    log_var: np.ndarray

    def __len__(self) -> int:
        return len(self.mu)


@dataclass
class VatgExplanation:
    event_index: int
    params: VariationalMaskParams
    importance: np.ndarray          # sigmoid(mu)
    trace: list[float]              # per-epoch loss values
    top_edges: list[tuple[int, int, Relation, float]]


def sample_mask(params: VariationalMaskParams, epsilon: np.ndarray) -> np.ndarray:
    """m = sigmoid(mu + eps * exp(0.5 * log_var)); eps = 0 gives sigmoid(mu)."""
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape != params.mu.shape:
        raise ValueError(
            f"epsilon shape {epsilon.shape} != params shape {params.mu.shape}"
        )
    return sigmoid(params.mu + epsilon * np.exp(0.5 * params.log_var))


def kl_term(params: VariationalMaskParams) -> float:
    """Closed-form KL(N(mu, sigma^2) || N(0, 1)), summed over edges."""
    return _kl(params.mu, params.log_var, np.exp(params.log_var))


def _kl(mu: np.ndarray, log_var: np.ndarray, var: np.ndarray) -> float:
    """:func:`kl_term` given var = exp(log_var)."""
    return 0.5 * float(np.add.reduce(mu * mu + var - ONE - log_var))


def _objective(evaluator: MaskEvaluator, config: VatgConfig, samples: int):
    """The Monte Carlo objective of ``samples`` noise rows per evaluation,
    as a function ``objective(mu, log_var, epsilons)`` of the parameters
    and an ``(samples, n)`` noise draw that returns the objective and its
    closed-form gradient w.r.t. [mu; log_var] as a (2, n) array.

    The S sampled masks and the mask means ``sigmoid(mu)`` are the rows
    of one ``(S + 1, n)`` buffer, squashed by one ``sigmoid`` call; one
    batched evaluator pass over the first S rows gives their losses and
    mask gradients. The two Monte Carlo terms, the gradient in mu and in
    log_var of each sample, are the two planes of one ``(2, S, n)``
    buffer, whose means over the sample axis are one
    ``np.add.reduce(.., 1)`` divided by S in place: row by row what
    ``np.mean`` computes. ``exp(log_var)`` serves the KL term and its
    gradient, and the mask means the sparsity penalty (the sum of the
    ``sparsity_top_k`` largest) and its subgradient; each is computed
    once.

    Both buffers, the constants S, 0.5, 1.0, lambda_kl, lambda_kl * 0.5
    and lambda_sp as 0-d arrays (:func:`masks.constant`), the evaluator's
    bound batched pass and the numpy functions are bound once, here; an
    evaluation makes the same float operations on the same values in
    the same order as with Python-number operands."""
    n, k = evaluator.n, config.sparsity_top_k
    kl, sp = float(config.lambda_kl), float(config.lambda_sp)
    kl_c, kl_half_c, sp_c = constant(kl), constant(kl * 0.5), constant(sp)
    s_c = constant(samples)
    one, half = ONE, _HALF
    x, terms = np.empty((samples + 1, n)), np.empty((2, samples, n))
    masks, means = x[:samples], x[samples]
    dl_dx, lv_terms = terms
    losses_and_gradients = evaluator.losses_and_gradients
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    exp, copyto, zeros, add_reduce = np.exp, np.copyto, np.zeros, np.add.reduce

    def objective(mu, log_var, epsilons):
        sd = exp(multiply(half, log_var))
        var = exp(log_var)
        multiply(epsilons, sd, out=masks)
        add(masks, mu, out=masks)
        copyto(means, mu)
        sigmoid(x, out=x)
        losses, dl_dm = losses_and_gradients(masks)
        multiply(dl_dm, masks * subtract(one, masks), out=dl_dx)
        multiply(dl_dx, epsilons, out=lv_terms)
        multiply(lv_terms, half, out=lv_terms)
        multiply(lv_terms, sd, out=lv_terms)
        grad = add_reduce(terms, 1)
        divide(grad, s_c, out=grad)
        d_mu, d_lv = grad

        add(d_mu, multiply(kl_c, mu), out=d_mu)
        add(d_lv, multiply(kl_half_c, subtract(var, one)), out=d_lv)

        top = (-means).argsort(kind="stable")[:k]
        top_means = means[top]
        omega_grad = zeros(n)
        omega_grad[top] = top_means * subtract(one, top_means)
        add(d_mu, multiply(sp_c, omega_grad), out=d_mu)

        loss = (float(add_reduce(losses)) / samples
                + kl * _kl(mu, log_var, var)
                + sp * float(add_reduce(top_means)))
        return loss, grad

    return objective


def _checked_objective(model, ctx, params, config, epsilons):
    """:func:`_objective` after the checks :func:`vatg_loss` and
    :func:`vatg_gradients` share: a non-empty neighborhood of n edges,
    (mu, log_var) of shape (n,), and noise of shape (S, n) with S >= 1."""
    n = len(ctx.neighborhood_events)
    if n == 0:
        raise ValueError("empty neighborhood")
    for name in ("mu", "log_var"):
        shape = np.shape(getattr(params, name))
        if shape != (n,):
            raise ValueError(f"params.{name} shape {shape} != neighborhood size ({n},)")
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 2 or epsilons.shape[0] < 1 or epsilons.shape[1] != n:
        raise ValueError(
            f"epsilons shape {epsilons.shape} is not (S, {n}) with S >= 1"
        )
    objective = _objective(MaskEvaluator(model, ctx), config, len(epsilons))
    return objective(params.mu, params.log_var, epsilons)


def vatg_loss(
    model: TgnModel,
    ctx: EventContext,
    params: VariationalMaskParams,
    config: VatgConfig,
    epsilons: np.ndarray,
) -> float:
    """Monte Carlo objective at fixed noise draws (one row per sample)."""
    loss, _ = _checked_objective(model, ctx, params, config, epsilons)
    return loss


def vatg_gradients(
    model: TgnModel,
    ctx: EventContext,
    params: VariationalMaskParams,
    config: VatgConfig,
    epsilons: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients of the objective w.r.t. (mu, log_var)."""
    _, (d_mu, d_lv) = _checked_objective(model, ctx, params, config, epsilons)
    return d_mu, d_lv


def _noise(rng: np.random.Generator, evaluations: int, samples: int, n: int):
    """The ``(samples, n)`` noise of each of ``evaluations`` evaluations,
    drawn from ``rng`` :data:`_NOISE_BLOCK` evaluations at a time: the
    same numbers as one draw per evaluation, held in memory that does
    not grow with ``evaluations``."""
    for start in range(0, evaluations, _NOISE_BLOCK):
        yield from rng.standard_normal(
            (min(_NOISE_BLOCK, evaluations - start), samples, n))


def vatg_explain_event(
    model: TgnModel,
    ctx: EventContext,
    config: VatgConfig = VatgConfig(),
) -> VatgExplanation | None:
    """Optimize the variational mask parameters for one event.

    :func:`masks.descend` runs over the stacked ``(2, n)`` array
    ``[mu; log_var]`` for ``epochs`` evaluations. Their noise comes from
    the seeded stream in ``(block, mc_samples, n)`` draws of
    :data:`_NOISE_BLOCK` evaluations (:func:`_noise`), which hold the
    same numbers as one ``(mc_samples, n)`` draw per evaluation, so an
    event's memory does not grow with ``epochs``. The best-loss iterate
    is returned (the objective is noisy, so the last iterate is not
    necessarily the best). None on empty neighborhood.
    """
    n = len(ctx.neighborhood_events)
    if n == 0:
        return None

    step = _objective(MaskEvaluator(model, ctx), config, config.mc_samples)
    noise = _noise(np.random.default_rng(config.seed), config.epochs,
                   config.mc_samples, n)

    def objective(x):
        mu, log_var = x
        return step(mu, log_var, next(noise))

    start = np.stack([np.zeros(n), np.full(n, _INIT_LOG_VAR)])
    best, _, trace = descend(objective, start, config.learning_rate, config.epochs)
    final = VariationalMaskParams(mu=best[0], log_var=best[1])
    importance = sigmoid(final.mu)
    _, rows = top_edges(ctx, importance, 3)
    return VatgExplanation(
        event_index=ctx.target_index,
        params=final,
        importance=importance,
        trace=trace,
        top_edges=rows,
    )


@dataclass
class NodeAggregateRow:
    src: int
    dst: int
    relation: Relation
    mean: float
    var: float


def vatg_aggregate_node(
    explanations: list[tuple[EventContext, VatgExplanation]]
) -> list[NodeAggregateRow]:
    """Mean and population variance of sigmoid(mu) per canonical edge
    across a node's events. This is cross-event dispersion; the per-edge
    posterior variance stays internal."""
    if not explanations:
        raise ValueError("cannot aggregate an empty explanation list")
    rows = []
    for (src, dst, rel), mean, vals in edge_groups(
        (ctx, expl.importance) for ctx, expl in explanations
    ):
        var = ordered_sum((v - mean) ** 2 for v in vals) / len(vals)
        rows.append(NodeAggregateRow(src=src, dst=dst, relation=rel,
                                     mean=mean, var=var))
    return rows
