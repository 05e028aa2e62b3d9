"""Variational temporal edge-mask explainer.

Each neighborhood edge gets logistic-normal mask parameters (mu,
log_var). Masks are sampled via the reparameterization trick

    m = sigmoid(mu + eps * exp(0.5 * log_var)),   eps ~ N(0, 1)

and (mu, log_var) are optimized on a Monte Carlo estimate of the masked
cross-entropy plus a closed-form KL penalty toward the unit Gaussian
prior and a sparsity penalty on the largest mask means, by the same
:func:`masks.descend` loop that GraphMask and GNNExplainer run. Each
evaluation draws an (S, n) noise matrix and scores its S sampled masks
in one batched :class:`MaskEvaluator` pass. One objective,
:func:`_objective`, serves :func:`vatg_explain_event`, :func:`vatg_loss`
and :func:`vatg_gradients`; it takes mu and log_var as arrays, computes
exp(log_var) and sigmoid(mu) once per evaluation and takes the Monte
Carlo means with ``np.add.reduce``, the reduction ``np.mean`` makes. The
mask means sigmoid(mu) serve as edge importances; the loss trace is kept
as an optimization diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EventContext, Relation
from .masks import check_fields, descend, edge_groups, sigmoid, top_edges
from .model import MaskEvaluator, TgnModel

_INIT_LOG_VAR = -2.0


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
    return float(0.5 * np.add.reduce(mu * mu + var - 1.0 - log_var))


def _objective(
    evaluator: MaskEvaluator,
    mu: np.ndarray,
    log_var: np.ndarray,
    config: VatgConfig,
    epsilons: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Monte Carlo objective at fixed noise draws and its closed-form
    gradient w.r.t. [mu; log_var] as a (2, n) array.

    The ``(S, n)`` noise gives S sampled masks, the rows of one matrix,
    and one batched evaluator pass gives their losses and mask gradients.
    The Monte Carlo means over the sample axis are ``np.add.reduce(.., 0)
    / S``, which is what ``np.mean`` computes. ``exp(log_var)`` serves
    the KL term and its gradient, and ``sigmoid(mu)`` the sparsity
    penalty (the sum of the ``sparsity_top_k`` largest mask means) and
    its subgradient; each is computed once."""
    S, n = epsilons.shape
    sd = np.exp(0.5 * log_var)
    var = np.exp(log_var)
    masks = sigmoid(mu + epsilons * sd)
    losses, dl_dm = evaluator.losses_and_gradients(masks)
    dl_dx = dl_dm * (masks * (1.0 - masks))
    grad = np.stack([np.add.reduce(dl_dx, 0) / S,
                     np.add.reduce(dl_dx * epsilons * 0.5 * sd, 0) / S])
    d_mu, d_lv = grad

    d_mu += config.lambda_kl * mu
    d_lv += config.lambda_kl * 0.5 * (var - 1.0)

    means = sigmoid(mu)
    top = np.argsort(-means, kind="stable")[:config.sparsity_top_k]
    top_means = means[top]
    omega_grad = np.zeros(n)
    omega_grad[top] = top_means * (1.0 - top_means)
    d_mu += config.lambda_sp * omega_grad

    loss = (float(np.add.reduce(losses) / S)
            + config.lambda_kl * _kl(mu, log_var, var)
            + config.lambda_sp * float(np.add.reduce(top_means)))
    return loss, grad


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
    return _objective(MaskEvaluator(model, ctx), params.mu, params.log_var,
                      config, epsilons)


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


def vatg_explain_event(
    model: TgnModel,
    ctx: EventContext,
    config: VatgConfig = VatgConfig(),
) -> VatgExplanation | None:
    """Optimize the variational mask parameters for one event.

    :func:`masks.descend` runs over the stacked ``(2, n)`` array
    ``[mu; log_var]`` for ``epochs`` evaluations. Fresh noise is drawn
    from the seeded stream at every evaluation; the best-loss iterate is
    returned (the objective is noisy, so the last iterate is not
    necessarily the best). None on empty neighborhood.
    """
    n = len(ctx.neighborhood_events)
    if n == 0:
        return None

    evaluator = MaskEvaluator(model, ctx)
    rng = np.random.default_rng(config.seed)

    def objective(x):
        eps = rng.standard_normal((config.mc_samples, n))
        return _objective(evaluator, x[0], x[1], config, eps)

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
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        rows.append(NodeAggregateRow(src=src, dst=dst, relation=rel,
                                     mean=mean, var=var))
    return rows
