"""Compact temporal graph model with per-node memory.

Encoder-decoder over the event stream: each node carries a recurrent
memory vector driven by a fixed, seeded gated update (the recurrent
weights are part of the architecture, not trained), and a trained
two-layer head predicts every event's relation type from the endpoint
memories, a time-delta encoding, and an aggregate of neighborhood edge
messages. The cross-entropy of that prediction against the observed
relation is the anomaly score.

:class:`TgnModel` holds parameters only. Node memory is an input to
scoring, not part of the trained model: each replay of the stream starts
a fresh :class:`ReplayMemory`, and every context keeps references to the
states it reads. Each update allocates new read-only arrays, so those
references are a snapshot nothing can write through. A checkpoint
therefore holds the config, the trained parameters and the benign loss
statistics.

Replay and featurization work on blocks of ``_BLOCK`` events. For a
block, one pass computes every update's memory-independent drive (the
relation column, the time encoding of each endpoint's delta and the
bias, against the stacked candidate and gate weights); each event then
advances both endpoints with one ``(2, 2 mem) @ (2 mem, 2 mem)`` product
over ``[h_self, h_other]``. Featurization gathers every neighborhood
edge of a block of contexts into one matrix, computes all edge messages
with one product and sums them per context with ``np.add.reduceat``.
One vectorized :func:`_time_enc` serves replay, featurization and
:class:`MaskEvaluator`.

The neighborhood aggregate is a mask-weighted sum with a fixed scale,
so the head's pre-activation is affine in the mask m:

    z = tanh(a0 + B m),  a0 = We x0 + be,  B = scale * We_agg msgs^T

where x0 is the input vector with a zero aggregate, msgs the context's
(n_edges, embed_dim) edge messages and We_agg the columns of We that
read the aggregate. Only a0 and B depend on the context, so a
:class:`MaskEvaluator` builds them once and every masked pass after that
is two small matrix-vector products, with the closed-form gradient

    d loss / d m = B^T ((1 - z^2) * Wo^T (p - e_y)).

All three explainers run :func:`masks.descend` on one evaluator per
event; :meth:`TgnModel.masked_forward`, :meth:`TgnModel.mask_gradient`
and :meth:`TgnModel.score_event` are thin wrappers over it. Training,
stream scoring and the evaluator share one head pass, :func:`_head`.
A non-finite training loss raises the explainers' ``DivergenceError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .graph import (
    Event,
    EventContext,
    OrderingError,
    RELATION_INDEX,
    RELATIONS,
    TemporalGraph,
    TruthLabel,
    extract_context,
)
from .masks import DivergenceError, require_finite, sigmoid

CHECKPOINT_VERSION = 2

N_RELATIONS = len(RELATIONS)
NS_PER_S = 1_000_000_000

#: fixed scale applied to the mask-weighted message sum; a constant (rather
#: than a mask-dependent normalizer) keeps the forward pass linear in the
#: mask, so the all-ones identity and the closed-form gradient hold exactly
_AGG_SCALE = 0.5

#: events per replay block and contexts per featurization block; bounds
#: the size of the per-block temporaries
_BLOCK = 512


class CheckpointError(ValueError):
    """Checkpoint file corrupt or version mismatch."""


@dataclass(frozen=True)
class ModelConfig:
    memory_dim: int = 32
    time_dim: int = 8
    embed_dim: int = 32
    learning_rate: float = 0.01
    epochs: int = 300
    seed: int = 0
    hops: int = 1
    horizon: int = 10

    def __post_init__(self):
        if min(self.memory_dim, self.time_dim, self.embed_dim) <= 0:
            raise ValueError("all dimensions must be positive")
        require_finite(learning_rate=self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.time_dim % 2:
            raise ValueError("time_dim must be even (sin/cos pairs)")


@dataclass
class TrainStats:
    mu: float = 0.0           # mean held-out benign loss
    sigma: float = 0.0        # population std of held-out benign loss
    final_train_loss: float = 0.0


class ReplayMemory:
    """Node memories of one replay of the stream.

    Holds each node's memory vector and last-update time, rejects events
    that arrive out of timestamp order, and takes the node-state
    snapshots that contexts carry. A replay owns one and advances it
    through :meth:`TgnModel.replay_update`. Every stored vector is
    read-only and is replaced, never written, by an update, so a
    snapshot references the vectors instead of copying them.
    """

    def __init__(self, memory_dim: int):
        self._zero = np.zeros(memory_dim)
        self._zero.flags.writeable = False
        self.memory: dict[int, np.ndarray] = {}
        self.last_update: dict[int, int] = {}
        self.last_ts: int | None = None

    def memory_of(self, nid: int) -> np.ndarray:
        return self.memory.get(nid, self._zero)

    def snapshot(self, node_ids) -> dict[int, tuple[np.ndarray, int | None]]:
        """The current (read-only memory, last-update time) of each node;
        a node never updated has the zero vector and no update time."""
        return {
            nid: (self.memory_of(nid), self.last_update.get(nid))
            for nid in node_ids
        }

    def advance(self, timestamp: int, states: dict[int, np.ndarray]) -> None:
        """Store the new memories of the nodes one event touched."""
        if self.last_ts is not None and timestamp < self.last_ts:
            raise OrderingError(f"replay out of order: {timestamp} < {self.last_ts}")
        for nid, h in states.items():
            self.memory[nid] = h
            self.last_update[nid] = timestamp
        self.last_ts = timestamp


class TgnModel:
    """Fixed recurrent memory machinery plus a trained head.

    Holds parameters, config and training statistics only; replay memory
    lives in the :class:`ReplayMemory` a replay passes to
    :meth:`replay_update`. Scoring is pure with respect to the node-state
    snapshots carried by each context.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        mem, tdim, emb = config.memory_dim, config.time_dim, config.embed_dim
        msg_dim = 2 * mem + N_RELATIONS + tdim
        feat_dim = 2 * mem + N_RELATIONS + tdim
        self.input_dim = 2 * mem + tdim + emb

        rng = np.random.default_rng(config.seed)
        # fixed (untrained) recurrent and message weights; the update's
        # candidate rows are stacked over its gate rows, and its columns
        # read [h_self, h_other, one-hot relation, time encoding]
        self.Wu = np.vstack([
            rng.normal(0.0, 1.0 / np.sqrt(msg_dim), (mem, msg_dim)),
            rng.normal(0.0, 1.0 / np.sqrt(msg_dim), (mem, msg_dim)),
        ])
        # candidate bias 0; gate bias -1 for mild updates, so memory moves slowly
        self.bu = np.concatenate([np.zeros(mem), np.full(mem, -1.0)])
        self.Wn = rng.normal(0.0, 1.5 / np.sqrt(feat_dim), (emb, feat_dim))
        # trained head
        self.We = rng.normal(0.0, 0.1, (emb, self.input_dim))
        self.be = np.zeros(emb)
        self.Wo = rng.normal(0.0, 0.1, (N_RELATIONS, emb))
        self.bo = np.zeros(N_RELATIONS)

        self.stats = TrainStats()

    def replay_update(
        self, memory: ReplayMemory, e: Event, drive: np.ndarray | None = None
    ) -> None:
        """Advance both endpoint memories with the event's message.

        ``drive`` is the event's row of :func:`_replay_drive` computed
        for the block it belongs to; without it the event is its own
        one-event block.
        """
        if drive is None:
            drive = _replay_drive(self, [e], memory)[0]
        mem = self.config.memory_dim
        h_src, h_dst = memory.memory_of(e.src), memory.memory_of(e.dst)
        # rows [h_self, h_other] of the src-side and the dst-side update
        H = np.concatenate([h_src, h_dst, h_dst, h_src]).reshape(2, 2 * mem)
        h = H[:, :mem]
        pre = H @ self.Wu[:, : 2 * mem].T + drive
        cand = np.tanh(pre[:, :mem])
        gate = sigmoid(pre[:, mem:])
        new = (1.0 - gate) * h + gate * cand
        new.flags.writeable = False
        memory.advance(e.timestamp, {e.src: new[0], e.dst: new[1]})

    # ------------------------------------------------------------------
    # forward pass
    # ------------------------------------------------------------------

    def masked_forward(
        self, ctx: EventContext, mask: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Prediction and cross-entropy loss with each neighborhood edge's
        message scaled by its mask entry. An all-ones mask reproduces
        :meth:`score_event` exactly.
        """
        return MaskEvaluator(self, ctx).forward(_checked_mask(ctx, mask))

    def score_event(self, ctx: EventContext) -> float:
        """Anomaly loss of the event under its full (unmasked) context."""
        ones = np.ones(len(ctx.neighborhood_events))
        _, loss = MaskEvaluator(self, ctx).forward(ones)
        return loss

    def mask_gradient(self, ctx: EventContext, mask: np.ndarray) -> np.ndarray:
        """Closed-form d(loss)/d(mask); matches finite differences."""
        _, grad = MaskEvaluator(self, ctx).loss_and_gradient(_checked_mask(ctx, mask))
        return grad

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "parameters": {
                "We": self.We.tolist(), "be": self.be.tolist(),
                "Wo": self.Wo.tolist(), "bo": self.bo.tolist(),
            },
            "stats": asdict(self.stats),
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path) -> "TgnModel":
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"checkpoint not found: {p}")
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint {p}: {exc}") from exc
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} in {p} "
                f"(expected {CHECKPOINT_VERSION}); retrain to write a new one"
            )
        model = cls(ModelConfig(**doc["config"]))
        params = doc["parameters"]
        model.We = np.asarray(params["We"])
        model.be = np.asarray(params["be"])
        model.Wo = np.asarray(params["Wo"])
        model.bo = np.asarray(params["bo"])
        model.stats = TrainStats(**doc["stats"])
        return model


class MaskEvaluator:
    """Masked forward pass and mask gradient of one context.

    Builds the mask-independent terms once: the edge messages, the
    pre-activation a0 of the input with a zero aggregate, and the
    (embed_dim, n_edges) matrix B that maps the mask into the
    pre-activation. Each pass is then ``z = tanh(a0 + B m)``. The
    evaluator reads the head's weights as they were when it was built
    and does not check the mask; :meth:`TgnModel.masked_forward` does.
    """

    def __init__(self, model: TgnModel, ctx: EventContext):
        emb = model.config.embed_dim
        x0, msgs, _ = _context_block(model, [ctx])
        self.n = len(msgs)
        self.a0 = model.We @ x0[0] + model.be
        self.B = _AGG_SCALE * (model.We[:, -emb:] @ msgs.T)
        self.Wo = model.Wo
        self.bo = model.bo
        self.y = RELATION_INDEX[ctx.target.relation]

    def _pass(self, mask: np.ndarray):
        z, probs = _head(self.a0 + self.B @ mask, self.Wo, self.bo)
        return probs, float(-np.log(max(probs[self.y], 1e-300))), z

    def forward(self, mask: np.ndarray) -> tuple[np.ndarray, float]:
        """Prediction and cross-entropy loss under the mask."""
        probs, loss, _ = self._pass(mask)
        return probs, loss

    def loss_and_gradient(self, mask: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss under the mask and its closed-form gradient in the mask,
        from one pass."""
        probs, loss, z = self._pass(mask)
        dlogits = probs.copy()
        dlogits[self.y] -= 1.0
        return loss, self.B.T @ ((1.0 - z * z) * (self.Wo.T @ dlogits))


def _checked_mask(ctx: EventContext, mask) -> np.ndarray:
    mask = np.asarray(mask, dtype=float)
    n = len(ctx.neighborhood_events)
    if mask.shape != (n,):
        raise ValueError(f"mask length {mask.shape} != neighborhood size {n}")
    if n and (mask.min() < 0.0 or mask.max() > 1.0):
        raise ValueError("mask entries must lie in [0, 1]")
    return mask


# ---------------------------------------------------------------------------
# training and stream scoring
# ---------------------------------------------------------------------------

def training_prefix_end(dataset) -> int | None:
    """Timestamp bound of the benign training prefix (exclusive), or None
    when the dataset carries no attack interval."""
    t0, t1 = dataset.attack_interval
    if (t0, t1) == (0, 0):
        return None
    return t0


def train(dataset, config: ModelConfig) -> TgnModel:
    """Fit the prediction head on the benign prefix of the dataset.

    The prefix (everything before the attack interval, or the whole
    stream when there is none) is split 80/20 by position: the first part
    fits the head, the held-out tail provides the benign loss statistics
    (mu, sigma) the detector thresholds on. The fit runs on the distinct
    (input, label) rows of the first part, each weighted by how often it
    occurs (see :func:`_fit_head`); the statistics and
    ``final_train_loss`` are taken over every row. Deterministic given
    the seed.
    """
    if len(dataset.graph) == 0:
        raise ValueError("cannot train on an empty dataset")

    bound = training_prefix_end(dataset)
    events = dataset.graph.events
    if bound is None:
        n_prefix = len(events)
    else:
        n_prefix = sum(1 for e in events if e.timestamp < bound)
    if n_prefix == 0:
        raise ValueError("no benign training prefix before the attack interval")

    model = TgnModel(config)
    X, y = _featurize(model, _replay_contexts(model, dataset.graph, n_events=n_prefix))

    n_fit = max(1, int(round(n_prefix * 0.8)))
    X_fit, y_fit = X[:n_fit], y[:n_fit]

    _fit_head(model, X_fit, y_fit, config)

    # held-out benign statistics (population std), per the detector contract
    X_val, y_val = X[n_fit:], y[n_fit:]
    if len(X_val) == 0:
        X_val, y_val = X_fit, y_fit
    val_losses = _batch_losses(model, X_val, y_val)
    model.stats = TrainStats(
        mu=float(val_losses.mean()),
        sigma=float(val_losses.std()),
        final_train_loss=float(_batch_losses(model, X_fit, y_fit).mean()),
    )
    return model


def _fit_head(model: TgnModel, X: np.ndarray, y: np.ndarray, config: ModelConfig):
    """Full-batch Adam on the two-layer head, over the distinct rows.

    The mean cross-entropy over the n rows of ``X`` is, row for row, a
    sum over the k distinct (input, label) rows weighted by count / n.
    Each epoch computes that loss and its gradient on the k rows (the
    per-row ``P - Y`` scaled by count / n), so the result equals the
    fit over every row up to float rounding of the reordered sums.
    """
    n = len(X)
    first, counts = _distinct_rows(X, y)
    X, y = X[first], y[first]
    k = len(first)
    weight = counts / n
    Y = np.zeros((k, N_RELATIONS))
    Y[np.arange(k), y] = 1.0

    params = [model.We, model.be, model.Wo, model.bo]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8

    for epoch in range(1, config.epochs + 1):
        Z, P = _head(X @ model.We.T + model.be, model.Wo, model.bo)
        loss = -weight @ np.log(np.maximum(P[np.arange(k), y], 1e-300))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss at epoch {epoch}")

        dlogits = (P - Y) * weight[:, None]
        dWo = dlogits.T @ Z
        dbo = dlogits.sum(axis=0)
        dZ = dlogits @ model.Wo
        dA = (1.0 - Z * Z) * dZ
        dWe = dA.T @ X
        dbe = dA.sum(axis=0)

        grads = [dWe, dbe, dWo, dbo]
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**epoch)
            vhat = v[i] / (1 - b2**epoch)
            p -= config.learning_rate * mhat / (np.sqrt(vhat) + eps)


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first occurrence of each distinct (row, label) pair,
    in order of first occurrence, and how many rows each pair has.

    Rows are equal when their bytes are, so rows equal in ``X`` with
    different labels stay apart."""
    groups: dict[tuple[bytes, int], list[int]] = {}
    for i, key in enumerate(zip(map(np.ndarray.tobytes, X), y.tolist())):
        groups.setdefault(key, []).append(i)
    first = np.array([g[0] for g in groups.values()], dtype=int)
    counts = np.array([len(g) for g in groups.values()], dtype=float)
    return first, counts


def _head(A: np.ndarray, Wo: np.ndarray, bo: np.ndarray):
    """Hidden layer Z = tanh(A) and softmax prediction P of the head from
    its pre-activation A, for one row or a batch of rows.

    The softmax runs on the transposed logits, so each row's max and sum
    broadcast without keepdims and a single row divides by a scalar: the
    mask evaluator makes hundreds of one-row passes per event."""
    Z = np.tanh(A)
    logits = (Z @ Wo.T + bo).T
    expl = np.exp(logits - logits.max(0))
    return Z, (expl / expl.sum(0)).T


def _batch_losses(model: TgnModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    _, P = _head(X @ model.We.T + model.be, model.Wo, model.bo)
    return -np.log(np.maximum(P[np.arange(len(X)), y], 1e-300))


def _replay_contexts(
    model: TgnModel,
    graph: TemporalGraph,
    n_events: int | None = None,
    labels=None,
) -> list[EventContext]:
    """Replay the stream from empty memory, extracting each event's context
    (with node-state snapshots taken before the event's own update).

    Walks the stream in blocks of ``_BLOCK`` events; each block's
    memory-independent drive is computed in one pass before its events
    are applied one by one."""
    memory = ReplayMemory(model.config.memory_dim)
    n = len(graph) if n_events is None else n_events
    out = []
    for start in range(0, n, _BLOCK):
        block = graph.events[start : min(start + _BLOCK, n)]
        drive = _replay_drive(model, block, memory)
        for i, e in enumerate(block, start):
            ctx = extract_context(graph, i, hops=model.config.hops,
                                  horizon=model.config.horizon)
            involved = {e.src, e.dst}
            for ev in ctx.neighborhood_events:
                involved.add(ev.src)
                involved.add(ev.dst)
            ctx.node_states = memory.snapshot(involved)
            if labels is not None:
                ctx.truth_label = labels[i]
            out.append(ctx)
            model.replay_update(memory, e, drive[i - start])
    return out


def _time_enc(dt_ns, time_dim: int) -> np.ndarray:
    """(..., time_dim) sin/cos encoding of time deltas in nanoseconds at
    halving frequencies of log(1 + seconds); negative deltas count as 0."""
    u = np.log1p(np.maximum(np.asarray(dt_ns, dtype=float), 0.0) / NS_PER_S)
    angles = u[..., None] * 2.0 ** (-np.arange(time_dim // 2))
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _replay_drive(
    model: TgnModel, events: list[Event], memory: ReplayMemory
) -> np.ndarray:
    """(n_events, 2, 2 * memory_dim) memory-independent part of the
    candidate and gate pre-activations of each event's src-side (row 0)
    and dst-side (row 1) update: the relation column, the time encoding
    and the bias. An endpoint's delta counts from its last update, in
    ``memory`` or earlier in ``events``; a first update has delta 0."""
    mem, tdim = model.config.memory_dim, model.config.time_dim
    last: dict[int, int] = {}
    dts = []
    for e in events:
        for nid in (e.src, e.dst):
            prev = last.get(nid)
            if prev is None:
                prev = memory.last_update.get(nid, e.timestamp)
            dts.append(e.timestamp - prev)
        last[e.src] = last[e.dst] = e.timestamp
    rel = [RELATION_INDEX[e.relation] for e in events]
    W_rel = model.Wu[:, 2 * mem : 2 * mem + N_RELATIONS]
    W_time = model.Wu[:, 2 * mem + N_RELATIONS :]
    timed = (_time_enc(dts, tdim) @ W_time.T).reshape(len(events), 2, 2 * mem)
    return timed + W_rel.T[rel][:, None, :] + model.bu


def _context_block(
    model: TgnModel, contexts: list[EventContext]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask-independent terms of a block of contexts, built in one pass.

    Returns the head-input rows with a zero aggregate
    ``(n_contexts, input_dim)``, the message of every neighborhood edge in
    context order ``(n_edges, embed_dim)``, and each context's number of
    edges. A node missing from a context's states has zero memory and no
    last update.
    """
    mem, tdim, emb = (model.config.memory_dim, model.config.time_dim,
                      model.config.embed_dim)
    absent = (np.zeros(mem), None)
    target_h, target_dt = [], []
    edge_h, edge_rel, edge_dt, sizes = [], [], [], []
    for ctx in contexts:
        states = ctx.node_states
        t = ctx.target.timestamp
        h_s, lu_s = states.get(ctx.target.src, absent)
        target_h += (h_s, states.get(ctx.target.dst, absent)[0])
        target_dt.append(t - lu_s if lu_s is not None else 0)
        for ev in ctx.neighborhood_events:
            edge_h += (states.get(ev.src, absent)[0], states.get(ev.dst, absent)[0])
            edge_rel.append(RELATION_INDEX[ev.relation])
            edge_dt.append(t - ev.timestamp)
        sizes.append(len(ctx.neighborhood_events))
    n, n_edges = len(contexts), len(edge_rel)
    x0 = np.concatenate([
        np.reshape(target_h, (n, 2 * mem)),
        _time_enc(target_dt, tdim),
        np.zeros((n, emb)),
    ], axis=1)
    feats = np.concatenate([
        np.reshape(edge_h, (n_edges, 2 * mem)),
        np.eye(N_RELATIONS)[edge_rel],
        _time_enc(edge_dt, tdim),
    ], axis=1)
    return x0, np.tanh(feats @ model.Wn.T), np.array(sizes, dtype=int)


def _featurize(
    model: TgnModel, contexts: list[EventContext]
) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked head inputs and relation labels of the contexts, one row
    each: the input vector every context scores with under an all-ones
    mask. Works on blocks of ``_BLOCK`` contexts; a context without
    neighborhood edges has a zero aggregate."""
    emb = model.config.embed_dim
    X = np.empty((len(contexts), model.input_dim))
    for start in range(0, len(contexts), _BLOCK):
        x0, msgs, sizes = _context_block(model, contexts[start : start + _BLOCK])
        nonempty = sizes > 0
        firsts = (np.cumsum(sizes) - sizes)[nonempty]
        x0[nonempty, -emb:] = np.add.reduceat(msgs, firsts, axis=0) * _AGG_SCALE
        X[start : start + len(x0)] = x0
    y = np.array([RELATION_INDEX[c.target.relation] for c in contexts], dtype=int)
    return X, y


def score_stream(model: TgnModel, dataset) -> list[EventContext]:
    """Test-phase pass: replay the full stream, returning one scored
    EventContext per event. Each replay starts from empty memory, so
    results are a pure function of (model parameters, stream)."""
    contexts = _replay_contexts(model, dataset.graph, labels=dataset.labels)
    losses = _batch_losses(model, *_featurize(model, contexts))
    for ctx, loss in zip(contexts, losses):
        ctx.loss = float(loss)
    return contexts

