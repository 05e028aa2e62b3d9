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
from empty memory, and every context keeps references to the states it
reads. Those states are read-only rows of the stream's trace, so a
reference is a snapshot nothing can write through. A checkpoint
therefore holds the config, the trained head parameters and the benign
loss statistics. Format version 3 writes each head parameter as one
base64 column (:mod:`provlens.fileformat`): its raw little-endian
float64 bytes in C order, so a load gives back the trained values bit
for bit; the config and the version fix every shape and the dtype.
:meth:`TgnModel.load` requires the exact keys, the config's and the
statistics' type rules, each parameter's byte count and finite values,
and raises :class:`CheckpointError` naming the file and the field
otherwise.

Stream scoring is column-wise (:class:`_Stream`). It reads the graph's
relation and timestamp columns and the graph's one cached incidence
index (each event's endpoint rows and its (node, event) incidences; see
:mod:`provlens.graph`), searched only before the stream's events, and
sorts nothing of its own. An event's dependency
level is one more than the higher level of its endpoints' previous
events, so the events of one level touch distinct nodes. Level 0 holds
the fresh pairs, events neither of whose endpoints has an earlier
incidence, about 40% of a stream. Both of their updates read the zero
memory with a delta of 0, so their new memories depend on the relation
alone: one gated step over ``N_RELATIONS`` zero rows makes a
per-relation table, and one assignment copies it into their trace rows.
That is exact, not an approximation: a zero row times the weights is
exactly zero in any BLAS kernel, and the gate is elementwise, so each
table row has the bits the event's own update would have (its drive row,
like each segment's drive below, is checked bit for bit by the tests
against a drive computed per update product). Every later
level is advanced (in chunks of at most ``_BLOCK`` events) with one
``(2k, 2 mem) @ (2 mem, 2 mem)`` product over the rows
``[h_self, h_other]`` that writes the new memories into one read-only
trace of post-update memories. Most levels hold a few events, so the
work that does not read memory is done once per segment of at most
``_BLOCK`` events in level order, which may span many levels: the trace
rows each update reads and writes, and its drive (time encoding,
relation column and bias). Each product then only gathers its memory
rows, multiplies, adds its rows of the drive, gates and scatters.
"Twin" updates, whose two sides read equal memories, are deliberately
not merged into one row: OpenBLAS can give a row other bits when it is
computed in a product with fewer rows, so changing a memory-reading
product's row count would change the trace. A node's state before event
i is the trace row of its last incidence before i, found by one
searchsorted; the level loop and the neighborhood builder visit only
the events that have such an incidence.
Every neighborhood, at every hop count, comes from the one builder of
:class:`provlens.graph._Incidences`, the graph's index that
:class:`_Stream` reads: a breadth-first walk run as flat arrays over
blocks of targets, starting from the searches that also find each
update's read rows. Scoring featurizes blocks of ``_BLOCK``
targets, computing all edge messages of a block with one product and
summing them per target with ``np.add.reduceat``.
:func:`score_stream` returns a :class:`StreamContexts`: the loss array,
and an :class:`EventContext` built only when one is read. One update
kernel, split into the drive (:func:`_drive`) and the gated step
(:func:`_gated_step`), serves the level replay and the one-event
:meth:`TgnModel.replay_update`; one featurization kernel
(:func:`_input_terms`) serves stream scoring, over the columns of a
block of targets, and :class:`MaskEvaluator`, over the columns it
gathers from its one context's node states.

The neighborhood aggregate is a mask-weighted sum with a fixed scale,
so the head's pre-activation is affine in the mask m:

    z = tanh(a0 + B m),  a0 = We x0 + be,  B = scale * We_agg msgs^T

where x0 is the input vector with a zero aggregate, msgs the context's
(n_edges, embed_dim) edge messages and We_agg the columns of We that
read the aggregate. Only a0 and B depend on the context, so a
:class:`MaskEvaluator` builds them once and every one-row masked pass
after that is two small matrix-vector products, with the closed-form
gradient

    d loss / d m = B^T ((1 - z^2) * Wo^T (p - e_y)).

The evaluator's batched pass stacks S masks as the rows of M and gives
all S losses and gradients from one head pass on ``a0 + M B^T`` and one
``(S, n)`` product ``((1 - Z^2) * ((P - E_y) Wo)) B``; VA-TG sends its
Monte Carlo samples through it. GraphMask and GNNExplainer evaluate one
mask per step, hundreds of times per event, and keep the one-row pass,
which is cheaper than a batch of one.

All three explainers run :func:`masks.descend` on one evaluator per
event; :meth:`TgnModel.masked_forward`, :meth:`TgnModel.mask_gradient`
and :meth:`TgnModel.score_event` are thin wrappers over it. Training,
stream scoring and the evaluator share one head pass, :func:`_head`,
which works in place on the fresh pre-activation each caller passes;
the fit's epochs run it, and their gradients, in buffers allocated once.
:func:`train` builds no matrix of the prefix's features: it keeps only
the fit part's distinct (input, label) rows with each fit row's index
into them, and the held-out rows, and it drops the replay before the fit
(see :func:`train`). A non-finite training loss raises the explainers'
``DivergenceError``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .fileformat import decode_column, encode_column, read_json, require_keys
from .graph import (
    NS_PER_S,
    Event,
    EventContext,
    OrderingError,
    RELATION_INDEX,
    RELATIONS,
    TemporalGraph,
    TruthLabel,
    # not called here: the benchmark's tracer counts calls through
    # provlens.model.extract_context, until it reads the stream's own counts
    extract_context,
)
from .masks import ONE, DivergenceError, check_fields, constant, sigmoid

CHECKPOINT_VERSION = 3

N_RELATIONS = len(RELATIONS)

#: fixed scale applied to the mask-weighted message sum; a constant (rather
#: than a mask-dependent normalizer) keeps the forward pass linear in the
#: mask, so the all-ones identity and the closed-form gradient hold exactly
_AGG_SCALE = 0.5

#: most events one replay product advances, and targets per featurization
#: block; bounds the size of the per-block temporaries
_BLOCK = 512


class CheckpointError(ValueError):
    """Checkpoint file malformed or of another format version."""


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
        check_fields(self)
        if min(self.memory_dim, self.time_dim, self.embed_dim) <= 0:
            raise ValueError("all dimensions must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.time_dim % 2:
            raise ValueError("time_dim must be even (sin/cos pairs)")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainStats:
    mu: float = 0.0           # mean held-out benign loss
    sigma: float = 0.0        # population std of held-out benign loss
    final_train_loss: float = 0.0

    def __post_init__(self):
        check_fields(self)


class ReplayMemory:
    """Node memories of a replay made one event at a time.

    Holds each node's memory vector and last-update time and rejects
    events that arrive out of timestamp order.
    :meth:`TgnModel.replay_update` advances it on the same update kernel
    as the stream's level replay. Every stored vector is read-only and is
    replaced, never written, by an update, so a reader may keep a
    reference instead of a copy.
    """

    def __init__(self, memory_dim: int):
        self._zero = np.zeros(memory_dim)
        self._zero.flags.writeable = False
        self.memory: dict[int, np.ndarray] = {}
        self.last_update: dict[int, int] = {}
        self.last_ts: int | None = None

    def memory_of(self, nid: int) -> np.ndarray:
        return self.memory.get(nid, self._zero)

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
    lives in the stream's trace, or in the :class:`ReplayMemory` a
    one-event replay passes to :meth:`replay_update`. Scoring is pure
    with respect to the node-state snapshots carried by each context.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        mem, tdim, emb = config.memory_dim, config.time_dim, config.embed_dim
        msg_dim = 2 * mem + N_RELATIONS + tdim
        feat_dim = 2 * mem + N_RELATIONS + tdim
        head = _head_shapes(config)
        self.input_dim = head["We"][1]

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
        self.We = rng.normal(0.0, 0.1, head["We"])
        self.be = np.zeros(head["be"])
        self.Wo = rng.normal(0.0, 0.1, head["Wo"])
        self.bo = np.zeros(head["bo"])

        self.stats = TrainStats()

    def replay_update(self, memory: ReplayMemory, e: Event) -> None:
        """Advance both endpoint memories with the event's message, on the
        update kernel the stream replay runs."""
        mem = self.config.memory_dim
        h_src, h_dst = memory.memory_of(e.src), memory.memory_of(e.dst)
        # rows [h_self, h_other] of the src-side and the dst-side update
        H = np.concatenate([h_src, h_dst, h_dst, h_src]).reshape(2, 2 * mem)
        dt = [e.timestamp - memory.last_update.get(nid, e.timestamp)
              for nid in (e.src, e.dst)]
        rel = RELATION_INDEX[e.relation]
        new = _gated_step(self, H, _drive(self, [rel, rel], dt))
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
        """Write a format-version-3 checkpoint: ``config`` and ``stats`` as
        plain JSON, and each head parameter as one base64 string of its
        raw little-endian float64 bytes in C order, with no shape or
        dtype field."""
        doc = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "parameters": {name: encode_column(getattr(self, name), "<f8")
                           for name in _head_shapes(self.config)},
            "stats": asdict(self.stats),
        }
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path) -> "TgnModel":
        """Read a checkpoint that :meth:`save` wrote.

        A missing file raises ``FileNotFoundError``. Anything else that is
        not a version-3 checkpoint raises :class:`CheckpointError` naming
        the file and the field: a document that is not a JSON object;
        another version (older files are not converted); a missing or
        unknown key at the top level or in ``config``, ``parameters`` or
        ``stats``; a config or statistic that breaks its type rule or its
        range; and a parameter that is not base64 text, whose byte count
        is not 8 times the size of the shape its config implies, or that
        holds a non-finite value.
        """
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"checkpoint not found: {p}")
        doc = read_json(p, "checkpoint", CheckpointError)
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} in {p} "
                f"(expected {CHECKPOINT_VERSION}); retrain to write a new one"
            )
        require_keys(doc, {"version", "config", "parameters", "stats"},
                     f"checkpoint in {p}", CheckpointError)
        config = _checked_record(ModelConfig, doc["config"], "config", p)
        shapes = _head_shapes(config)
        params = require_keys(doc["parameters"], set(shapes), f"parameters in {p}",
                              CheckpointError)
        # decoded before the model is built, so a corrupt dimension fails
        # on the byte count instead of allocating the fixed weights it implies
        head = {name: _decode_parameter(params[name], shape, name, p)
                for name, shape in shapes.items()}
        model = cls(config)
        for name, value in head.items():
            setattr(model, name, value)
        model.stats = _checked_record(TrainStats, doc["stats"], "stats", p)
        return model


def _head_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each trained head parameter under ``config``."""
    emb = config.embed_dim
    input_dim = 2 * config.memory_dim + config.time_dim + emb
    return {"We": (emb, input_dim), "be": (emb,),
            "Wo": (N_RELATIONS, emb), "bo": (N_RELATIONS,)}


def _checked_record(kind, value, what: str, p: Path):
    """The dataclass ``kind`` built from the JSON object ``value``, which
    must hold exactly its fields; its own checks become CheckpointErrors."""
    require_keys(value, {f.name for f in fields(kind)}, f"{what} in {p}",
                 CheckpointError)
    try:
        return kind(**value)
    except ValueError as exc:
        raise CheckpointError(f"{what} in {p}: {exc}") from exc


def _decode_parameter(text, shape: tuple[int, ...], name: str, p: Path) -> np.ndarray:
    """The float64 array of ``shape`` that ``text`` encodes as a base64
    column."""
    value = decode_column(text, "<f8", f"parameter {name} in {p}", CheckpointError)
    if value.size != math.prod(shape):
        raise CheckpointError(
            f"parameter {name} in {p} holds {value.nbytes} bytes; its config "
            f"implies shape {shape}, {8 * math.prod(shape)} bytes"
        )
    value = value.astype(float).reshape(shape)
    if not np.isfinite(value).all():
        raise CheckpointError(f"parameter {name} in {p} is not finite")
    return value


#: the floor of a probability before its log in the explainers' loss
_TINY = constant(1e-300)


class MaskEvaluator:
    """Masked forward pass and mask gradient of one context.

    Builds the mask-independent terms once: the edge messages, the
    pre-activation a0 of the input with a zero aggregate, and the
    (embed_dim, n_edges) matrix B that maps the mask into the
    pre-activation, with the transposes of B and of the output weights
    Wo kept as views. A one-row pass is then ``z = tanh(a0 + B m)``
    followed by :func:`_head`'s softmax in its 1-D form (see
    :meth:`_pass`); the batched pass :meth:`losses_and_gradients` takes S
    masks as the rows of an (S, n_edges) matrix M and runs
    ``Z = tanh(a0 + M B^T)`` as one :func:`_head` pass. GraphMask and
    GNNExplainer descend on one mask at a time and make hundreds of
    passes per event, so they keep the one-row pass, which costs fewer
    numpy calls than a batch of one; VA-TG evaluates all of its Monte
    Carlo samples at once. Every product is ``np.dot``, which calls the
    BLAS routine that ``@`` calls on the same operands without the
    matmul ufunc's dispatch, a fraction of a microsecond less per call
    at these shapes. The constants of the array calls, 1.0 and 1e-300,
    are 0-d arrays (:func:`masks.constant`), which numpy takes without
    the conversion a Python float costs on every call. The one-row
    softmax's max and sum go into two 0-d float64 buffers made with the
    evaluator, so no Python float or numpy scalar reaches its ufuncs;
    the buffers are the evaluator's state, so an evaluator serves one
    pass at a time (each explainer call builds its own). The one-row
    loss clamps and logs the Python float of the true relation's
    probability (a log of the same float64, so the same bits), and its
    logits' gradient subtracts 1.0 from one element, both scalar work
    cheaper than an array call. The evaluator reads the head's weights
    as they were when it was built and does not check the mask;
    :meth:`TgnModel.masked_forward` does.
    """

    def __init__(self, model: TgnModel, ctx: EventContext):
        mem, emb = model.config.memory_dim, model.config.embed_dim
        # a node missing from the context's states has zero memory and no
        # last update
        states, absent = ctx.node_states, (np.zeros(mem), None)
        t, edges = ctx.target.timestamp, ctx.neighborhood_events
        h_src, lu_src = states.get(ctx.target.src, absent)
        x0, msgs = _input_terms(
            model,
            np.concatenate([h_src, states.get(ctx.target.dst, absent)[0]])[None],
            [t - lu_src if lu_src is not None else 0],
            np.reshape([states.get(nid, absent)[0]
                        for ev in edges for nid in (ev.src, ev.dst)],
                       (len(edges), 2 * mem)),
            [RELATION_INDEX[ev.relation] for ev in edges],
            [t - ev.timestamp for ev in edges],
        )
        self.n = len(msgs)
        self.a0 = model.We @ x0[0] + model.be
        self.B = _AGG_SCALE * (model.We[:, -emb:] @ msgs.T)
        self.BT = self.B.T
        self.Wo = model.Wo
        self.WoT = model.Wo.T
        self.bo = model.bo
        self.y = RELATION_INDEX[ctx.target.relation]
        # the one-row softmax's max and sum (see _pass)
        self._top, self._total = np.empty(()), np.empty(())

    def _pass(self, mask: np.ndarray):
        """:func:`_head` of one row in its 1-D form: the same operations
        on the same operands, with the max taken over the logits as
        Python floats (a max is exact) and stored, like the sum, in the
        evaluator's 0-d buffer, so bitwise ``_head``'s row."""
        top, total = self._top, self._total
        z = np.tanh(self.a0 + np.dot(self.B, mask))
        logits = np.dot(z, self.WoT) + self.bo
        top[()] = max(logits.tolist())
        expl = np.exp(logits - top)
        probs = expl / np.add.reduce(expl, 0, out=total)
        return probs, -float(np.log(max(probs.item(self.y), 1e-300))), z

    def forward(self, mask: np.ndarray) -> tuple[np.ndarray, float]:
        """Prediction and cross-entropy loss under the mask."""
        probs, loss, _ = self._pass(mask)
        return probs, loss

    def loss_and_gradient(self, mask: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss under the mask and its closed-form gradient in the mask,
        from one pass."""
        probs, loss, z = self._pass(mask)
        probs[self.y] -= 1.0  # a fresh array: the logits' gradient
        return loss, np.dot(self.BT, (ONE - z * z) * np.dot(self.WoT, probs))

    def losses_and_gradients(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses ``(S,)`` and mask gradients ``(S, n_edges)`` of the S
        masks in the rows of ``masks``, from one batched pass: row s is
        :meth:`loss_and_gradient` of ``masks[s]`` up to float rounding."""
        Z, P = _head(self.a0 + np.dot(masks, self.BT), self.Wo, self.bo)
        p_y = P[:, self.y]
        losses = -np.log(np.maximum(p_y, _TINY))
        p_y -= ONE  # a view: the logits' gradient in place
        return losses, np.dot((ONE - Z * Z) * np.dot(P, self.Wo), self.B)


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
    occurs (see :func:`_fit_weighted`); the statistics and
    ``final_train_loss`` are taken over every row. Deterministic given
    the seed.

    No prefix-sized feature matrix is built. The prefix is featurized in
    blocks of ``_BLOCK`` events, and of each block only the fit part's
    pair index (:func:`_pair_index`, whose keys hold each distinct row's
    bytes) and the held-out rows, copied into one array, are kept. The
    replay is dropped once featurization ends; the held-out losses are
    computed and their rows dropped; only then are the fit rows gathered
    back from the distinct rows, for ``final_train_loss``. Every product
    sees the operands, row count and memory layout it saw when the whole
    prefix matrix was built, so the model is bitwise the same.
    """
    if len(dataset.graph) == 0:
        raise ValueError("cannot train on an empty dataset")

    bound = training_prefix_end(dataset)
    if bound is None:
        n_prefix = len(dataset.graph)
    else:
        n_prefix = dataset.graph.count_before(bound)
    if n_prefix == 0:
        raise ValueError("no benign training prefix before the attack interval")
    n_fit = max(1, int(round(n_prefix * 0.8)))

    model = TgnModel(config)
    stream = _Stream(model, dataset.graph, n_prefix)
    y, pairs, index = stream.rel, {}, []
    held = np.empty((n_prefix - n_fit, model.input_dim))
    for start, stop, X in stream.feature_blocks(model):
        cut = min(max(n_fit - start, 0), stop - start)
        index += _pair_index(X[:cut], y[start : start + cut], pairs)
        if cut < stop - start:
            held[start + cut - n_fit : stop - n_fit] = X[cut:]
    del stream, X
    index = np.array(index, dtype=np.intp)
    # the distinct rows, in order of first occurrence, are the keys' bytes
    X = np.frombuffer(b"".join(row for row, _ in pairs)).reshape(len(pairs), -1)
    labels = np.array([label for _, label in pairs], dtype=np.intp)
    del pairs
    _fit_weighted(model, X, labels, np.bincount(index) / n_fit, config)

    # held-out benign statistics (population std), per the detector
    # contract; without held-out rows they are the fit rows'
    val_losses = _batch_losses(model, held, y[n_fit:]) if len(held) else None
    del held
    fit_losses = _batch_losses(model, X[index], y[:n_fit])
    if val_losses is None:
        val_losses = fit_losses
    model.stats = TrainStats(
        mu=float(val_losses.mean()),
        sigma=float(val_losses.std()),
        final_train_loss=float(fit_losses.mean()),
    )
    return model


def _fit_head(model: TgnModel, X: np.ndarray, y: np.ndarray, config: ModelConfig):
    """Fit the head on the rows of ``X`` with labels ``y``: the mean
    cross-entropy over the n rows is, row for row, a sum over the k
    distinct (input, label) rows (:func:`_distinct_rows`) weighted by
    count / n, so :func:`_fit_weighted` runs on those k rows. The result
    equals the fit over every row up to float rounding of the reordered
    sums, and is bitwise the fit :func:`train` makes of the same rows
    without holding them."""
    first, counts = _distinct_rows(X, y)
    _fit_weighted(model, X[first], y[first], counts / len(X), config)


def _fit_weighted(model: TgnModel, X: np.ndarray, y: np.ndarray, weight: np.ndarray,
                  config: ModelConfig):
    """Full-batch Adam on the two-layer head, over the k rows of ``X``
    with labels ``y``, each row's loss and gradient (the per-row
    ``P - Y``) scaled by its ``weight``.

    The parameters, their gradients and Adam's two moments are each one
    flat buffer (``We``, ``be``, ``Wo`` and ``bo`` are views into the
    first), so the gradients are written in place and one Adam update
    runs over all parameters; every elementwise step is the one a
    per-parameter update makes, so the fit is bitwise the same. The
    epochs also write the pre-activation, the probabilities (see
    :func:`_head`), the logits' gradient and the hidden layer's into
    buffers allocated once, and read and lower each row's true-class
    probability through one flat index into the probabilities. The
    model gets copies, not views, of the fitted parameters.
    """
    k = len(X)
    shapes = [model.We.shape, model.be.shape, model.Wo.shape, model.bo.shape]
    theta = np.concatenate([model.We.ravel(), model.be, model.Wo.ravel(), model.bo])
    grad, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    step, scale = np.empty_like(theta), np.empty_like(theta)
    We, be, Wo, bo = _views(theta, shapes)
    dWe, dbe, dWo, dbo = _views(grad, shapes)
    A, dA = np.empty((k, len(be))), np.empty((k, len(be)))
    P, dlogits = np.empty((k, N_RELATIONS)), np.empty((k, N_RELATIONS))
    # each row's true-class probability, as one index into P's buffer
    truth, P_flat = np.arange(k) * N_RELATIONS + y, P.reshape(-1)
    b1, b2, eps = 0.9, 0.999, 1e-8

    for epoch in range(1, config.epochs + 1):
        np.matmul(X, We.T, out=A)
        A += be
        Z, _ = _head(A, Wo, bo, P)
        p_y = P_flat[truth]
        loss = -weight @ np.log(np.maximum(p_y, 1e-300))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss at epoch {epoch}")

        p_y -= 1.0
        P_flat[truth] = p_y  # P - Y
        np.multiply(P, weight[:, None], out=dlogits)
        np.matmul(dlogits.T, Z, out=dWo)
        np.add.reduce(dlogits, axis=0, out=dbo)
        np.matmul(dlogits, Wo, out=dA)
        Z *= Z
        dA *= np.subtract(1.0, Z, out=Z)
        np.matmul(dA.T, X, out=dWe)
        np.add.reduce(dA, axis=0, out=dbe)

        m *= b1
        m += np.multiply(grad, 1 - b1, out=step)
        v *= b2
        np.multiply(grad, 1 - b2, out=step)
        v += np.multiply(step, grad, out=step)
        np.divide(m, 1 - b1**epoch, out=step)
        step *= config.learning_rate
        np.divide(v, 1 - b2**epoch, out=scale)
        np.sqrt(scale, out=scale)
        scale += eps
        theta -= np.divide(step, scale, out=step)

    model.We, model.be, model.Wo, model.bo = (p.copy() for p in (We, be, Wo, bo))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` with the given shapes."""
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    return [flat[a:b].reshape(shape)
            for a, b, shape in zip(ends, ends[1:], shapes)]


def _pair_index(X: np.ndarray, y: np.ndarray, pairs: dict) -> list[int]:
    """Each row's index among the distinct (row bytes, label) pairs that
    ``pairs`` maps to their indexes, numbered in order of first
    occurrence; a pair not yet in ``pairs`` is added to it.

    Rows are equal when their bytes are, so rows equal in ``X`` with
    different labels stay apart."""
    return [pairs.setdefault(key, len(pairs))
            for key in zip(map(np.ndarray.tobytes, X), y.tolist())]


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first occurrence of each distinct (row, label) pair
    (see :func:`_pair_index`), in order of first occurrence, and how many
    rows each pair has."""
    index = np.array(_pair_index(X, y, {}), dtype=np.intp)
    return np.unique(index, return_index=True)[1], np.bincount(index).astype(float)


def _head(A: np.ndarray, Wo: np.ndarray, bo: np.ndarray, P: np.ndarray | None = None):
    """Hidden layer Z = tanh(A) and softmax prediction P of the head from
    its pre-activation A, for one row or a batch of rows.

    Works in place: Z is written over A, which each caller passes fresh
    (or, in the fit, as its own buffer), and the logits and then the
    probabilities are written into ``P`` when given, else into a new
    array. The softmax runs on the transposed logits, so each row's max
    and sum broadcast without keepdims and a single row divides by a
    scalar, and it calls the ufunc reductions directly rather than
    through the ``max``/``sum`` methods' Python wrappers (the same
    reductions). The logits' product is ``np.dot``, the BLAS call that
    ``@`` makes, with less dispatch. Each step is the elementwise
    operation a fresh-array pass makes, on the same memory layout, so
    the bits do not depend on the buffers. Training, stream scoring and
    VA-TG's batched pass over its Monte Carlo samples call it; the
    hundreds of one-row passes GraphMask and GNNExplainer make per
    event run :meth:`MaskEvaluator._pass`, its 1-D form with fewer numpy
    calls and the same bits."""
    Z = np.tanh(A, out=A)
    P = np.dot(Z, Wo.T, out=P)
    P += bo
    logits = P.T
    np.subtract(logits, np.maximum.reduce(logits, 0), out=logits)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, 0)
    return Z, P


def _batch_losses(model: TgnModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    A = X @ model.We.T
    A += model.be
    _, P = _head(A, model.Wo, model.bo)
    return -np.log(np.maximum(P[np.arange(len(X)), y], 1e-300))


def _time_enc(dt_ns, time_dim: int) -> np.ndarray:
    """(..., time_dim) sin/cos encoding of time deltas in nanoseconds at
    halving frequencies of log(1 + seconds); negative deltas count as 0."""
    u = np.log1p(np.maximum(np.asarray(dt_ns, dtype=float), 0.0) / NS_PER_S)
    angles = u[..., None] * 2.0 ** (-np.arange(time_dim // 2))
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _drive(model: TgnModel, rel, dt) -> np.ndarray:
    """Memory-independent part of k updates' pre-activation
    ``(k, 2 * memory_dim)``: each row's time-encoding product, relation
    column and bias, for the candidate and the gate at once.

    ``rel`` and ``dt`` give each row's relation index and the delta since
    the updated node's last update (0 for a first update)."""
    mem = model.config.memory_dim
    W_rel = model.Wu[:, 2 * mem : 2 * mem + N_RELATIONS]
    W_time = model.Wu[:, 2 * mem + N_RELATIONS :]
    drive = _time_enc(dt, model.config.time_dim) @ W_time.T
    drive += W_rel.T[rel]
    drive += model.bu
    return drive


def _gated_step(model: TgnModel, H: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """New memories of k updates: the gated blend of each updated node's
    memory and its candidate.

    ``H`` holds the rows ``[h_self, h_other]`` ``(k, 2 * memory_dim)`` and
    ``drive`` their :func:`_drive`; one product with the stacked candidate
    and gate weights reads the memories."""
    mem = model.config.memory_dim
    pre = H @ model.Wu[:, : 2 * mem].T
    pre += drive
    cand = np.tanh(pre[:, :mem])
    gate = sigmoid(pre[:, mem:])
    return (1.0 - gate) * H[:, :mem] + gate * cand


def _input_terms(
    model: TgnModel, h_target, target_dt, h_edges, edge_rel, edge_dt
) -> tuple[np.ndarray, np.ndarray]:
    """Head-input rows with a zero aggregate ``(n_targets, input_dim)`` and
    edge messages ``(n_edges, embed_dim)`` from gathered columns.

    Each target gives its ``[h_src, h_dst]`` and the delta since its src's
    last update; each edge its ``[h_src, h_dst]`` at the target's time,
    its relation index and its age at the target's timestamp."""
    tdim, emb = model.config.time_dim, model.config.embed_dim
    x0 = np.concatenate([
        h_target,
        _time_enc(target_dt, tdim),
        np.zeros((len(h_target), emb)),
    ], axis=1)
    feats = np.concatenate([
        h_edges,
        np.eye(N_RELATIONS)[edge_rel],
        _time_enc(edge_dt, tdim),
    ], axis=1)
    return x0, np.tanh(feats @ model.Wn.T)


def _aggregate(x0: np.ndarray, msgs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``x0`` with each row's aggregate set to the scaled sum of its
    edges' messages, where row r owns the next ``sizes[r]`` messages; a
    row without edges keeps a zero aggregate."""
    nonempty = sizes > 0
    firsts = (np.cumsum(sizes) - sizes)[nonempty]
    x0[nonempty, -msgs.shape[1]:] = np.add.reduceat(msgs, firsts, axis=0) * _AGG_SCALE
    return x0


class _Stream:
    """The first ``n`` events of a graph in column form, replayed.

    Reads the graph's one incidence index (``inc``, a
    :class:`~provlens.graph._Incidences`: each event's endpoint rows, and
    the (node, event) incidences in node-major, event order with one sort
    key each), searching it only before its own events, and holds the
    relation column, the replay's trace, and every event's neighborhood
    from the index's one builder, at the config's hops and horizon, as one
    flat array of event indexes with offsets. Only :meth:`context` builds
    :class:`Event` objects, through the graph's ``events`` view, for the
    one context it builds.

    The replay writes the fresh pairs (level 0) from one per-relation
    table, computes each later segment's read and write rows and drive
    once, and runs each update product only for its memory-dependent
    step (see :meth:`_replay`).

    The trace is one read-only ``(2n + 1, memory_dim)`` array of
    post-update memories: row ``2i`` is event i's src-side memory and row
    ``2i + 1`` its dst-side memory; a self-loop has one incidence, which
    keeps the dst-side row. The last row is the zero memory of a node
    with no earlier update. A node's state before event i is the trace
    row of its last incidence before i.
    """

    def __init__(self, model: TgnModel, graph: TemporalGraph, n: int):
        self.graph, self.n = graph, n
        inc = self.inc = graph._incidences()
        self.rel = graph.rel[:n].astype(np.intp)

        # each event's own src-side and dst-side incidence, and the first
        # incidence of that node: the ones between are its earlier events
        pos, first = inc.search(inc.ends[:, :n], np.arange(n))
        has_prev = pos > first
        # where has_prev is False, pos - 1 may name a later event's incidence
        before = inc.inc_ev[pos - 1]
        #: (2, n) trace row each event's src-side and dst-side update reads
        self.prev_row = np.where(has_prev, inc.inc_row[pos - 1], 2 * n)
        #: (2, n) delta since each endpoint's last update, 0 for a first update
        self.dt = np.where(has_prev, inc.ts[:n] - inc.ts[before], 0)

        self.trace = self._replay(model, _levels(np.where(has_prev, before, n)))
        # an event neither of whose endpoints has an earlier incidence has
        # an empty neighborhood at every hop count
        later = np.flatnonzero(has_prev.any(axis=0))
        self.nb, nb_sizes = inc.neighborhoods(later, pos[:, later], first[:, later],
                                              model.config.hops, model.config.horizon)
        sizes = np.zeros(n, np.intp)
        sizes[later] = nb_sizes
        self.nb_off = np.concatenate([[0], np.cumsum(sizes)])

    def _replay(self, model: TgnModel, level: np.ndarray) -> np.ndarray:
        """Replay level by level into the trace.

        Level 0 holds the fresh pairs: events neither of whose endpoints
        has an earlier incidence. Their updates read the zero memory with
        a delta of 0, so each one's result depends on its relation only;
        one :func:`_gated_step` over ``N_RELATIONS`` zero rows gives the
        table, and one assignment writes both trace rows of every level-0
        event from it.

        Each later level is advanced in update products of at most
        ``_BLOCK`` events. Those events are walked in level order in
        segments of whole products, at most ``_BLOCK`` events each: a
        segment may hold many small levels, and a wide level fills
        several segments. The trace rows each update reads and writes and
        its :func:`_drive` are computed once per segment; each product
        only gathers its memories, runs :func:`_gated_step` on its rows
        of the drive and scatters the new memories into the trace."""
        mem, n = model.config.memory_dim, self.n
        trace = np.zeros((2 * n + 1, mem))
        order = np.argsort(level, kind="stable")
        ends = np.cumsum(np.bincount(level, minlength=1)).tolist()
        fresh = order[: ends[0]]
        table = _gated_step(model, np.zeros((N_RELATIONS, 2 * mem)),
                            _drive(model, np.arange(N_RELATIONS), np.zeros(N_RELATIONS)))
        trace[: 2 * n].reshape(n, 2, mem)[fresh] = table[self.rel[fresh], None]
        # a product starts at its level's start and every _BLOCK events after
        cuts = [c for s, e in itertools.pairwise(ends) for c in range(s, e, _BLOCK)]
        cuts.append(n)
        first = 0
        while first < len(cuts) - 1:
            # the segment: as many whole products as fit in _BLOCK events
            last = bisect.bisect_right(cuts, cuts[first] + _BLOCK) - 1
            base = cuts[first]
            ev = order[base : cuts[last]]
            h_src, h_dst = self.prev_row[:, ev]
            # two rows per event, its src-side then its dst-side update
            reads = np.stack([h_src, h_dst, h_dst, h_src], axis=1).reshape(-1, 2)
            writes = np.stack([2 * ev, 2 * ev + 1], axis=1).ravel()
            drive = _drive(model, np.repeat(self.rel[ev], 2), self.dt[:, ev].T.ravel())
            for a, b in itertools.pairwise(cuts[first : last + 1]):
                rows = slice(2 * (a - base), 2 * (b - base))
                H = trace[reads[rows]].reshape(-1, 2 * mem)
                trace[writes[rows]] = _gated_step(model, H, drive[rows])
            first = last
        trace.flags.writeable = False
        return trace

    def _rows_before(self, nodes, before) -> tuple[np.ndarray, np.ndarray]:
        """Trace row and event of each node row's last incidence before
        event ``before``; the zero row and -1 for a node with none."""
        inc = self.inc
        stride = inc.n + 1
        p = np.searchsorted(inc.key, nodes * stride + before) - 1
        found = (p >= 0) & (inc.key[p] >= nodes * stride)
        return (np.where(found, inc.inc_row[p], 2 * self.n),
                np.where(found, inc.inc_ev[p], -1))

    def feature_blocks(self, model: TgnModel):
        """Yield (start, stop, X) for each block of ``_BLOCK`` targets: the
        unmasked head inputs of events start to stop."""
        mem, trace, inc = model.config.memory_dim, self.trace, self.inc
        for start in range(0, self.n, _BLOCK):
            stop = min(start + _BLOCK, self.n)
            sizes = np.diff(self.nb_off[start : stop + 1])
            edges = self.nb[self.nb_off[start] : self.nb_off[stop]]
            owner = np.repeat(np.arange(start, stop), sizes)
            rows, _ = self._rows_before(inc.ends[:, edges].ravel(), np.tile(owner, 2))
            x0, msgs = _input_terms(
                model,
                trace[self.prev_row[:, start:stop].T].reshape(stop - start, 2 * mem),
                self.dt[0, start:stop],
                trace[rows.reshape(2, -1).T].reshape(len(edges), 2 * mem),
                self.rel[edges],
                inc.ts[owner] - inc.ts[edges],
            )
            yield start, stop, _aggregate(x0, msgs, sizes)

    def context(self, i: int, loss: float, label: TruthLabel) -> EventContext:
        """Event i's context, its node states read-only rows of the trace."""
        events = self.graph.events
        target = events[i]
        nb = self.nb[self.nb_off[i] : self.nb_off[i + 1]].tolist()
        nb_events = [events[j] for j in nb]
        ids = {target.src, target.dst}
        for e in nb_events:
            ids.add(e.src)
            ids.add(e.dst)
        ids = list(ids)
        rows, last = self._rows_before(self.graph._rows(ids), i)
        states = {
            nid: (self.trace[row], t if at >= 0 else None)
            for nid, row, at, t in zip(ids, rows.tolist(), last.tolist(),
                                       self.inc.ts[last].tolist())
        }
        return EventContext(target, i, nb, nb_events, states, loss, label)


def _levels(prev_ev: np.ndarray) -> np.ndarray:
    """Dependency level of each event from the (2, n) events that last
    touched its endpoints before it (n for none): one more than the
    higher of their levels, 0 for an event with no predecessor. The loop
    visits only the events that have one."""
    n = prev_ev.shape[1]
    level = [0] * n + [-1]
    later = np.flatnonzero((prev_ev < n).any(axis=0))
    for i, a, b in zip(later.tolist(), *prev_ev[:, later].tolist()):
        la, lb = level[a], level[b]
        level[i] = (la if la > lb else lb) + 1
    return np.array(level[:n], dtype=np.intp)


class StreamContexts(Sequence):
    """The scored contexts of a stream, one per event, built when read.

    ``losses`` is every event's anomaly loss as one read-only array;
    detection reads it and builds no context. Reading ``stream[i]``
    builds event i's :class:`EventContext` from the replay's trace and
    neighborhood arrays: a new object on every read, whose node states
    are read-only rows of the trace. A slice is a list of built contexts.
    """

    def __init__(self, stream: _Stream, losses: np.ndarray, labels):
        self._stream = stream
        self._labels = labels
        self.losses = losses

    def __len__(self) -> int:
        return len(self.losses)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"event index {i} out of range")
        return self._stream.context(i, float(self.losses[i]), self._labels[i])


def score_stream(model: TgnModel, dataset) -> StreamContexts:
    """Test-phase pass: replay and score the full stream column-wise.

    Returns the per-event losses and contexts built when read (see
    :class:`StreamContexts`). Each replay starts from empty memory, so
    results are a pure function of (model parameters, stream)."""
    stream = _Stream(model, dataset.graph, len(dataset.graph))
    losses = np.empty(stream.n)
    for start, stop, X in stream.feature_blocks(model):
        losses[start:stop] = _batch_losses(model, X, stream.rel[start:stop])
    losses.flags.writeable = False
    return StreamContexts(stream, losses, dataset.labels)
