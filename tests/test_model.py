"""Model behavior: masked forward pass, gradients, training, checkpoints."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import provlens.model
from provlens.data import LabeledDataset
from provlens.graph import (
    Event,
    NodeKind,
    OrderingError,
    Relation,
    TruthLabel,
    extract_context,
)
from provlens.masks import sigmoid
from provlens.model import (
    _AGG_SCALE,
    N_RELATIONS,
    NS_PER_S,
    RELATION_INDEX,
    CheckpointError,
    MaskEvaluator,
    ModelConfig,
    ReplayMemory,
    StreamContexts,
    TgnModel,
    _Stream,
    _distinct_rows,
    _fit_head,
    _time_enc,
    score_stream,
    train,
)

from conftest import NS, build_graph, random_contexts


def _replayed_contexts(model, graph):
    """Every context of a replay of the whole graph, unscored (loss 0,
    label unknown), and the replayed stream."""
    n = len(graph)
    stream = _Stream(model, graph, n)
    return list(StreamContexts(stream, np.zeros(n), [TruthLabel.UNKNOWN] * n)), stream


def _tiny_model(tiny_graph, seed=0):
    model = TgnModel(ModelConfig(seed=seed))
    return model, _replayed_contexts(model, tiny_graph)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(time_dim=7)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(learning_rate=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ModelConfig(learning_rate=bad)


def test_config_rejects_walks_without_edges():
    """hops and horizon are checked when the config is built: the
    column-wise stream does not call extract_context at one hop, so an
    unchecked horizon of 0 would score every event on an empty
    neighborhood."""
    for bad in ({"hops": 0}, {"horizon": 0}, {"horizon": -3}):
        with pytest.raises(ValueError):
            ModelConfig(**bad)


@pytest.mark.parametrize("epochs", [0, -3])
def test_config_rejects_fewer_than_one_epoch(epochs):
    """Fewer than one epoch would leave the head untrained."""
    with pytest.raises(ValueError, match="epochs"):
        ModelConfig(epochs=epochs)


def test_all_ones_mask_matches_unmasked(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    for ctx in ctxs:
        _, loss = model.masked_forward(ctx, np.ones(len(ctx.neighborhood_events)))
        assert loss == model.score_event(ctx)


def test_mask_validation(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    n = len(ctx.neighborhood_events)
    assert n > 0
    with pytest.raises(ValueError):
        model.masked_forward(ctx, np.ones(n + 1))
    with pytest.raises(ValueError):
        model.masked_forward(ctx, np.full(n, 1.5))
    with pytest.raises(ValueError):
        model.masked_forward(ctx, np.full(n, -0.1))


def test_zero_mask_drops_neighborhood(tiny_graph):
    """With the mask at zero the prediction must ignore the messages: it
    must match a forward pass on a context with no neighborhood at all."""
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[-1]
    probs_zero, _ = model.masked_forward(ctx, np.zeros(len(ctx.neighborhood_events)))
    bare = extract_context(tiny_graph, ctx.target_index)
    bare.node_states = ctx.node_states
    bare.neighborhood = []
    bare.neighborhood_events = []
    probs_bare, _ = model.masked_forward(bare, np.zeros(0))
    np.testing.assert_allclose(probs_zero, probs_bare, atol=1e-12)


def test_mask_gradient_matches_finite_differences(tiny_graph):
    """Oracle: central finite differences of the masked loss."""
    model, ctxs = _tiny_model(tiny_graph)
    rng = np.random.default_rng(3)
    checked = 0
    for ctx in ctxs:
        n = len(ctx.neighborhood_events)
        if n == 0:
            continue
        mask = rng.uniform(0.2, 0.8, n)
        grad = model.mask_gradient(ctx, mask)
        h = 1e-6
        for j in range(n):
            up, dn = mask.copy(), mask.copy()
            up[j] += h
            dn[j] -= h
            _, lu = model.masked_forward(ctx, up)
            _, ld = model.masked_forward(ctx, dn)
            fd = (lu - ld) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-6, rel=1e-5)
            checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# references: the per-event, per-endpoint and per-edge formulas, one
# numpy call chain per delta, endpoint and edge
# ---------------------------------------------------------------------------

def _reference_time_enc(model, dt_ns):
    u = np.log1p(max(dt_ns, 0) / NS_PER_S)
    freqs = 2.0 ** (-np.arange(model.config.time_dim // 2))
    return np.concatenate([np.sin(u * freqs), np.cos(u * freqs)])


def _reference_state(model, ctx, nid):
    return ctx.node_states.get(nid, (np.zeros(model.config.memory_dim), None))


def _reference_messages(model, ctx):
    """(n_edges, embed_dim) edge messages, one edge at a time."""
    if not ctx.neighborhood_events:
        return np.zeros((0, model.config.embed_dim))
    feats = []
    for ev in ctx.neighborhood_events:
        rel = np.zeros(len(Relation))
        rel[RELATION_INDEX[ev.relation]] = 1.0
        feats.append(np.concatenate([
            _reference_state(model, ctx, ev.src)[0],
            _reference_state(model, ctx, ev.dst)[0],
            rel,
            _reference_time_enc(model, ctx.target.timestamp - ev.timestamp),
        ]))
    return np.tanh(np.asarray(feats) @ model.Wn.T)


def _reference_input(model, ctx, agg):
    h_s, lu_s = _reference_state(model, ctx, ctx.target.src)
    h_d, _ = _reference_state(model, ctx, ctx.target.dst)
    dt = ctx.target.timestamp - lu_s if lu_s is not None else 0
    return np.concatenate([h_s, h_d, _reference_time_enc(model, dt), agg])


def _reference_replay(model, events):
    """Each event's pre-update (memory, last update) of every node, from
    the per-endpoint gated update with separate candidate and gate
    products."""
    mem = model.config.memory_dim
    Wc, Wg = model.Wu[:mem], model.Wu[mem:]
    bc, bg = model.bu[:mem], model.bu[mem:]
    memory, last, before = {}, {}, []
    for e in events:
        before.append((dict(memory), dict(last)))
        zero = np.zeros(mem)
        h_src, h_dst = memory.get(e.src, zero), memory.get(e.dst, zero)
        rel = np.zeros(len(Relation))
        rel[RELATION_INDEX[e.relation]] = 1.0
        new = {}
        for nid, h_self, h_other in ((e.src, h_src, h_dst), (e.dst, h_dst, h_src)):
            dt = e.timestamp - last.get(nid, e.timestamp)
            msg = np.concatenate([h_self, h_other, rel, _reference_time_enc(model, dt)])
            cand = np.tanh(Wc @ msg + bc)
            gate = 1.0 / (1.0 + np.exp(-(Wg @ msg + bg)))
            new[nid] = (1.0 - gate) * h_self + gate * cand
        for nid, h in new.items():
            memory[nid] = h
            last[nid] = e.timestamp
    return before, (memory, last)


def _reference_pass(model, ctx, mask):
    """Probabilities, loss and mask gradient computed from the full
    concatenated input vector, without the affine split."""
    emb = model.config.embed_dim
    msgs = _reference_messages(model, ctx)
    x = _reference_input(model, ctx, (mask @ msgs) * _AGG_SCALE)
    z = np.tanh(model.We @ x + model.be)
    logits = model.Wo @ z + model.bo
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    y = RELATION_INDEX[ctx.target.relation]
    dlogits = probs.copy()
    dlogits[y] -= 1.0
    dx = model.We.T @ ((1.0 - z * z) * (model.Wo.T @ dlogits))
    return probs, -np.log(probs[y]), (msgs @ dx[-emb:]) * _AGG_SCALE


def test_evaluator_matches_concatenated_input_reference(model, contexts):
    rng = np.random.default_rng(5)
    for ctx in random_contexts(contexts, rng, 40, min_edges=0):
        n = len(ctx.neighborhood_events)
        evaluator = MaskEvaluator(model, ctx)
        for mask in (np.ones(n), np.zeros(n), rng.uniform(0.0, 1.0, n)):
            probs_ref, loss_ref, grad_ref = _reference_pass(model, ctx, mask)
            probs, loss = evaluator.forward(mask)
            loss_g, grad = evaluator.loss_and_gradient(mask)
            np.testing.assert_allclose(probs, probs_ref, rtol=0, atol=1e-12)
            assert loss == pytest.approx(loss_ref, rel=0, abs=1e-12)
            assert loss_g == loss
            np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-12)


def test_batched_pass_rows_match_one_row_pass(model, contexts):
    """Row s of the batched pass is the one-row pass on mask s, for
    batches of one and more, including the empty neighborhood."""
    rng = np.random.default_rng(6)
    for ctx in random_contexts(contexts, rng, 40, min_edges=0):
        n = len(ctx.neighborhood_events)
        evaluator = MaskEvaluator(model, ctx)
        for s in (1, 3, 8):
            masks = rng.uniform(0.0, 1.0, (s, n))
            losses, grads = evaluator.losses_and_gradients(masks)
            assert losses.shape == (s,) and grads.shape == (s, n)
            for mask, loss, grad in zip(masks, losses, grads):
                loss_ref, grad_ref = evaluator.loss_and_gradient(mask)
                assert loss == pytest.approx(loss_ref, rel=0, abs=1e-12)
                np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-12)


@st.composite
def _tiny_cases(draw):
    """An untrained model, one context of a random small graph replayed
    through it, and a mask inside (0, 1) for that context."""
    n_nodes = draw(st.integers(2, 5))
    nodes = [(i, NodeKind.PROCESS if i % 2 == 0 else NodeKind.FILE, f"n{i}")
             for i in range(n_nodes)]
    steps = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1),
                  st.sampled_from(list(Relation)), st.integers(0, 3)),
        min_size=1, max_size=12,
    ))
    events, t = [], 1
    for src, dst, rel, gap in steps:
        t += gap
        events.append((src, dst, rel, t))
    model, ctxs = _tiny_model(build_graph((nodes, events)),
                              seed=draw(st.integers(0, 3)))
    ctx = draw(st.sampled_from(ctxs))
    n = len(ctx.neighborhood_events)
    mask = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))
    return model, ctx, np.array(mask, dtype=float)


@settings(max_examples=60, deadline=None)
@given(_tiny_cases())
def test_all_ones_identity_property(case):
    model, ctx, _ = case
    ones = np.ones(len(ctx.neighborhood_events))
    _, loss = model.masked_forward(ctx, ones)
    assert loss == model.score_event(ctx)


@settings(max_examples=60, deadline=None)
@given(_tiny_cases())
def test_mask_gradient_finite_difference_property(case):
    model, ctx, mask = case
    grad = model.mask_gradient(ctx, mask)
    assert grad.shape == mask.shape
    h = 1e-6
    for j in range(len(mask)):
        up, dn = mask.copy(), mask.copy()
        up[j] += h
        dn[j] -= h
        _, lu = model.masked_forward(ctx, up)
        _, ld = model.masked_forward(ctx, dn)
        assert grad[j] == pytest.approx((lu - ld) / (2 * h), abs=1e-6, rel=1e-5)


def test_empty_neighborhood_gradient(tiny_graph):
    model, ctxs = _tiny_model(tiny_graph)
    ctx = ctxs[0]
    assert ctx.neighborhood_events == []
    assert model.mask_gradient(ctx, np.zeros(0)).shape == (0,)


def _replayed_memory(model, graph):
    memory = ReplayMemory(model.config.memory_dim)
    for e in graph.events:
        model.replay_update(memory, e)
    return memory


def test_replay_rejects_out_of_order(tiny_graph):
    model = TgnModel(ModelConfig())
    memory = _replayed_memory(model, tiny_graph)
    before = {k: v.copy() for k, v in memory.memory.items()}
    with pytest.raises(OrderingError):
        model.replay_update(memory, Event(0, 3, Relation.READ, 0))
    # the rejected event changed nothing
    assert memory.memory.keys() == before.keys()
    for k in before:
        np.testing.assert_array_equal(memory.memory[k], before[k])


def test_replayed_memories_are_read_only(tiny_graph):
    """Every vector replay_update stores, and the zero memory of a node
    never updated, refuses writes."""
    model = TgnModel(ModelConfig())
    memory = _replayed_memory(model, tiny_graph)
    assert memory.memory.keys() == {0, 1, 2, 3, 4}
    before = {k: v.copy() for k, v in memory.memory.items()}
    for h in [*memory.memory.values(), memory.memory_of(99)]:
        with pytest.raises(ValueError):
            h[:] = 99.0
    for k, v in before.items():
        np.testing.assert_array_equal(memory.memory_of(k), v)
    assert not np.any(memory.memory_of(99))
    assert 99 not in memory.last_update


def test_stream_snapshots_are_read_only(contexts):
    """Contexts share memory vectors, so none of them can be written."""
    for ctx in contexts:
        for h, _ in ctx.node_states.values():
            with pytest.raises(ValueError):
                h[0] = 1.0


@st.composite
def _replay_cases(draw):
    """An untrained model, a random small graph that holds a self-loop,
    a timestamp tie and a first event with an empty neighborhood, and a
    replay block size."""
    n_nodes = draw(st.integers(2, 5))
    nodes = [(i, NodeKind.PROCESS, f"n{i}") for i in range(n_nodes)]
    steps = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1),
                  st.sampled_from(list(Relation)), st.sampled_from([0, 1, 3, 3600])),
        min_size=2, max_size=16,
    ))
    loop_at = draw(st.integers(0, len(steps) - 1))
    tie_at = draw(st.integers(1, len(steps) - 1))
    events, t = [], 1
    for i, (src, dst, rel, gap) in enumerate(steps):
        t += 0 if i == tie_at else gap
        events.append((src, src if i == loop_at else dst, rel, t))
    model = TgnModel(ModelConfig(seed=draw(st.integers(0, 3))))
    block = draw(st.sampled_from([1, 2, 3, provlens.model._BLOCK]))
    return model, build_graph((nodes, events)), block


@settings(max_examples=60, deadline=None)
@given(_replay_cases())
def test_block_replay_and_featurize_match_reference(case):
    """Block replay, the standalone update and the stream's block
    featurization agree with the per-endpoint and per-edge formulas to
    1e-12."""
    model, graph, block = case
    with mock.patch.object(provlens.model, "_BLOCK", block):
        ctxs, stream = _replayed_contexts(model, graph)
        blocks = list(stream.feature_blocks(model))
    before, (final, final_last) = _reference_replay(model, graph.events)

    bounds = [(start, stop) for start, stop, _ in blocks]
    assert bounds == [(s, min(s + block, len(graph)))
                      for s in range(0, len(graph), block)]
    X = np.concatenate([rows for _, _, rows in blocks])

    assert not ctxs[0].neighborhood_events
    for ctx, (ref_memory, ref_last) in zip(ctxs, before):
        for nid, (h, lu) in ctx.node_states.items():
            assert lu == ref_last.get(nid)
            ref = ref_memory.get(nid, np.zeros(model.config.memory_dim))
            np.testing.assert_allclose(h, ref, rtol=0, atol=1e-12)

    memory = _replayed_memory(model, graph)
    assert memory.memory.keys() == final.keys()
    assert memory.last_update == final_last
    for nid, h in final.items():
        np.testing.assert_allclose(memory.memory[nid], h, rtol=0, atol=1e-12)

    assert X.shape == (len(graph), model.input_dim)
    for row, label, ctx in zip(X, stream.rel, ctxs):
        agg = _reference_messages(model, ctx).sum(axis=0) * _AGG_SCALE
        np.testing.assert_allclose(row, _reference_input(model, ctx, agg),
                                   rtol=0, atol=1e-12)
        assert label == RELATION_INDEX[ctx.target.relation]


@st.composite
def _stream_cases(draw):
    """An untrained model at one of the (hops, horizon) settings and a
    random small graph with a hub (node 0 on every other event), a
    self-loop and timestamp ties."""
    n_nodes = draw(st.integers(2, 6))
    nodes = [(i, NodeKind.PROCESS, f"n{i}") for i in range(n_nodes)]
    steps = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1),
                  st.sampled_from(list(Relation)), st.sampled_from([0, 0, 1, 7])),
        min_size=2, max_size=24,
    ))
    loop_at = draw(st.integers(0, len(steps) - 1))
    events, t = [], 1
    for i, (src, dst, rel, gap) in enumerate(steps):
        t += gap
        src = 0 if i % 2 == 0 else src
        events.append((src, src if i == loop_at else dst, rel, t))
    hops, horizon = draw(st.sampled_from([(1, 1), (1, 10), (2, 3)]))
    config = ModelConfig(seed=draw(st.integers(0, 3)), hops=hops, horizon=horizon)
    return TgnModel(config), build_graph((nodes, events))


@settings(max_examples=80, deadline=None)
@given(_stream_cases())
def test_stream_contexts_match_per_event_reference(case):
    """Every context read from the column-wise stream has extract_context's
    neighborhood in its order, the reference replay's state and update
    time for exactly the involved nodes, and its score_event loss."""
    model, graph = case
    labels = [TruthLabel.BENIGN] * len(graph)
    stream = score_stream(model, LabeledDataset(graph, labels, (0, 0)))
    before, _ = _reference_replay(model, graph.events)
    zero = np.zeros(model.config.memory_dim)

    assert len(stream) == len(graph)
    for i, (ctx, (ref_memory, ref_last)) in enumerate(zip(stream, before)):
        ref = extract_context(graph, i, hops=model.config.hops,
                              horizon=model.config.horizon)
        assert ctx.target_index == i and ctx.target == graph.events[i]
        assert ctx.neighborhood == ref.neighborhood
        assert ctx.neighborhood_events == ref.neighborhood_events
        involved = {ctx.target.src, ctx.target.dst}
        involved.update(n for ev in ref.neighborhood_events for n in (ev.src, ev.dst))
        assert ctx.node_states.keys() == involved
        for nid, (h, lu) in ctx.node_states.items():
            assert lu == ref_last.get(nid)
            np.testing.assert_allclose(h, ref_memory.get(nid, zero), rtol=0, atol=1e-12)
        assert ctx.loss == stream.losses[i]
        assert abs(ctx.loss - model.score_event(ctx)) <= 1e-12
        assert ctx.truth_label is TruthLabel.BENIGN


# ---------------------------------------------------------------------------
# reference: the level loop that computed each product's drive and index
# arrays inside the product
# ---------------------------------------------------------------------------

def _loop_update_rows(model, H, rel, dt):
    mem = model.config.memory_dim
    W_rel = model.Wu[:, 2 * mem : 2 * mem + N_RELATIONS]
    W_time = model.Wu[:, 2 * mem + N_RELATIONS :]
    drive = _time_enc(dt, model.config.time_dim) @ W_time.T + W_rel.T[rel] + model.bu
    pre = H @ model.Wu[:, : 2 * mem].T + drive
    cand = np.tanh(pre[:, :mem])
    gate = sigmoid(pre[:, mem:])
    return (1.0 - gate) * H[:, :mem] + gate * cand


def _loop_replay(products):
    """A ``_Stream._replay`` stand-in: per level, one product every
    ``_BLOCK`` events, each product computing its own drive and index
    arrays; appends each product's memory rows ``H`` to ``products``."""
    def replay(self, model, level):
        mem = model.config.memory_dim
        trace = np.zeros((2 * self.n + 1, mem))
        by_level = np.argsort(level, kind="stable")
        for group in np.split(by_level, np.flatnonzero(np.diff(level[by_level])) + 1):
            for start in range(0, len(group), provlens.model._BLOCK):
                ev = group[start : start + provlens.model._BLOCK]
                h_src, h_dst = self.prev_row[:, ev]
                H = trace[np.stack([h_src, h_dst, h_dst, h_src], axis=1)]
                H = H.reshape(2 * len(ev), 2 * mem)
                products.append(H)
                trace[np.stack([2 * ev, 2 * ev + 1], axis=1).ravel()] = _loop_update_rows(
                    model, H, np.repeat(self.rel[ev], 2), self.dt[:, ev].T.ravel())
        trace.flags.writeable = False
        return trace
    return replay


def _assert_replay_matches_loop(model, dataset, block):
    """Trace, losses and every product's memory rows of the segment
    replay equal the level loop's, bit for bit."""
    steps, loop_products = mock.Mock(wraps=provlens.model._gated_step), []
    with mock.patch.object(provlens.model, "_BLOCK", block):
        with mock.patch.object(provlens.model, "_gated_step", steps):
            got = score_stream(model, dataset)
        with mock.patch.object(_Stream, "_replay", _loop_replay(loop_products)):
            ref = score_stream(model, dataset)
    assert np.array_equal(got._stream.trace, ref._stream.trace)
    assert np.array_equal(got.losses, ref.losses)
    products = [call.args[1] for call in steps.call_args_list]
    assert len(products) == len(loop_products)
    assert all(np.array_equal(a, b) for a, b in zip(products, loop_products))


@settings(max_examples=80, deadline=None)
@given(_stream_cases(), st.sampled_from([1, 2, 3, 512]))
def test_segment_replay_matches_level_loop(case, block):
    """Blocks of 1 to 3 events make segments cross levels and levels
    cross segments on graphs with a hub, a self-loop and timestamp ties."""
    model, graph = case
    labels = [TruthLabel.BENIGN] * len(graph)
    _assert_replay_matches_loop(model, LabeledDataset(graph, labels, (0, 0)), block)


def test_segment_replay_matches_level_loop_on_scenario(model, dataset):
    """The default scenario's widest levels hold over a thousand events,
    so they fill several segments."""
    _assert_replay_matches_loop(model, dataset, provlens.model._BLOCK)


@settings(max_examples=80, deadline=None)
@given(_stream_cases())
def test_levels_schedule_independent_updates(case):
    """The events of one level touch pairwise distinct nodes, and each
    event's level is one more than the higher level of its endpoints'
    previous events (0 for an event with none)."""
    model, graph = case
    seen = []
    replay = _Stream._replay

    def record(self, model, level):
        seen.append(level)
        return replay(self, model, level)

    with mock.patch.object(_Stream, "_replay", record):
        _Stream(model, graph, len(graph))
    (level,) = seen
    last: dict[int, int] = {}
    nodes_at: dict[int, list[int]] = {}
    for i, e in enumerate(graph.events):
        ends = {e.src, e.dst}
        assert level[i] == 1 + max(last.get(nid, -1) for nid in ends)
        for nid in ends:
            last[nid] = level[i]
        nodes_at.setdefault(level[i], []).extend(ends)
    for nodes in nodes_at.values():
        assert len(nodes) == len(set(nodes))


def test_stream_reads_build_new_contexts(model, contexts):
    """A read builds a fresh context; slices and negative indexes read the
    same events as plain indexes."""
    assert contexts[5] is not contexts[5]
    assert contexts[5].neighborhood == contexts[5].neighborhood
    assert [c.target_index for c in contexts[3:6]] == [3, 4, 5]
    assert contexts[-1].target_index == len(contexts) - 1
    with pytest.raises(IndexError):
        contexts[len(contexts)]
    with pytest.raises(ValueError):
        contexts.losses[0] = 1.0


def test_training_is_deterministic(dataset):
    cfg = ModelConfig(epochs=20)
    a = train(dataset, cfg)
    b = train(dataset, cfg)
    np.testing.assert_array_equal(a.We, b.We)
    np.testing.assert_array_equal(a.Wo, b.Wo)
    assert a.stats == b.stats


_FIT_CONFIG = ModelConfig(memory_dim=2, time_dim=2, embed_dim=4, epochs=60)


def _fitted(X, y, config=_FIT_CONFIG):
    model = TgnModel(config)
    _fit_head(model, X, y, config)
    return model


def _reference_fit(X, y, config=_FIT_CONFIG):
    """The full-batch Adam loop over every row, one row per occurrence."""
    model = TgnModel(config)
    n = len(X)
    Y = np.zeros((n, N_RELATIONS))
    Y[np.arange(n), y] = 1.0
    params = [model.We, model.be, model.Wo, model.bo]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for epoch in range(1, config.epochs + 1):
        Z = np.tanh(X @ model.We.T + model.be)
        logits = Z @ model.Wo.T + model.bo
        logits -= logits.max(axis=1, keepdims=True)
        P = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        dlogits = (P - Y) / n
        dA = (1.0 - Z * Z) * (dlogits @ model.Wo)
        grads = [dA.T @ X, dA.sum(axis=0), dlogits.T @ Z, dlogits.sum(axis=0)]
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            p -= config.learning_rate * (m[i] / (1 - b1**epoch)) / (
                np.sqrt(v[i] / (1 - b2**epoch)) + eps)
    return model


def _assert_same_head(a, b, atol=1e-12):
    for name in ("We", "be", "Wo", "bo"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                   rtol=0, atol=atol)


def _random_rows(seed, n_distinct, n_rows):
    """n_rows rows drawn from n_distinct random (input, label) pairs, so
    most of them repeat."""
    rng = np.random.default_rng(seed)
    input_dim = TgnModel(_FIT_CONFIG).input_dim
    base = rng.normal(size=(n_distinct, input_dim))
    labels = rng.integers(0, N_RELATIONS, n_distinct)
    pick = rng.integers(0, n_distinct, n_rows)
    return base[pick], labels[pick]


def test_weighted_fit_matches_row_by_row_reference():
    X, y = _random_rows(3, n_distinct=7, n_rows=40)
    first, counts = _distinct_rows(X, y)
    assert len(first) < len(X) and counts.sum() == len(X)
    _assert_same_head(_fitted(X, y), _reference_fit(X, y))


def _per_parameter_fit(X, y, config=_FIT_CONFIG):
    """The distinct-row fit with its own Adam update per parameter array
    and fresh temporaries at each step."""
    model = TgnModel(config)
    first, counts = _distinct_rows(X, y)
    k, weight = len(first), counts / len(y)
    X, y = X[first], y[first]
    Y = np.zeros((k, N_RELATIONS))
    Y[np.arange(k), y] = 1.0
    params = [model.We, model.be, model.Wo, model.bo]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for epoch in range(1, config.epochs + 1):
        Z, P = provlens.model._head(X @ model.We.T + model.be, model.Wo, model.bo)
        dlogits = (P - Y) * weight[:, None]
        dA = (1.0 - Z * Z) * (dlogits @ model.Wo)
        grads = [dA.T @ X, dA.sum(axis=0), dlogits.T @ Z, dlogits.sum(axis=0)]
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**epoch)
            vhat = v[i] / (1 - b2**epoch)
            p -= config.learning_rate * mhat / (np.sqrt(vhat) + eps)
    return model


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_distinct=st.integers(1, 9),
       n_rows=st.integers(1, 30))
def test_flat_buffer_fit_is_bitwise_the_per_parameter_fit(seed, n_distinct, n_rows):
    """One Adam update over the flat parameter buffer makes the same
    elementwise steps as one update per parameter; the model keeps its
    own copies of the parameters, not views into the buffer."""
    X, y = _random_rows(seed, n_distinct, n_rows)
    fitted, reference = _fitted(X, y), _per_parameter_fit(X, y)
    for name in ("We", "be", "Wo", "bo"):
        param = getattr(fitted, name)
        assert np.array_equal(param, getattr(reference, name))
        assert param.base is None and param.flags.owndata


def test_equal_inputs_with_different_labels_stay_apart():
    X, y = _random_rows(5, n_distinct=4, n_rows=12)
    X = np.vstack([X, X[:1], X[:1]])
    y = np.concatenate([y, [(y[0] + 1) % N_RELATIONS] * 2])
    first, counts = _distinct_rows(X, y)
    assert len(first) == len(np.unique(np.column_stack([X, y]), axis=0))
    assert 12 in first and counts[list(first).index(12)] == 2
    _assert_same_head(_fitted(X, y), _reference_fit(X, y))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_distinct=st.integers(1, 6),
    n_rows=st.integers(1, 20),
    repeat=st.integers(2, 4),
    data=st.data(),
)
def test_fit_ignores_row_order_and_repetition(seed, n_distinct, n_rows, repeat, data):
    X, y = _random_rows(seed, n_distinct, n_rows)
    fitted = _fitted(X, y)
    perm = np.array(data.draw(st.permutations(range(n_rows))))
    _assert_same_head(_fitted(X[perm], y[perm]), fitted)
    _assert_same_head(_fitted(np.repeat(X, repeat, axis=0), np.repeat(y, repeat)),
                      fitted)


def test_training_uses_only_pre_attack_events(dataset, model):
    """Held-out statistics come from benign events before the attack."""
    assert model.stats.sigma > 0
    assert model.stats.mu > 0
    assert np.isfinite(model.stats.final_train_loss)


def test_score_stream_is_pure(model, dataset, contexts):
    again = score_stream(model, dataset)
    assert [c.loss for c in again] == [c.loss for c in contexts]
    assert [c.truth_label for c in again] == [c.truth_label for c in contexts]


def test_score_stream_carries_labels(contexts, dataset):
    assert len(contexts) == len(dataset.graph)
    assert [c.truth_label for c in contexts] == dataset.labels
    assert all(c.loss >= 0 for c in contexts)


def test_stream_losses_match_score_event(model, contexts):
    """The batched stream losses are the single-context score."""
    for ctx in contexts:
        assert abs(ctx.loss - model.score_event(ctx)) <= 1e-12


def test_checkpoint_round_trip(model, contexts, tmp_path):
    p = tmp_path / "ckpt.json"
    model.save(p)
    assert set(json.loads(p.read_text())) == {
        "version", "config", "parameters", "stats"}
    assert p.stat().st_size < 100 * 1024
    loaded = TgnModel.load(p)
    sample = random_contexts(contexts, np.random.default_rng(0), 10)
    for ctx in sample:
        assert loaded.score_event(ctx) == model.score_event(ctx)
    assert loaded.stats == model.stats


def test_checkpoint_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        TgnModel.load(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(CheckpointError):
        TgnModel.load(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"version": 999}')
    with pytest.raises(CheckpointError):
        TgnModel.load(wrong)
    not_object = tmp_path / "list.json"
    not_object.write_text("[2]")
    with pytest.raises(CheckpointError):
        TgnModel.load(not_object)


def test_v1_checkpoint_is_rejected(model, tmp_path):
    """Version 1 files carried replay memory; they no longer load."""
    p = tmp_path / "v1.json"
    model.save(p)
    doc = json.loads(p.read_text())
    doc.update(version=1, memory={}, last_update={}, last_replay_ts=None)
    p.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version 1"):
        TgnModel.load(p)


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set(("parameters", "We", 0, 0), float("nan")), "We"),
    (_set(("parameters", "bo", 3), float("-inf")), "bo"),
    (_set(("stats", "sigma"), float("nan")), "sigma"),
    (_set(("stats", "mu"), "0.5"), "mu"),
    (lambda doc: doc["parameters"]["Wo"].pop(), "Wo"),
    (_set(("parameters", "be"), [[0.0]]), "be"),
    (_set(("parameters", "We", 1), [0.0]), "We"),
    (_set(("parameters", "bo", 0), "x"), "bo"),
], ids=["nan-We", "inf-bo", "nan-sigma", "text-mu", "short-Wo", "nested-be",
        "ragged-We", "text-bo"])
def test_checkpoint_rejects_bad_parameters(model, tmp_path, edit, match):
    """A parameter whose shape differs from the one its config implies,
    or any non-finite parameter or stat, is a checkpoint error."""
    p = tmp_path / "ckpt.json"
    model.save(p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=match):
        TgnModel.load(p)


def test_train_rejects_empty_dataset():
    from provlens.data import LabeledDataset
    from provlens.graph import TemporalGraph

    empty = LabeledDataset(TemporalGraph(), [], (0, 0))
    with pytest.raises(ValueError):
        train(empty, ModelConfig())
