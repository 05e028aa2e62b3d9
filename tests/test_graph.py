"""Temporal graph structure, slicing, and neighborhood extraction."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from provlens.detect import iter_windows
from provlens.graph import (
    Event,
    EventContext,
    NodeDescriptor,
    NodeKind,
    OrderingError,
    Relation,
    TemporalGraph,
    UnknownNodeError,
    extract_context,
)

from conftest import NS, build_graph


def test_relation_alphabet_order():
    assert [r.name for r in Relation] == [
        "READ", "WRITE", "EXECUTE", "OPEN", "CLOSE",
        "CONNECT", "SEND", "RECV", "CLONE",
    ]


def test_event_is_immutable():
    e = Event(0, 1, Relation.READ, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.timestamp = 6


def test_append_rejects_unknown_node(tiny_graph):
    with pytest.raises(UnknownNodeError):
        tiny_graph.append_event(Event(0, 99, Relation.READ, 100 * NS))


def test_append_rejects_out_of_order(tiny_graph):
    with pytest.raises(OrderingError):
        tiny_graph.append_event(Event(0, 3, Relation.READ, 1 * NS))


def test_append_allows_equal_timestamps(tiny_graph):
    last = tiny_graph.events[-1].timestamp
    tiny_graph.append_event(Event(0, 3, Relation.CLOSE, last))
    assert tiny_graph.events[-1].timestamp == last


def test_add_node_rejects_rebinding():
    g = TemporalGraph()
    g.add_node(NodeDescriptor(1, NodeKind.FILE, "a"))
    g.add_node(NodeDescriptor(1, NodeKind.FILE, "a"))  # idempotent
    with pytest.raises(ValueError):
        g.add_node(NodeDescriptor(1, NodeKind.FILE, "b"))


def test_window_bounds_half_open(tiny_graph):
    # events at t=1..7 s; [2, 5) must include 2, 3, 4 and exclude 5
    idxs = range(*tiny_graph.window_bounds(2 * NS, 5 * NS))
    times = [tiny_graph.events[i].timestamp for i in idxs]
    assert times == [2 * NS, 3 * NS, 4 * NS]


def test_window_bounds_rejects_empty_window(tiny_graph):
    with pytest.raises(ValueError):
        tiny_graph.window_bounds(5 * NS, 5 * NS)


def test_every_event_in_exactly_one_window(dataset):
    from provlens.detect import iter_windows

    g = dataset.graph
    window_ns = 15 * 60 * NS
    counts = [0] * len(g)
    for w in iter_windows(g.span(), window_ns):
        for i in range(*g.window_bounds(*w)):
            counts[i] += 1
    assert all(c == 1 for c in counts)


def _random_graph(n_nodes, edges):
    """Graph over n_nodes processes; edges are (src, dst, relation,
    timestamp increment) with increments of 0 making timestamp ties."""
    g = TemporalGraph()
    for nid in range(n_nodes):
        g.add_node(NodeDescriptor(nid, NodeKind.PROCESS, f"p{nid}"))
    t = 0
    for src, dst, rel, dt in edges:
        t += dt
        g.append_event(Event(src % n_nodes, dst % n_nodes, rel, t))
    return g


# timestamps and window widths on a quarter-second grid, so window
# bounds often fall exactly on an event
QUARTER = NS // 4
_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(list(Relation)),
              st.integers(0, 12).map(lambda k: k * QUARTER)),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), _edges, st.integers(1, 20).map(lambda k: k * QUARTER))
def test_windows_partition_events(n_nodes, edges, window_ns):
    g = _random_graph(n_nodes, edges)
    counts = [0] * len(g)
    for w in iter_windows(g.span(), window_ns):
        for i in range(*g.window_bounds(*w)):
            counts[i] += 1
    assert counts == [1] * len(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), _edges, st.integers(1, 4), st.data())
def test_one_hop_context_is_last_horizon_per_endpoint(n_nodes, edges, horizon,
                                                      data):
    """Oracle: each endpoint's `horizon` latest earlier-index events, so a
    timestamp tie after the target is the future and stays out."""
    g = _random_graph(n_nodes, edges)
    i = data.draw(st.integers(0, len(g) - 1))
    target = g.events[i]
    expected = set()
    for node in (target.src, target.dst):
        incident = [j for j in range(i) if node in (g.events[j].src, g.events[j].dst)]
        expected.update(incident[-horizon:])
    ctx = extract_context(g, i, hops=1, horizon=horizon)
    assert ctx.neighborhood == sorted(expected,
                                      key=lambda j: (-g.events[j].timestamp, j))


def test_extract_context_matches_brute_force(tiny_graph):
    """Oracle: recompute the 1-hop / horizon-10 neighborhood by hand."""
    g = tiny_graph
    target_index = 6  # (1, 4, SEND)
    target = g.events[target_index]
    expected = set()
    for node in (target.src, target.dst):
        recent = [
            i
            for i, ev in enumerate(g.events)
            if i < target_index and node in (ev.src, ev.dst)
        ][-10:]
        expected.update(recent)
    ctx = extract_context(g, target_index, hops=1, horizon=10)
    assert set(ctx.neighborhood) == expected
    # deterministic ordering: descending timestamp, ties by ascending index
    keys = [(-g.events[i].timestamp, i) for i in ctx.neighborhood]
    assert keys == sorted(keys)


def test_extract_context_horizon_limits_per_endpoint():
    nodes = [(0, NodeKind.PROCESS, "p"), (1, NodeKind.FILE, "f")]
    events = [(0, 1, Relation.READ, float(t)) for t in range(1, 30)]
    g = build_graph((nodes, events))
    ctx = extract_context(g, len(g) - 1, hops=1, horizon=10)
    assert len(ctx.neighborhood) == 10
    # the 10 most recent events before the target
    assert sorted(ctx.neighborhood) == list(range(18, 28))


def test_extract_context_second_hop(tiny_graph):
    # target (2, 4, WRITE) at t=6: hop 1 covers nodes 2 and 4; node 4's
    # history pulls in node 1, whose events join at hop 2.
    one_hop = extract_context(tiny_graph, 5, hops=1)
    two_hop = extract_context(tiny_graph, 5, hops=2)
    assert set(one_hop.neighborhood) <= set(two_hop.neighborhood)
    assert set(one_hop.neighborhood) == {2}
    # node 1's history (EXECUTE at index 3, READ at index 4) joins at hop 2;
    # (0, 3, OPEN) at index 0 stays out — it is three hops away
    assert set(two_hop.neighborhood) == {2, 3, 4}


def test_extract_context_excludes_target_and_future(tiny_graph):
    ctx = extract_context(tiny_graph, 3)
    assert 3 not in ctx.neighborhood
    assert all(i < 3 for i in ctx.neighborhood)
    assert all(i != 3 for i in ctx.neighborhood)


def test_extract_context_argument_validation(tiny_graph):
    with pytest.raises(IndexError):
        extract_context(tiny_graph, 999)
    with pytest.raises(ValueError):
        extract_context(tiny_graph, 0, hops=0)
    with pytest.raises(ValueError):
        extract_context(tiny_graph, 0, horizon=0)


def test_event_context_validation(tiny_graph):
    ev = tiny_graph.events[2]
    with pytest.raises(ValueError):
        EventContext(ev, 2, [], [], loss=-0.1)
    with pytest.raises(ValueError):
        EventContext(ev, 2, [2], [ev])
