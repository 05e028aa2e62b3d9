"""Typed temporal provenance graph.

Entities (processes, files, sockets) connected by timestamped system
events, plus the window slicing and neighborhood extraction everything
downstream (scoring, explanation) is built on.

:class:`TemporalGraph` is a column store. Events are int64 ``src``,
``dst`` and ``ts`` columns and a relation-code column ``rel`` (indexes
into :data:`RELATIONS`); nodes are id, kind-code (indexes into
:data:`NODE_KINDS`) and label columns in insertion order. The events
touching each node are one CSR incidence list: per-node offsets into one
array of event indexes, node-major and in event order, built when it is
first read. ``graph.events`` and ``graph.nodes`` are read-only views that
build an :class:`Event` or a :class:`NodeDescriptor` when one is read,
so no per-event object is kept; the hot readers (stream scoring, window
scoring, ablation) read the columns. :meth:`TemporalGraph.add_node` and
:meth:`TemporalGraph.append_event` are the validated one-record write
paths; :meth:`TemporalGraph.from_columns` fills the columns in bulk with
the same checks and the same errors.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class NodeKind(Enum):
    PROCESS = "PROCESS"
    FILE = "FILE"
    SOCKET = "SOCKET"


class Relation(Enum):
    READ = "READ"
    WRITE = "WRITE"
    EXECUTE = "EXECUTE"
    OPEN = "OPEN"
    CLOSE = "CLOSE"
    CONNECT = "CONNECT"
    SEND = "SEND"
    RECV = "RECV"
    CLONE = "CLONE"


#: Fixed decoder target alphabet, in enum declaration order.
RELATIONS = list(Relation)
RELATION_INDEX = {r: i for i, r in enumerate(RELATIONS)}
#: node kinds in declaration order; a graph's kind column indexes this
NODE_KINDS = list(NodeKind)
_KIND_INDEX = {k: i for i, k in enumerate(NODE_KINDS)}
_I64 = np.iinfo(np.int64)


class TruthLabel(Enum):
    BENIGN = "BENIGN"
    MALICIOUS = "MALICIOUS"
    UNKNOWN = "UNKNOWN"


class OrderingError(ValueError):
    """Event appended or replayed out of timestamp order."""


class UnknownNodeError(KeyError):
    """Event references a node_id not present in the graph."""


@dataclass(frozen=True)
class NodeDescriptor:
    node_id: int
    kind: NodeKind
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("node label must be non-empty")


@dataclass(frozen=True)
class Event:
    src: int
    dst: int
    relation: Relation
    timestamp: int  # integer nanoseconds since epoch


class TemporalGraph:
    """Append-only timestamped event sequence over typed entities, stored
    as columns (see the module docstring).

    Single-writer during construction; immutable and safe for concurrent
    reads afterwards. Timestamps must be non-decreasing; ties are broken
    by insertion index. The column properties are read-only views of the
    first ``len(graph)`` events (or of every node).
    """

    def __init__(self):
        self._node_id = np.empty(0, np.int64)
        self._node_kind = np.empty(0, np.int8)
        self._labels: list[str] = []
        self._row: dict[int, int] = {}  # node_id -> row of the node columns
        self._src = np.empty(0, np.int64)
        self._dst = np.empty(0, np.int64)
        self._ts = np.empty(0, np.int64)
        self._rel = np.empty(0, np.int8)
        self._n = 0
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_columns(cls, node_ids, node_kinds, node_labels,
                     src, dst, rel, ts) -> "TemporalGraph":
        """The graph that :meth:`add_node` of each node and then
        :meth:`append_event` of each event, in order, would build; filled
        in bulk.

        ``node_kinds`` and ``rel`` are codes into :data:`NODE_KINDS` and
        :data:`RELATIONS`. The bulk checks are those of the one-record
        paths; a graph that fails one (or repeats a node) is built one
        record at a time instead, which raises the error of the first
        failing record, or accepts a node repeated with an equal
        descriptor."""
        ids, kinds = np.array(node_ids, np.int64), np.array(node_kinds, np.int8)
        labels = list(node_labels)
        src, dst = np.array(src, np.int64), np.array(dst, np.int64)
        rel, ts = np.array(rel, np.int8), np.array(ts, np.int64)
        m, n = len(ids), len(src)
        if not (len(kinds) == len(labels) == m
                and len(dst) == len(rel) == len(ts) == n):
            raise ValueError("node columns and event columns must each have one length")
        if not (_codes_in_range(kinds, NODE_KINDS) and _codes_in_range(rel, RELATIONS)):
            raise ValueError(
                "kind and relation codes must index NODE_KINDS and RELATIONS")
        sorted_ids = np.sort(ids)
        if (
            (sorted_ids[1:] == sorted_ids[:-1]).any()
            or not all(labels)
            or not (_members(sorted_ids, src) and _members(sorted_ids, dst))
            or (ts[1:] < ts[:-1]).any()
        ):
            graph = cls()
            for nid, kind, label in zip(ids.tolist(), kinds.tolist(), labels):
                graph.add_node(NodeDescriptor(nid, NODE_KINDS[kind], label))
            for s, d, r, t in zip(src.tolist(), dst.tolist(), rel.tolist(),
                                  ts.tolist()):
                graph.append_event(Event(s, d, RELATIONS[r], t))
            return graph
        graph = cls()
        graph._node_id, graph._node_kind, graph._labels = ids, kinds, labels
        graph._row = dict(zip(ids.tolist(), range(m)))
        graph._src, graph._dst, graph._rel, graph._ts, graph._n = src, dst, rel, ts, n
        return graph

    def add_node(self, node: NodeDescriptor) -> None:
        if node.node_id in self._row:
            existing = self.nodes[node.node_id]
            if existing != node:
                raise ValueError(f"node_id {node.node_id} already bound to {existing}")
            return
        row = len(self._row)
        kind = _KIND_INDEX[node.kind]
        self._node_id = _grown(self._node_id, row + 1)
        self._node_kind = _grown(self._node_kind, row + 1)
        self._node_id[row] = node.node_id
        self._node_kind[row] = kind
        self._labels.append(node.label)
        self._row[node.node_id] = row
        self._csr = None

    def append_event(self, e: Event) -> None:
        if e.src not in self._row:
            raise UnknownNodeError(f"unknown src node {e.src}")
        if e.dst not in self._row:
            raise UnknownNodeError(f"unknown dst node {e.dst}")
        i = self._n
        if i and e.timestamp < self._ts.item(i - 1):
            raise OrderingError(
                f"event timestamp {e.timestamp} precedes last timestamp "
                f"{self._ts.item(i - 1)}"
            )
        rel, ts = RELATION_INDEX[e.relation], operator.index(e.timestamp)
        self._src, self._dst, self._ts, self._rel = (
            _grown(c, i + 1) for c in (self._src, self._dst, self._ts, self._rel))
        self._src[i], self._dst[i], self._ts[i], self._rel[i] = e.src, e.dst, ts, rel
        self._n = i + 1
        self._csr = None

    # -- read views and columns ------------------------------------------

    # the views are made on each read: a view kept on the graph would be
    # a reference cycle, and the graph would wait for the cyclic collector

    @property
    def events(self) -> Sequence[Event]:
        """Read-only sequence view; each read builds a new Event."""
        return _EventView(self)

    @property
    def nodes(self) -> Mapping[int, NodeDescriptor]:
        """Read-only mapping view from node id to a new NodeDescriptor,
        in insertion order."""
        return _NodeView(self)

    @property
    def src(self) -> np.ndarray:
        return _read_only(self._src[: self._n])

    @property
    def dst(self) -> np.ndarray:
        return _read_only(self._dst[: self._n])

    @property
    def ts(self) -> np.ndarray:
        """Timestamps in integer nanoseconds, non-decreasing."""
        return _read_only(self._ts[: self._n])

    @property
    def rel(self) -> np.ndarray:
        """Relation codes: indexes into :data:`RELATIONS`."""
        return _read_only(self._rel[: self._n])

    @property
    def node_ids(self) -> np.ndarray:
        return _read_only(self._node_id[: len(self._row)])

    @property
    def node_kinds(self) -> np.ndarray:
        """Kind codes: indexes into :data:`NODE_KINDS`."""
        return _read_only(self._node_kind[: len(self._row)])

    @property
    def node_labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    def _event(self, i: int) -> Event:
        return Event(self._src.item(i), self._dst.item(i),
                     RELATIONS[self._rel.item(i)], self._ts.item(i))

    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR incidence: node row r's incident event indexes, ascending,
        are ``events[offsets[r]:offsets[r + 1]]``; a self-loop is listed
        once. Built on the first read after a write."""
        csr = self._csr
        if csr is None:
            n, m = self._n, len(self._row)
            ends = np.fromiter(
                map(self._row.__getitem__,
                    np.stack([self._src[:n], self._dst[:n]], axis=1).ravel().tolist()),
                np.intp, 2 * n)
            # each event's src row, then its dst row unless it is a self-loop
            keep = np.ones(2 * n, bool)
            keep[1::2] = self._src[:n] != self._dst[:n]
            ends, ev = ends[keep], np.repeat(np.arange(n), 2)[keep]
            offsets = np.zeros(m + 1, np.intp)
            np.cumsum(np.bincount(ends, minlength=m), out=offsets[1:])
            csr = self._csr = (offsets, ev[np.argsort(ends, kind="stable")])
        return csr

    # -- queries ------------------------------------------------------------

    def incident(self, node_id: int) -> list[int]:
        """Sorted event indexes touching node_id, as a new list."""
        offsets, events = self._incidence()
        row = self._row[node_id]
        return events[offsets[row] : offsets[row + 1]].tolist()

    def window_bounds(self, t0: int, t1: int) -> tuple[int, int]:
        """(lo, hi): the events with t0 <= timestamp < t1 (half-open) are
        lo to hi - 1."""
        if t0 >= t1:
            raise ValueError(f"window bounds must satisfy t0 < t1, got [{t0}, {t1})")
        return self.count_before(t0), self.count_before(t1)

    def count_before(self, t) -> int:
        """Number of events with timestamp < t, for any real t: the index
        of the first event at or after t."""
        if t > _I64.max:
            return self._n
        if t <= _I64.min:
            return 0
        return int(np.searchsorted(self._ts[: self._n], math.ceil(t)))

    def window_slice(self, t0: int, t1: int) -> list[int]:
        """Event indexes with t0 <= timestamp < t1 (half-open), in order."""
        return list(range(*self.window_bounds(t0, t1)))

    def span(self) -> tuple[int, int]:
        if not self._n:
            return (0, 0)
        return (self._ts.item(0), self._ts.item(self._n - 1))

    def __len__(self) -> int:
        return self._n


class _EventView(Sequence):
    """``graph.events``: a read-only sequence that builds each Event from
    the columns when it is read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: TemporalGraph):
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._graph._event(j) for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        n = self._graph._n
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"event index {i} out of range")
        return self._graph._event(i)

    def __iter__(self):
        g = self._graph
        return map(Event, g.src.tolist(), g.dst.tolist(),
                   map(RELATIONS.__getitem__, g.rel.tolist()), g.ts.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class _NodeView(Mapping):
    """``graph.nodes``: a read-only mapping from node id to a
    NodeDescriptor built from the columns when it is read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: TemporalGraph):
        self._graph = graph

    def __getitem__(self, node_id) -> NodeDescriptor:
        g = self._graph
        row = g._row[node_id]
        return NodeDescriptor(g._node_id.item(row), NODE_KINDS[g._node_kind.item(row)],
                              g._labels[row])

    def __contains__(self, node_id) -> bool:
        return node_id in self._graph._row

    def __iter__(self):
        return iter(self._graph._row)

    def __len__(self) -> int:
        return len(self._graph._row)


def _grown(col: np.ndarray, need: int) -> np.ndarray:
    """``col``, or a copy with room for at least ``need`` entries when it
    has less (capacity doubles, so appends are amortized O(1))."""
    if need <= len(col):
        return col
    out = np.empty(max(need, 2 * len(col), 16), col.dtype)
    out[: len(col)] = col
    return out


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _codes_in_range(codes: np.ndarray, alphabet: list) -> bool:
    return not len(codes) or (codes.min() >= 0 and codes.max() < len(alphabet))


def _members(sorted_ids: np.ndarray, ids: np.ndarray) -> bool:
    """Whether every entry of ``ids`` is in the sorted array."""
    if not len(sorted_ids):
        return not len(ids)
    pos = np.minimum(np.searchsorted(sorted_ids, ids), len(sorted_ids) - 1)
    return bool((sorted_ids[pos] == ids).all())


@dataclass
class EventContext:
    """One event plus the local temporal data an explainer consumes.

    neighborhood holds the candidate edges every mask ranges over: at most
    `horizon` most recent events per endpoint, breadth-first to `hops`
    hops, all at-or-before the target timestamp and excluding the target.
    node_states is a memory snapshot for every node appearing in the
    neighborhood or the target.
    """

    target: Event
    target_index: int
    neighborhood: list[int]         # event indexes into the graph
    neighborhood_events: list[Event]
    node_states: dict[int, object] = field(default_factory=dict)
    loss: float = 0.0
    truth_label: TruthLabel = TruthLabel.UNKNOWN

    def __post_init__(self):
        if self.loss < 0:
            raise ValueError("anomaly loss must be non-negative")
        if self.target_index in self.neighborhood:
            raise ValueError("target must not be a member of its own neighborhood")


def extract_context(
    graph: TemporalGraph,
    event_index: int,
    hops: int = 1,
    horizon: int = 10,
) -> EventContext:
    """Build the EventContext for one event.

    Deterministic: neighborhood ordered by descending timestamp, ties by
    ascending event index. Only events at a lower index than the target
    are eligible: a later event at the target's timestamp is its future.
    """
    if not (0 <= event_index < len(graph)):
        raise IndexError(f"event index {event_index} out of range")
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    target = graph.events[event_index]
    src, dst, ts = graph.src, graph.dst, graph.ts
    seen: set[int] = set()
    frontier = {target.src, target.dst}
    visited_nodes: set[int] = set()

    for _ in range(hops):
        next_frontier: set[int] = set()
        for node_id in frontier:
            if node_id in visited_nodes:
                continue
            visited_nodes.add(node_id)
            for idx in _recent_incident(graph, node_id, event_index, horizon):
                if idx not in seen:
                    seen.add(idx)
                    next_frontier.add(src.item(idx))
                    next_frontier.add(dst.item(idx))
        frontier = next_frontier - visited_nodes
        if not frontier:
            break

    ordered = sorted(seen, key=lambda i: (-ts.item(i), i))
    return EventContext(
        target=target,
        target_index=event_index,
        neighborhood=ordered,
        neighborhood_events=[graph.events[i] for i in ordered],
    )


def _recent_incident(
    graph: TemporalGraph, node_id: int, exclude: int, horizon: int
) -> list[int]:
    """Up to `horizon` most recent events on node_id before event index
    `exclude`, in index order, read from the graph's CSR incidence. Ties
    in timestamp are broken by insertion index, so anything at or past
    the target's own index is the future; every earlier index is
    at-or-before its timestamp."""
    offsets, events = graph._incidence()
    row = graph._row[node_id]
    lo = offsets[row]
    end = lo + int(np.searchsorted(events[lo : offsets[row + 1]], exclude))
    return events[max(lo, end - horizon) : end].tolist()
