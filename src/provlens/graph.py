"""Typed temporal provenance graph.

Entities (processes, files, sockets) connected by timestamped system
events, plus the window bounds (each window one index range) and neighborhood
extraction everything downstream (scoring, explanation) is built on.

:class:`TemporalGraph` is a column store. Events are int64 ``src``,
``dst`` and ``ts`` columns and a relation-code column ``rel`` (indexes
into :data:`RELATIONS`); nodes are id, kind-code (indexes into
:data:`NODE_KINDS`) and label columns in ascending id order, however
they were added. A node id's row is one searchsorted on the id column.
The graph caches one incidence index over all of its events
(:class:`_Incidences`): each event's endpoint rows, the (node, event)
incidences node-major and in event order, and each event's rank in
(-timestamp, index) order. It is built on the first read after a write,
and :func:`extract_context`, :meth:`TemporalGraph.incident` and stream
scoring all read it.
``graph.events`` and ``graph.nodes`` are read-only views
that build an :class:`Event` or a :class:`NodeDescriptor` when one is
read, so no per-event object is kept; the hot readers (stream scoring,
window scoring, ablation) read the columns. :meth:`TemporalGraph.add_node`
and :meth:`TemporalGraph.append_event` are the validated one-record write
paths; :meth:`TemporalGraph.from_columns` fills the columns in bulk and
raises ``ValueError`` on any input they would reject.
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
#: timestamps and node ids are int64 columns; timestamps count nanoseconds
_I64 = np.iinfo(np.int64)
NS_PER_S = 1_000_000_000


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
    first ``len(graph)`` events (or of every node); nodes are in id
    order, so adding a node below the largest id moves rows in place.
    """

    def __init__(self):
        self._node_id = np.empty(0, np.int64)
        self._node_kind = np.empty(0, np.int8)
        self._labels: list[str] = []
        self._src = np.empty(0, np.int64)
        self._dst = np.empty(0, np.int64)
        self._ts = np.empty(0, np.int64)
        self._rel = np.empty(0, np.int8)
        self._n = 0
        # the incidence index; see _incidences
        self._inc: _Incidences | None = None

    @classmethod
    def from_columns(cls, node_ids, node_kinds, node_labels,
                     src, dst, rel, ts) -> "TemporalGraph":
        """The graph that :meth:`add_node` of each node and then
        :meth:`append_event` of each event, in order, would build; filled
        in bulk.

        Nodes may come in any order; the graph holds them in id order.
        ``node_kinds`` and ``rel`` are codes into :data:`NODE_KINDS` and
        :data:`RELATIONS`. Columns that the one-record paths would reject
        or that repeat a node id raise ``ValueError``."""
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
        if (ids[1:] <= ids[:-1]).any():
            order = np.argsort(ids)
            ids, kinds, labels = ids[order], kinds[order], [labels[i] for i in order]
        if (ids[1:] == ids[:-1]).any() or not all(labels):
            raise ValueError("node ids must be distinct and labels non-empty")
        graph = cls()
        graph._node_id, graph._node_kind, graph._labels = ids, kinds, labels
        graph._src, graph._dst, graph._rel, graph._ts, graph._n = src, dst, rel, ts, n
        if (graph._rows(np.concatenate([src, dst])) < 0).any():
            raise ValueError("every event endpoint must be a node")
        if (ts[1:] < ts[:-1]).any():
            raise ValueError("event timestamps must be non-decreasing")
        return graph

    def add_node(self, node: NodeDescriptor) -> None:
        """Insert the node at its id's row (an ascending id appends); an id
        that is not an int64 integer raises before any row moves."""
        node_id, kind = np.int64(operator.index(node.node_id)), _KIND_INDEX[node.kind]
        m = len(self._labels)
        row = self._node_id[:m].searchsorted(node_id)
        if row < m and self._node_id[row] == node_id:
            existing = self.nodes[node.node_id]
            if existing != node:
                raise ValueError(f"node_id {node.node_id} already bound to {existing}")
            return
        self._node_id, self._node_kind = (
            _grown(c, m + 1) for c in (self._node_id, self._node_kind))
        for col, value in ((self._node_id, node_id), (self._node_kind, kind)):
            col[row + 1 : m + 1] = col[row:m]
            col[row] = value
        self._labels.insert(row, node.label)
        self._inc = None

    def append_event(self, e: Event) -> None:
        for end, node_id in (("src", e.src), ("dst", e.dst)):
            if self._node_row(node_id) < 0:
                raise UnknownNodeError(f"unknown {end} node {node_id}")
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
        self._inc = None

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
        in ascending id order."""
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
        return _read_only(self._node_id[: len(self._labels)])

    @property
    def node_kinds(self) -> np.ndarray:
        """Kind codes: indexes into :data:`NODE_KINDS`."""
        return _read_only(self._node_kind[: len(self._labels)])

    @property
    def node_labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    def _event(self, i: int) -> Event:
        return Event(self._src.item(i), self._dst.item(i),
                     RELATIONS[self._rel.item(i)], self._ts.item(i))

    def _rows(self, node_ids) -> np.ndarray:
        """Row of each of ``node_ids`` in the node columns, -1 for an id
        that is not a node: one searchsorted on the id column, which
        ascends."""
        ids = self._node_id[: len(self._labels)]
        node_ids = np.int64(node_ids)  # one key stays a scalar: its compare is fast
        if not len(ids):
            return np.full(np.shape(node_ids), -1, np.intp)
        # ids[count - 1] is the last id <= each key; at count 0, the largest
        count = ids.searchsorted(node_ids, "right")
        return count * (ids[count - 1] == node_ids) - 1

    def _node_row(self, node_id) -> int:
        """:meth:`_rows` of one key; one that is not an int64 integer is -1."""
        try:
            return int(self._rows(operator.index(node_id)))
        except (TypeError, OverflowError):
            return -1

    def _incidences(self) -> "_Incidences":
        """The incidence index over every event, built on the first read
        after a write (two first reads at once may each build an equal
        one; either serves)."""
        if self._inc is None:
            self._inc = _Incidences(self)
        return self._inc

    # -- queries ------------------------------------------------------------

    def incident(self, node_id: int) -> list[int]:
        """Sorted event indexes touching node_id, as a new list."""
        row = self._node_row(node_id)
        if row < 0:
            raise KeyError(node_id)
        inc = self._incidences()
        end, first = inc.search(row, self._n)
        return inc.inc_ev[first:end].tolist()

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
        row = g._node_row(node_id)
        if row < 0:
            raise KeyError(node_id)
        return NodeDescriptor(g._node_id.item(row), NODE_KINDS[g._node_kind.item(row)],
                              g._labels[row])

    def __contains__(self, node_id) -> bool:
        return self._graph._node_row(node_id) >= 0

    def __iter__(self):
        return iter(self._graph.node_ids.tolist())

    def __len__(self) -> int:
        return len(self._graph._labels)


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
    """Build the EventContext for one event, from the neighborhood builder
    that stream scoring runs (:meth:`_Incidences.neighborhoods`).

    Deterministic: neighborhood ordered by descending timestamp, ties by
    ascending event index. Only events at a lower index than the target
    are eligible: a later event at the target's timestamp is its future.
    Every call reads the graph's one incidence index, built on the first
    read after a write; a whole stream's neighborhoods come from one call
    of the builder (:func:`provlens.model.score_stream`).
    """
    if not (0 <= event_index < len(graph)):
        raise IndexError(f"event index {event_index} out of range")
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    inc = graph._incidences()
    target = np.array([event_index])
    pos, first = inc.search(inc.ends[:, target], target)
    nb, _ = inc.neighborhoods(target, pos, first, hops, horizon)
    ordered = nb.tolist()
    return EventContext(
        target=graph.events[event_index],
        target_index=event_index,
        neighborhood=ordered,
        neighborhood_events=[graph.events[i] for i in ordered],
    )


#: targets per block of the neighborhood builder; bounds its temporaries
_BLOCK = 512


class _Incidences:
    """The (node, event) incidences of a graph, and the one neighborhood
    builder over them.

    The incidences are node-major and in event order, and each has the
    sort key ``node row * (n + 1) + event``: the keys ascend, and one
    searchsorted finds where any node's incidences before any event end.
    A reader of a graph's first events (training's prefix stream) searches
    only before them, so it reads no later incidence. Node rows and event
    indexes stay below 2^19 up to a 64 h stream (about 369k events and
    375k nodes), so every combined key stays far below 2^63.
    """

    def __init__(self, graph: TemporalGraph):
        n = self.n = len(graph)
        self.ts = graph.ts
        #: (2, n) node rows of each event's src and dst
        self.ends = graph._rows(np.stack([graph.src, graph.dst]))
        # each event under its src row, then its dst row unless it is a
        # self-loop; the keys are distinct, so one sort orders them
        ev = np.arange(n)
        keys = self.ends * (n + 1) + ev
        loop = self.ends[0] == self.ends[1]
        self.key = np.sort(np.concatenate([keys[0], keys[1, ~loop]]))
        inc_node, self.inc_ev = np.divmod(self.key, n + 1)
        #: each incidence's slot ``2 * event + side``, side 1 for the
        #: event's dst; a self-loop is listed once, in its dst slot
        self.inc_row = 2 * self.inc_ev + (inc_node == self.ends[1, self.inc_ev])
        # timestamps never decrease, so the events of one timestamp form a
        # run, and an event's rank in (-timestamp, index) order is the
        # count of events after its run plus its place in the run
        new_run = np.ones(n, bool)
        new_run[1:] = self.ts[1:] != self.ts[:-1]
        run_start = np.flatnonzero(new_run)
        run = np.cumsum(new_run) - 1
        self.rank = n - np.append(run_start[1:], n)[run] + ev - run_start[run]
        self.by_rank = np.empty_like(ev)
        self.by_rank[self.rank] = ev

    def search(self, nodes, before) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``key`` of each node row's first incidence at or
        after event ``before`` and of its first incidence: the node's
        incidences before ``before`` lie between the two."""
        at = nodes * (self.n + 1)
        return np.searchsorted(self.key, at + before), np.searchsorted(self.key, at)

    def neighborhoods(self, targets, pos, first, hops: int, horizon: int):
        """Neighborhoods of ``targets`` as one flat array of event indexes,
        and each target's size.

        A neighborhood is a breadth-first walk of ``hops`` hops from the
        target's endpoints: each hop takes every frontier node's last
        ``horizon`` incidences before the target, and the next frontier is
        those events' endpoints, less the nodes already expanded for that
        target. The walk stops early when a frontier is empty. The events
        are deduplicated and ordered by descending timestamp, then
        ascending index. ``pos`` and ``first`` are the (2, k)
        :meth:`search` positions of the targets' endpoints before them.

        Blocks of ``_BLOCK`` targets walk together as flat arrays with one
        owner (the target's slot in its block) per entry: a (target, node)
        pair is the key ``node * k + owner`` and a found event
        ``owner * n + rank``, its rank in (-timestamp, index) order."""
        n, rank = self.n, self.rank
        horizon = min(horizon, n)  # no node has more earlier incidences
        parts, sizes = [], np.empty(len(targets), np.intp)
        for start in range(0, len(targets), _BLOCK):
            block = slice(start, start + _BLOCK)
            t = targets[block]
            k = len(t)
            owner = np.tile(np.arange(k), 2)
            expanded = self.ends[:, t].ravel() * k + owner
            p, f = pos[:, block].ravel(), first[:, block].ravel()
            found = []
            for hop in range(hops):
                lo = np.maximum(f, p - horizon)
                count = p - lo
                # the incidences lo to p - 1 of each pair, flattened
                at = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count,
                                                        count)
                owner = np.repeat(owner, count)
                edges = self.inc_ev[at]
                found.append(owner * n + rank[edges])
                if hop == hops - 1:
                    break
                pairs = self.ends[:, edges].ravel() * k + np.tile(owner, 2)
                pairs = _sorted_distinct(pairs)
                pairs = pairs[~np.isin(pairs, expanded)]
                if not len(pairs):
                    break
                expanded = np.concatenate([expanded, pairs])
                nodes, owner = np.divmod(pairs, k)
                p, f = self.search(nodes, t[owner])
            r = _sorted_distinct(np.concatenate(found))
            parts.append(self.by_rank[r % n])
            sizes[block] = np.bincount(r // n, minlength=k)
        return np.concatenate([self.by_rank[:0], *parts]), sizes


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending, from one sort and one
    comparison of neighbours; ``np.unique`` hashes before it sorts, which
    takes longer on these small integer keys."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]
