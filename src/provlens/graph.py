"""Typed temporal provenance graph.

Entities (processes, files, sockets) connected by timestamped system
events, plus the window slicing and neighborhood extraction everything
downstream (scoring, explanation) is built on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum


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
    """Append-only timestamped event sequence over typed entities.

    Single-writer during construction; immutable and safe for concurrent
    reads afterwards. Timestamps must be non-decreasing; ties are broken
    by insertion index.
    """

    def __init__(self):
        self.nodes: dict[int, NodeDescriptor] = {}
        self.events: list[Event] = []
        self._adjacency: dict[int, list[int]] = {}  # node_id -> sorted event indexes
        self._timestamps: list[int] = []

    def add_node(self, node: NodeDescriptor) -> None:
        if node.node_id in self.nodes:
            existing = self.nodes[node.node_id]
            if existing != node:
                raise ValueError(f"node_id {node.node_id} already bound to {existing}")
            return
        self.nodes[node.node_id] = node
        self._adjacency[node.node_id] = []

    def append_event(self, e: Event) -> None:
        if e.src not in self.nodes:
            raise UnknownNodeError(f"unknown src node {e.src}")
        if e.dst not in self.nodes:
            raise UnknownNodeError(f"unknown dst node {e.dst}")
        if self.events and e.timestamp < self.events[-1].timestamp:
            raise OrderingError(
                f"event timestamp {e.timestamp} precedes last timestamp "
                f"{self.events[-1].timestamp}"
            )
        idx = len(self.events)
        self.events.append(e)
        self._timestamps.append(e.timestamp)
        self._adjacency[e.src].append(idx)
        if e.dst != e.src:
            self._adjacency[e.dst].append(idx)

    def incident(self, node_id: int) -> list[int]:
        """Sorted event indexes touching node_id."""
        return self._adjacency[node_id]

    def window_slice(self, t0: int, t1: int) -> list[int]:
        """Event indexes with t0 <= timestamp < t1 (half-open), in order."""
        if t0 >= t1:
            raise ValueError(f"window bounds must satisfy t0 < t1, got [{t0}, {t1})")
        lo = bisect.bisect_left(self._timestamps, t0)
        hi = bisect.bisect_left(self._timestamps, t1)
        return list(range(lo, hi))

    def span(self) -> tuple[int, int]:
        if not self.events:
            return (0, 0)
        return (self.events[0].timestamp, self.events[-1].timestamp)

    def __len__(self) -> int:
        return len(self.events)


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
    if not (0 <= event_index < len(graph.events)):
        raise IndexError(f"event index {event_index} out of range")
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    target = graph.events[event_index]
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
                    ev = graph.events[idx]
                    next_frontier.add(ev.src)
                    next_frontier.add(ev.dst)
        frontier = next_frontier - visited_nodes
        if not frontier:
            break

    ordered = sorted(seen, key=lambda i: (-graph.events[i].timestamp, i))
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
    `exclude`, in index order. Ties in timestamp are broken by insertion
    index, so anything at or past the target's own index is the future;
    every earlier index is at-or-before its timestamp."""
    incident = graph.incident(node_id)
    end = bisect.bisect_left(incident, exclude)
    start = end - horizon
    # a conditional, not max(): this runs for each endpoint of every event
    # and the builtin call is measurably slower
    return incident[start if start > 0 else 0:end]
