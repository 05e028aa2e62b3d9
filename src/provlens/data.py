"""Audit-log ingestion and synthetic scenario generation.

Two ways to obtain a labeled dataset: parse a plain-text audit log
(one whitespace-separated record per line), or generate a synthetic
timeline from a :class:`ScenarioSpec`. A spec names two kinds of
benign background, both scripted: duty cycles (:class:`DutyCycle`, a
long-lived process repeating fixed steps, which may spawn sessions)
and session streams (:class:`SessionSpec`, one short scripted session
per period), plus an injected multi-stage attack chain. The spec's
seed is read by nothing yet, so the timeline is a function of the
scripts alone.

Log line format::

    <src_kind> <src_label> <relation> <dst_kind> <dst_label> <timestamp_ns>

The timestamp is ASCII decimal digits with an optional sign, within
the int64 range.

Dataset file, format version 2: one JSON object {version, nodes, events,
attack_interval}. ``nodes`` holds the graph's node columns as they are,
in id order: ``id`` and ``kind`` are base64 columns (see
:mod:`provlens.fileformat`) of little-endian int64 ids and of one-byte
codes into ``NODE_KINDS``, and ``label`` is a list of strings.
``events`` holds the base64 columns ``src``, ``dst`` and ``timestamp``
(int64) and ``relation`` and ``label`` (one-byte codes into
``RELATIONS`` and ``TruthLabel``).
``attack_interval`` is a plain JSON pair. :func:`load_dataset` decodes
the columns straight into ``TemporalGraph.from_columns`` and refuses
anything :func:`save_dataset` would not write, naming the file and the
field.

Version 1, one JSON document with a dict per node and a list per event,
is still read, since a dataset, unlike a checkpoint, cannot be rebuilt
from what the program keeps: a parsed log may be gone. It is decoded one
record at a time, in file order, through the graph's validated
one-record write paths, so a malformed file raises the error of its
first bad record; its nodes may come in any order. That is slower than
a version-2 load; :func:`save_dataset` writes any loaded dataset as
version 2.

The log parser builds one record per line, the plain tuple
``(ts_ns, lineno, src_key, dst_key, relation)``, where a key is
``(kind code, label)``, the code an int into ``NODE_KINDS`` computed
once per parsed token, so numbering the nodes hashes ints and strings
only. It sorts its records once, by (ts_ns, lineno), then numbers the
nodes and fills the graph's columns in bulk (see :mod:`provlens.graph`).
The scenario generator makes no per-event record: it builds each
template's events as numpy columns and orders them with one
``np.lexsort`` (see :func:`generate_scenario`). :func:`save_dataset`
and :func:`render_log` write from the columns.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileformat import (
    _excerpt,
    _read_decimal,
    decode_column,
    encode_column,
    read_json,
    require_keys,
)
from .graph import (
    _I64,
    NODE_KINDS,
    NS_PER_S,
    RELATION_INDEX,
    RELATIONS,
    Event,
    NodeDescriptor,
    NodeKind,
    Relation,
    TemporalGraph,
    TruthLabel,
)

DATASET_VERSION = 2


#: by value, each kind's and relation's code in the graph's columns and
#: each truth label's member, for decoding; a lookup costs a fraction of
#: a call to the Enum
_KIND_CODES = {k.value: i for i, k in enumerate(NODE_KINDS)}
_RELATION_CODES = {r.value: i for i, r in enumerate(RELATIONS)}
_LABELS = {lab.value: lab for lab in TruthLabel}
#: the value of each code, for writing
_KIND_VALUES = [k.value for k in NODE_KINDS]
_RELATION_VALUES = [r.value for r in RELATIONS]
#: truth labels in declaration order; a version-2 file's label codes
#: index this, as its kind and relation codes index NODE_KINDS and RELATIONS
_TRUTH_LABELS = list(TruthLabel)
_LABEL_CODES = {lab.value: i for i, lab in enumerate(_TRUTH_LABELS)}
#: a version-2 file's node and event columns: (dtype, the alphabet a
#: code column indexes); "nodes" also holds "label", a list of strings
_NODE_COLUMNS = {"id": ("<i8", None), "kind": ("u1", NODE_KINDS)}
_EVENT_COLUMNS = {"src": ("<i8", None), "dst": ("<i8", None),
                  "timestamp": ("<i8", None), "relation": ("u1", RELATIONS),
                  "label": ("u1", _TRUTH_LABELS)}
#: an enum member's value, read without the Enum's property (or its hash)
_VALUE = operator.attrgetter("_value_")
#: the kind codes of the generator's process and config-file keys
_PROCESS, _FILE = _KIND_CODES["PROCESS"], _KIND_CODES["FILE"]
#: a parsed record's sort key, (ts_ns, lineno); records are
#: (ts_ns, lineno, src_key, dst_key, relation)
_TIME_ORDER = operator.itemgetter(0, 1)
#: the generator's order class of the attack chain; duty cycles are 0 and
#: session streams 1
_ATTACK = 2
#: the generator's tie keys are (class, position...) of at most this many
#: entries, each >= -1; a shorter key is padded with _PAD, so it sorts
#: before every longer key it begins, as a shorter tuple does
_ORDER_WIDTH = 5
_PAD = -2


class ParseError(ValueError):
    """Malformed audit-log line; message carries line number and field."""


class DatasetFormatError(ValueError):
    """Dataset file is corrupt or has an unsupported version."""


@dataclass
class LabeledDataset:
    graph: TemporalGraph
    labels: list[TruthLabel]
    attack_interval: tuple[int, int]  # (t_start, t_end) ns; (0, 0) if none

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        a, b = self.graph, other.graph
        return (all(np.array_equal(getattr(a, col), getattr(b, col))
                    for col in ("node_ids", "node_kinds", "src", "dst", "rel", "ts"))
                and (a.node_labels, self.labels, self.attack_interval)
                == (b.node_labels, other.labels, other.attack_interval))


# ---------------------------------------------------------------------------
# plain-text log parsing
# ---------------------------------------------------------------------------

_FIELDS = ("src_kind", "src_label", "relation", "dst_kind", "dst_label", "timestamp_ns")


def parse_log(lines) -> LabeledDataset:
    """Parse an iterable of log lines into a dataset.

    Node ids are dense integers assigned in first-appearance order of
    (kind, label). Truth labels default to UNKNOWN. Events are sorted by
    timestamp (stable).
    """
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(
                f"line {lineno}: expected 6 fields {_FIELDS}, got {len(parts)}"
            )
        src_kind = _parse_kind(parts[0], lineno, "src_kind")
        rel = _parse_relation(parts[2], lineno)
        dst_kind = _parse_kind(parts[3], lineno, "dst_kind")
        ts = _parse_timestamp(parts[5], lineno)
        records.append((ts, lineno, (src_kind, parts[1]), (dst_kind, parts[4]), rel))

    records.sort(key=_TIME_ORDER)
    graph = _keyed_graph(records)
    labels = [TruthLabel.UNKNOWN] * len(graph)
    return LabeledDataset(graph=graph, labels=labels, attack_interval=(0, 0))


def _keyed_graph(records) -> TemporalGraph:
    """Graph of (ts_ns, order, src_key, dst_key, relation) records in
    order, where a key is (kind, label) and every kind is a code into
    ``NODE_KINDS`` (as the parser gives it) or every
    kind a ``NodeKind``; node ids are dense integers in first-appearance
    order of the keys (a record's src before its dst), and the columns
    are filled in bulk."""
    columns = list(zip(*records))
    if not columns:
        return TemporalGraph()
    ts, _, src_keys, dst_keys, rels = columns
    ids: dict[tuple[int | NodeKind, str], int] = {}
    ends = np.array([ids.setdefault(key, len(ids)) for key in
                     itertools.chain.from_iterable(zip(src_keys, dst_keys))], np.int64)
    kinds, labels = zip(*ids)
    if isinstance(kinds[0], NodeKind):
        kinds = [_KIND_CODES[_VALUE(kind)] for kind in kinds]
    return TemporalGraph.from_columns(
        range(len(ids)), kinds, labels,
        ends[0::2], ends[1::2],
        np.fromiter(map(_RELATION_CODES.__getitem__, map(_VALUE, rels)), np.int8,
                    len(rels)),
        ts,
    )


def render_log(ds: LabeledDataset) -> str:
    """Inverse of parse_log for the event stream (labels are not carried)."""
    g = ds.graph
    names = dict(zip(g.node_ids.tolist(),
                     (f"{_KIND_VALUES[k]} {label}"
                      for k, label in zip(g.node_kinds.tolist(), g.node_labels))))
    out = list(map(" ".join, zip(
        map(names.__getitem__, g.src.tolist()),
        map(_RELATION_VALUES.__getitem__, g.rel.tolist()),
        map(names.__getitem__, g.dst.tolist()),
        map(str, g.ts.tolist()),
    )))
    return "\n".join(out) + ("\n" if out else "")


def _parse_timestamp(token: str, lineno: int) -> int:
    """ASCII decimal digits with an optional sign, in the int64 range."""
    ts = _read_decimal(token)
    if ts is None:
        raise ParseError(
            f"line {lineno}: field timestamp_ns is not an integer: {_excerpt(token)}"
        )
    if not _I64.min <= ts <= _I64.max:
        raise ParseError(
            f"line {lineno}: field timestamp_ns is outside the int64 range: "
            f"{_excerpt(token)}"
        )
    return ts


def _parse_kind(token: str, lineno: int, fieldname: str) -> int:
    """The token's kind code into ``NODE_KINDS``."""
    try:
        return _KIND_CODES[token]
    except KeyError:
        valid = ", ".join(k.value for k in NodeKind)
        raise ParseError(
            f"line {lineno}: field {fieldname} has unknown kind {_excerpt(token)} "
            f"(valid: {valid})"
        ) from None


def _parse_relation(token: str, lineno: int) -> Relation:
    try:
        return Relation(token)
    except ValueError:
        valid = ", ".join(r.value for r in Relation)
        raise ParseError(
            f"line {lineno}: unknown relation {_excerpt(token)} "
            f"(valid alphabet: {valid})"
        ) from None


# ---------------------------------------------------------------------------
# scenario specification
# ---------------------------------------------------------------------------

def _require_finite(owner: str, **values: float) -> None:
    """Refuse a non-finite time, which no event can carry."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner}: {name} must be finite, got {value}")


@dataclass(frozen=True)
class SessionStep:
    """One scripted action by a session's actor process.

    ``coin`` may name an alternative relation on the same ``dst_kind``
    partner; the k-th coin step of a session takes it when bit k of the
    session counter is set, so over 2^k sessions every combination of
    outcomes occurs equally often. Sessions are otherwise
    indistinguishable (fresh actor, fresh partners, fixed timing), so no
    feature reveals the parity and the best achievable per-event
    cross-entropy on coin steps is exactly ln 2 — an irreducible entropy
    floor for the background distribution.
    """

    relation: Relation
    dst_kind: NodeKind
    dst: str            # partner label; "fresh" = new node per session,
                        # "same" = the previous step's partner
    gap_s: float = 1.0  # delay after the session's previous step; the
                        # first step starts at the session start, or
                        # start_gap_s after the parent's EXECUTE
    coin: Relation | None = None


@dataclass(frozen=True)
class SessionSpec:
    """A stream of short scripted sessions, optionally spawned by a parent
    process.

    Session n's actor is the process ``f"{name}.{n}"``. With a parent,
    every session opens with `parent EXECUTE <actor>` and the actor then
    performs the steps ``start_gap_s`` later. Without a parent, the
    actor appears and performs the steps directly. A parent with a
    ``conf`` opens that file once, at max(offset_s - 2 s, 0). A stream
    of sessions stops at the first session that ends past the capture.
    """

    name: str
    steps: tuple[SessionStep, ...]
    parent: str | None = None
    start_gap_s: float = 1.0   # delay between EXECUTE and the first step
    period_s: float = 60.0     # one session per period
    offset_s: float = 0.0      # first session start
    conf: str | None = None    # parent's config file label

    def __post_init__(self):
        # session starts must advance, or the stream never passes the
        # capture's end; a session must emit at least one event, at
        # finite times
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(
                f"session {self.name!r}: period_s must be finite and > 0, "
                f"got {self.period_s}"
            )
        if not self.steps and not self.parent:
            raise ValueError(f"session {self.name!r} has neither steps nor a parent")
        _require_finite(f"session {self.name!r}", offset_s=self.offset_s,
                        start_gap_s=self.start_gap_s,
                        **{f"steps[{i}].gap_s": step.gap_s
                           for i, step in enumerate(self.steps)})
        if self.steps and self.steps[0].dst == "same":
            raise ValueError(
                f"session {self.name!r}: its first step's partner is 'same', "
                f"but no earlier step has a partner"
            )


@dataclass(frozen=True)
class CycleStep:
    """One position of a long-lived process's fixed duty cycle.

    A ``spawn`` session starts at this position and lap n's session is
    numbered n, so the spawn's ``period_s`` is unread; an ``offset_s`` or
    a ``conf`` on it is refused, since nothing would honor them.
    """

    relation: Relation
    dst_kind: NodeKind
    dst: str                   # partner label; "fresh" for a new node per lap
    gap_s: float               # delay after the previous cycle position
    spawn: SessionSpec | None = None  # EXECUTE positions spawn this session

    def __post_init__(self):
        if self.spawn is None:
            return
        for name, unset in (("offset_s", 0.0), ("conf", None)):
            if getattr(self.spawn, name) != unset:
                raise ValueError(
                    f"spawned session {self.spawn.name!r}: {name} is read only "
                    f"for a session stream, got {getattr(self.spawn, name)!r}"
                )


@dataclass(frozen=True)
class DutyCycle:
    """A long-lived process ``label`` repeating its steps, one lap per
    period (the sum of the steps' gaps), from ``offset_s`` on. With a
    ``conf``, the process opens that file once, at max(offset_s - 2 s, 0).
    """

    label: str
    steps: tuple[CycleStep, ...]
    offset_s: float = 0.0
    conf: str | None = None

    def __post_init__(self):
        # laps must advance, or the cycle never passes the capture's end
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(
                f"duty cycle {self.label!r}: the gaps of its {len(self.steps)} "
                f"step(s) sum to {self.period_s}, not a finite period > 0"
            )
        _require_finite(f"duty cycle {self.label!r}", offset_s=self.offset_s)

    @property
    def period_s(self) -> float:
        """One lap: the sum of the steps' gaps."""
        return sum(step.gap_s for step in self.steps)


@dataclass(frozen=True)
class AttackStep:
    src_label: str
    src_kind: NodeKind
    dst_label: str
    dst_kind: NodeKind
    relation: Relation
    offset_s: float  # offset into the scenario timeline


@dataclass(frozen=True)
class ScenarioSpec:
    """A capture of ``duration_s`` seconds: benign duty cycles and session
    streams plus an attack chain. ``seed`` is carried but read by
    nothing yet; every stream is scripted."""

    duration_s: float
    cycles: tuple[DutyCycle, ...]
    sessions: tuple[SessionSpec, ...]
    attack_chain: tuple[AttackStep, ...]
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.duration_s):
            # a stream ends at the first event past the capture
            raise ValueError(f"duration_s must be finite, got {self.duration_s}")
        offsets = [s.offset_s for s in self.attack_chain]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("attack step offsets must be strictly increasing")


#: webserver duty-cycle geometry, shared with the attack-offset arithmetic
_WEB_CYCLE_OFFSET_S = 5.0
_WEB_CYCLE_PERIOD_S = 72.0
_WEB_SPAWN_PHASE_S = 30.0  # EXECUTE position within the cycle


def default_scenario(seed: int = 7) -> ScenarioSpec:
    """The desk-scale default: 60 minutes of 2 duty cycles (the
    webserver, which spawns a CGI session per lap, and the name-service
    cache) and 9 session streams, 5,760 events in all, and the 4-step
    attack chain (webserver spawns a shell that reads a sensitive file,
    writes a payload, and phones out).

    The seed is carried on the spec but read by nothing yet: every
    stream is scripted, so every seed gives the same stream.

    The background mixes deterministic scripted behavior (whose losses
    shrink with training) with alternating-coin relation choices (whose
    losses sit at ln 2), so the benign loss distribution is bimodal and
    the mu + 1.5 sigma threshold separates it from genuinely novel
    events.
    """
    cgi = SessionSpec(
        name="cgi",
        parent="nginx",
        start_gap_s=1.0,
        steps=(
            SessionStep(Relation.READ, NodeKind.FILE, "fresh"),
            SessionStep(Relation.WRITE, NodeKind.FILE, "fresh", gap_s=1.0),
            SessionStep(Relation.SEND, NodeKind.SOCKET, "fresh", gap_s=1.0),
        ),
    )
    web = DutyCycle(
        label="nginx",
        steps=(
            CycleStep(Relation.READ, NodeKind.FILE, "/srv/www/index.html",
                      gap_s=42.0),
            CycleStep(Relation.SEND, NodeKind.SOCKET, "conn", gap_s=18.0),
            CycleStep(Relation.RECV, NodeKind.SOCKET, "conn", gap_s=8.0),
            CycleStep(Relation.EXECUTE, NodeKind.PROCESS, "fresh", gap_s=4.0,
                      spawn=cgi),
        ),
        offset_s=_WEB_CYCLE_OFFSET_S,
        conf="/etc/nginx.conf",
    )
    # the name-service cache refreshes its handle on the account database
    # on a steady cadence; the phase puts the final refresh shortly before
    # the attack's READ of the same file, so the file's recent history is
    # realistic, and none follows it inside the capture
    nscd = DutyCycle(
        label="nscd",
        steps=(
            CycleStep(Relation.OPEN, NodeKind.FILE, "/etc/passwd",
                      gap_s=150.0),
        ),
        offset_s=115.0,
    )
    sessions = (
        # three busy worker pools: each worker opens its task spec and
        # then either acquires or releases its handle (alternating, so
        # the choice carries exactly one bit the features cannot
        # predict); distinct open-to-action delays identify the pool
        SessionSpec(
            name="pool_a", parent=None,
            period_s=6.0, offset_s=2.0,
            steps=(
                SessionStep(Relation.OPEN, NodeKind.FILE, "fresh"),
                SessionStep(Relation.OPEN, NodeKind.FILE, "same",
                            gap_s=4.0, coin=Relation.CLOSE),
            ),
        ),
        SessionSpec(
            name="pool_b", parent=None,
            period_s=6.0, offset_s=4.0,
            steps=(
                SessionStep(Relation.OPEN, NodeKind.FILE, "fresh"),
                SessionStep(Relation.CONNECT, NodeKind.SOCKET, "fresh",
                            gap_s=8.0, coin=Relation.RECV),
            ),
        ),
        SessionSpec(
            name="pool_c", parent=None,
            period_s=6.0, offset_s=5.0,
            steps=(
                SessionStep(Relation.OPEN, NodeKind.FILE, "fresh"),
                SessionStep(Relation.OPEN, NodeKind.FILE, "same",
                            gap_s=16.0, coin=Relation.CLOSE),
            ),
        ),
        # a scanner pool that reads what it opened before acting on it,
        # so recently-opened files are legitimately read
        SessionSpec(
            name="pool_d", parent=None,
            period_s=9.0, offset_s=1.0,
            steps=(
                SessionStep(Relation.OPEN, NodeKind.FILE, "fresh"),
                SessionStep(Relation.READ, NodeKind.FILE, "same",
                            gap_s=1.0),
                SessionStep(Relation.OPEN, NodeKind.FILE, "same",
                            gap_s=4.0, coin=Relation.CLOSE),
            ),
        ),
        # a slow batch worker: long spawn-to-action delay, scripted
        SessionSpec(
            name="batch", parent="svc_batch", start_gap_s=24.0,
            period_s=120.0, offset_s=23.0, conf="svc_batch.conf",
            steps=(
                SessionStep(Relation.WRITE, NodeKind.FILE, "fresh"),
                SessionStep(Relation.SEND, NodeKind.SOCKET, "fresh",
                            gap_s=1.0),
                SessionStep(Relation.CLOSE, NodeKind.FILE, "fresh",
                            gap_s=1.0),
            ),
        ),
        # short-lived login helpers consult the account database on a
        # slow cadence phase-locked with the cache refreshes; the phase
        # keeps one more read just outside the context horizon, so the
        # recent mix is insensitive to any single reader dropping out
        SessionSpec(
            name="logincheck", parent=None,
            period_s=450.0, offset_s=190.0,
            steps=(
                SessionStep(Relation.READ, NodeKind.FILE, "/etc/passwd"),
            ),
        ),
        # a slower auditor on an incommensurate period: its reads
        # drift across the login-check phase, so training sees the
        # account file's recent history with varied read spacings
        SessionSpec(
            name="audit", parent=None,
            period_s=1350.0, offset_s=660.0,
            steps=(
                SessionStep(Relation.READ, NodeKind.FILE, "/etc/passwd"),
            ),
        ),
        # the auth daemon re-reads the account database on reload
        SessionSpec(
            name="authcheck", parent="authd", start_gap_s=2.0,
            period_s=120.0, offset_s=11.0, conf="auth.conf",
            steps=(
                SessionStep(Relation.READ, NodeKind.FILE, "auth/db"),
            ),
        ),
        # ad-hoc clients touch fresh files and sockets
        SessionSpec(
            name="client", parent=None,
            period_s=36.0, offset_s=3.5,
            steps=(
                SessionStep(Relation.OPEN, NodeKind.FILE, "fresh"),
                SessionStep(Relation.READ, NodeKind.FILE, "fresh"),
                SessionStep(Relation.WRITE, NodeKind.FILE, "fresh"),
                SessionStep(Relation.SEND, NodeKind.SOCKET, "fresh"),
            ),
        ),
    )

    # land the spawn just before a scheduled EXECUTE slot: the hijacked
    # request looks timing-plausible, and the shell chain that follows
    # does not
    slot = _WEB_CYCLE_OFFSET_S + _WEB_SPAWN_PHASE_S + 49 * _WEB_CYCLE_PERIOD_S
    t0 = slot - 0.4
    attack = (
        AttackStep("nginx", NodeKind.PROCESS, "bash", NodeKind.PROCESS,
                   Relation.EXECUTE, t0),
        AttackStep("bash", NodeKind.PROCESS, "/etc/passwd", NodeKind.FILE,
                   Relation.READ, t0 + 15.0),
        AttackStep("bash", NodeKind.PROCESS, "/tmp/payload.so", NodeKind.FILE,
                   Relation.WRITE, t0 + 16.0),
        AttackStep("bash", NodeKind.PROCESS, "78.205.235.65:80", NodeKind.SOCKET,
                   Relation.SEND, t0 + 17.0),
    )
    return ScenarioSpec(
        duration_s=3600.0,
        cycles=(web, nscd),
        sessions=sessions,
        attack_chain=attack,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

class _Columns:
    """The generator's events as columns, gathered one block at a time.

    A block is one template's events at one position of its script:
    timestamps (int64 ns), the tie key's class and positions, the src
    and dst node keys and the relation codes, each an array or a scalar
    that stands for every event of the block. A node key indexes
    ``kinds`` and ``labels``; ``nodes`` maps each (kind code, label)
    pair named so far to its key, so a pair that two templates name is
    one key, and the slot a pair named again was given stays unused."""

    def __init__(self):
        self.nodes: dict[tuple[int, str], int] = {}
        self.kinds: list[int] = []
        self.labels: list[str] = []
        self.blocks: list[tuple] = []

    def keys(self, kind: int, labels: list[str]) -> np.ndarray:
        """The key of each (kind, label) pair, looked up in C."""
        start = len(self.labels)
        self.kinds += itertools.repeat(kind, len(labels))
        self.labels += labels
        return np.fromiter(map(self.nodes.setdefault,
                               zip(itertools.repeat(kind), labels),
                               range(start, len(self.labels))), np.int64, len(labels))

    def key(self, kind: int, label: str) -> int:
        self.kinds.append(kind)
        self.labels.append(label)
        return self.nodes.setdefault((kind, label), len(self.labels) - 1)

    def add(self, ts: np.ndarray, order: tuple, src, dst, relation) -> None:
        """Events at ``ts`` with tie key ``order``, (class, position...)
        of at most ``_ORDER_WIDTH`` entries."""
        n = len(ts)
        padded = (*order, *(_PAD,) * (_ORDER_WIDTH - len(order)))
        self.blocks.append((ts, *(c if isinstance(c, np.ndarray) else np.full(n, c)
                                  for c in (*padded, src, dst, relation))))

    def dataset(self) -> LabeledDataset:
        """The events in (timestamp, tie key) order; node ids count the
        keys in order of first appearance (an event's src before its
        dst)."""
        ts, *order, src, dst, rel = map(np.concatenate, zip(*self.blocks))
        if not len(ts):
            return LabeledDataset(TemporalGraph(), [], (0, 0))
        sort = np.lexsort((*reversed(order), ts))
        ts, cls, src, dst = ts[sort], order[0][sort], src[sort], dst[sort]
        ends = np.stack([src, dst], axis=1).ravel()
        first = np.full(len(self.labels), len(ends))
        np.minimum.at(first, ends, np.arange(len(ends)))
        named = np.flatnonzero(first < len(ends))
        keys = named[np.argsort(first[named])]
        node = np.empty(len(self.labels), np.int64)
        node[keys] = np.arange(len(keys))
        graph = TemporalGraph.from_columns(
            range(len(keys)), np.array(self.kinds, np.int8)[keys],
            list(map(self.labels.__getitem__, keys.tolist())),
            node[src], node[dst], rel[sort], ts)
        truth = [TruthLabel.BENIGN] * len(ts)
        attack = np.flatnonzero(cls == _ATTACK)
        for i in attack.tolist():
            truth[i] = TruthLabel.MALICIOUS
        interval = ((ts[attack[0]].item(), ts[attack[-1]].item()) if len(attack)
                    else (0, 0))
        return LabeledDataset(graph=graph, labels=truth, attack_interval=interval)


def _ns(t_s) -> np.ndarray:
    """Seconds into the capture as int64 nanoseconds, truncated as
    ``int(t_s * NS_PER_S)`` truncates."""
    ns = np.multiply(t_s, NS_PER_S)
    if not (np.abs(ns) < 2.0**63).all():
        raise OverflowError("an event time is past the int64 nanosecond range")
    return ns.astype(np.int64)


def _conf_open(columns: _Columns, order: tuple, actor: int, conf: str,
               first_s: float) -> None:
    """The actor opens its config file 2 s before its first action, but
    not before the capture starts: a daemon reads its config before
    serving, so its first-ever event is in line with other fresh
    processes."""
    columns.add(_ns([max(first_s - 2.0, 0.0)]), order, actor,
                columns.key(_FILE, conf), RELATION_INDEX[Relation.OPEN])


def generate_scenario(spec: ScenarioSpec) -> LabeledDataset:
    """Deterministic pure function of the spec. Ties in time break by
    class (duty cycles, then sessions, then the attack), then by
    position in the spec; the attack's events are the malicious ones.

    Each template's events are made as numpy columns, one block per
    position of its script, over all its laps or sessions at once:
    times are the same float additions a one-event-at-a-time loop
    makes, and a label string is made once per node. One
    ``np.lexsort`` of the timestamps and the padded tie keys puts the
    events in order, and node ids follow first appearance."""
    for step in spec.attack_chain:
        if step.offset_s > spec.duration_s:
            raise ValueError(
                f"attack offset {step.offset_s}s exceeds duration {spec.duration_s}s"
            )

    # an int64 timestamp is past the capture when it is at least this:
    # int < float compares exactly, and x >= d iff x >= ceil(d) for an
    # integer x
    limit = math.ceil(spec.duration_s * NS_PER_S)
    columns = _Columns()
    for idx, cycle in enumerate(spec.cycles):
        _duty_cycle(columns, cycle, idx, spec.duration_s, limit)
    for idx, sess in enumerate(spec.sessions):
        _session_stream(columns, sess, idx, spec.duration_s, limit)
    chain = spec.attack_chain
    src = [columns.key(_KIND_CODES[_VALUE(step.src_kind)], step.src_label)
           for step in chain]
    dst = [columns.key(_KIND_CODES[_VALUE(step.dst_kind)], step.dst_label)
           for step in chain]
    columns.add(_ns([step.offset_s for step in chain]), (_ATTACK, np.arange(len(chain))),
                np.array(src, np.int64), np.array(dst, np.int64),
                np.array([RELATION_INDEX[step.relation] for step in chain], np.int64))
    return columns.dataset()


def _session_times(sess: SessionSpec, starts: np.ndarray) -> np.ndarray:
    """(events per session, sessions) times in seconds of the sessions
    starting at ``starts``: the parent's EXECUTE, if any, then the steps."""
    rows, t = [], starts
    if sess.parent:
        rows.append(t)
        t = t + sess.start_gap_s
    for step_idx, step in enumerate(sess.steps):
        if step_idx > 0:
            t = t + step.gap_s
        rows.append(t)
    return np.array(rows)


def _sessions(columns: _Columns, sess: SessionSpec, numbers: np.ndarray,
              ts: np.ndarray, order: tuple) -> None:
    """The sessions numbered ``numbers`` with timestamps ``ts`` (see
    :func:`_session_times`): event j of session n has tie key
    ``(*order, n, j)``; coin steps follow the bits of n (see
    SessionStep)."""
    names = [f"{sess.name}.{n}" for n in numbers.tolist()]
    actors = columns.keys(_PROCESS, names)
    rows = iter(ts)
    position = itertools.count()
    if sess.parent:
        columns.add(next(rows), (*order, numbers, next(position)),
                    columns.key(_PROCESS, sess.parent), actors,
                    RELATION_INDEX[Relation.EXECUTE])
    coin_idx = 0
    for step_idx, step in enumerate(sess.steps):
        kind = _KIND_CODES[_VALUE(step.dst_kind)]
        relation = RELATION_INDEX[step.relation]
        if step.coin is not None:
            relation = np.where((numbers >> coin_idx) & 1, RELATION_INDEX[step.coin],
                                relation)
            coin_idx += 1
        if step.dst == "fresh":
            dst = columns.keys(kind, [f"{name}.obj{step_idx}" for name in names])
        elif step.dst != "same":
            dst = columns.key(kind, step.dst)
        columns.add(next(rows), (*order, numbers, next(position)), actors, dst,
                    relation)


def _session_stream(columns: _Columns, sess: SessionSpec, idx: int,
                    duration_s: float, limit: int) -> None:
    """The parent's config read, then one session per period until the
    first session that ends past the capture."""
    order = (1, idx)
    if sess.parent and sess.conf:
        _conf_open(columns, (*order, 0, -1), columns.key(_PROCESS, sess.parent),
                   sess.conf, sess.offset_s)
    # a session ends no earlier for starting later (float addition is
    # monotone), so the stream stops at its first late session; the first
    # to start past the capture is late unless its steps go back in time,
    # so count on from there until one is
    count = _count_until(sess.offset_s, sess.period_s, duration_s) + 1
    while True:
        ts = _ns(_session_times(sess, sess.offset_s + np.arange(count) * sess.period_s))
        late = ts[-1] >= limit
        if late.any():
            break
        count *= 2
    kept = int(late.argmax())
    _sessions(columns, sess, np.arange(kept), ts[:, :kept], order)


def _count_until(start_s: float, period_s: float, end_s: float) -> int:
    """The least n >= 0 with start_s + n * period_s >= end_s."""
    n = max(0, math.ceil((end_s - start_s) / period_s))
    while start_s + n * period_s < end_s:
        n += 1
    return n


def _duty_cycle(columns: _Columns, cycle: DutyCycle, idx: int, duration_s: float,
                limit: int) -> None:
    """A long-lived process repeating a fixed duty cycle; EXECUTE
    positions spawn scripted child sessions. The stream ends at the
    first position past the capture; a spawned session that ends past
    it is dropped on its own."""
    order = (0, idx)
    proc = columns.key(_PROCESS, cycle.label)
    if cycle.conf:
        _conf_open(columns, (*order, -1), proc, cycle.conf, cycle.offset_s)
    # the last lap starts past the capture, so some position is late
    laps = np.arange(_count_until(cycle.offset_s, cycle.period_s, duration_s) + 1)
    times = [cycle.offset_s + laps * cycle.period_s]
    for step in cycle.steps[1:]:
        times.append(times[-1] + step.gap_s)
    # positions run lap by lap; the stream ends at the first late one
    width = len(times)
    cut = int((np.stack(times, axis=1) >= duration_s).argmax())
    for step_idx, step in enumerate(cycle.steps):
        n = (cut - step_idx + width - 1) // width  # laps before the cut
        at = times[step_idx][:n]
        if step.spawn is not None:
            ts = _ns(_session_times(step.spawn, at))
            numbers = np.flatnonzero(ts[-1] < limit)
            _sessions(columns, step.spawn, numbers, ts[:, numbers],
                      (*order, numbers))
            continue
        kind = _KIND_CODES[_VALUE(step.dst_kind)]
        if step.dst == "fresh":
            dst = columns.keys(kind, [f"{cycle.label}/lap{lap}.s{step_idx}"
                                      for lap in range(n)])
        elif step.dst == "conn":
            # a small pool of peer sockets; one peer per lap
            pool = [columns.key(kind, f"{cycle.label}:conn{j}") for j in range(6)]
            dst = np.array(pool)[laps[:n] % 6]
        else:
            dst = columns.key(kind, step.dst)
        columns.add(_ns(at), (*order, laps[:n], step_idx), proc, dst,
                    RELATION_INDEX[step.relation])


# ---------------------------------------------------------------------------
# dataset (de)serialization
# ---------------------------------------------------------------------------

def save_dataset(ds: LabeledDataset, path) -> None:
    """Write a format-version-2 dataset file (see the module docstring)."""
    g = ds.graph
    truth = np.fromiter(map(_LABEL_CODES.__getitem__, map(_VALUE, ds.labels)),
                        np.uint8, len(ds.labels))
    doc = {
        "version": DATASET_VERSION,
        "nodes": {"id": encode_column(g.node_ids, "<i8"),
                  "kind": encode_column(g.node_kinds, "u1"),
                  "label": g.node_labels},
        "events": {"src": encode_column(g.src, "<i8"),
                   "dst": encode_column(g.dst, "<i8"),
                   "timestamp": encode_column(g.ts, "<i8"),
                   "relation": encode_column(g.rel, "u1"),
                   "label": encode_column(truth, "u1")},
        "attack_interval": list(ds.attack_interval),
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def load_dataset(path) -> LabeledDataset:
    """Read a dataset file of format version 2, or of version 1.

    A missing file raises ``FileNotFoundError``; anything else that is
    not a dataset raises :class:`DatasetFormatError`. A version-2 file is
    decoded column by column and must be exactly what
    :func:`save_dataset` writes: the error names the file and the field.
    A version-1 file raises the error of its first bad record.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset file not found: {p}")
    doc = read_json(p, "dataset file", DatasetFormatError)
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"dataset file {p} must hold a JSON object")
    version = doc.get("version")
    if type(version) is int and version == DATASET_VERSION:
        return _column_dataset(doc, p)
    if version == 1:
        return _record_dataset(doc, p)
    raise DatasetFormatError(
        f"unsupported dataset version {version!r} in {p} (expected "
        f"{DATASET_VERSION} or 1)"
    )


def _column_dataset(doc: dict, p: Path) -> LabeledDataset:
    """A version-2 document, decoded column by column into
    ``TemporalGraph.from_columns``; the checks name each field."""
    def fault(field: str, problem: str) -> DatasetFormatError:
        return DatasetFormatError(f"{field} in dataset file {p} {problem}")

    def columns(group: str, spec: dict) -> list[np.ndarray]:
        """The columns of doc[group] named in spec, one length each."""
        out: list[np.ndarray] = []
        for name, (dtype, alphabet) in spec.items():
            field = f"{group}.{name}"
            col = decode_column(doc[group][name], dtype, f"{field} in dataset file {p}",
                                DatasetFormatError)
            if out and len(col) != len(out[0]):
                raise fault(field, f"holds {len(col)} items; {group}."
                                   f"{next(iter(spec))} holds {len(out[0])}")
            if alphabet is not None and len(col) and col.max() >= len(alphabet):
                raise fault(field, f"holds code {col.max()}; its codes index "
                                   f"{len(alphabet)} values")
            out.append(col)
        return out

    require_keys(doc, {"version", "nodes", "events", "attack_interval"},
                 f"dataset file {p}", DatasetFormatError)
    require_keys(doc["nodes"], {*_NODE_COLUMNS, "label"},
                 f"nodes in dataset file {p}", DatasetFormatError)
    require_keys(doc["events"], set(_EVENT_COLUMNS),
                 f"events in dataset file {p}", DatasetFormatError)
    ids, kinds = columns("nodes", _NODE_COLUMNS)
    labels = doc["nodes"]["label"]
    if not (type(labels) is list and _all_of(type, labels, str) and all(labels)):
        raise fault("nodes.label", "is not a list of non-empty strings")
    if len(labels) != len(ids):
        raise fault("nodes.label", f"holds {len(labels)} items; nodes.id holds {len(ids)}")
    not_after = ids[1:] <= ids[:-1]
    if not_after.any():
        i = int(not_after.argmax()) + 1
        raise fault("nodes.id", f"lists id {ids[i]} after id {ids[i - 1]}; ids must "
                                f"be distinct and ascending")
    src, dst, ts, rel, truth = columns("events", _EVENT_COLUMNS)
    for field, ends in (("events.src", src), ("events.dst", dst)):
        unknown = ~np.isin(ends, ids)
        if unknown.any():
            i = int(unknown.argmax())
            raise fault(field, f"names node {ends[i]} at event {i}, which is not "
                               f"in nodes.id")
    before = ts[1:] < ts[:-1]
    if before.any():
        i = int(before.argmax()) + 1
        raise fault("events.timestamp", f"decreases at event {i}: {ts[i]} after "
                                        f"{ts[i - 1]}")
    interval = _attack_interval(doc["attack_interval"], p)
    graph = TemporalGraph.from_columns(ids, kinds, labels, src, dst, rel, ts)
    return LabeledDataset(graph=graph,
                          labels=list(map(_TRUTH_LABELS.__getitem__, truth.tolist())),
                          attack_interval=interval)


def _attack_interval(value, p: Path) -> tuple[int, int]:
    """A file's attack_interval: two int64 integers (not bools), the start
    not after the end, since training runs up to the start."""
    if not (type(value) is list and len(value) == 2 and _all_of(type, value, int)):
        raise DatasetFormatError(
            f"attack_interval in dataset file {p} is not a pair of integers")
    t0, t1 = value
    if not (_I64.min <= t0 <= _I64.max and _I64.min <= t1 <= _I64.max):
        raise DatasetFormatError(
            f"attack_interval in dataset file {p} has a bound outside the int64 range")
    if t0 > t1:
        # training would run up to the later bound, over the attack itself
        raise DatasetFormatError(
            f"dataset file {p} has attack_interval [{t0}, {t1}], "
            f"whose start is after its end"
        )
    return t0, t1


def _record_dataset(doc: dict, p: Path) -> LabeledDataset:
    """A version-1 document: a dict per node and a list per event."""
    # a value that is no member's raises KeyError, an unhashable one
    # TypeError, an integer past int64 OverflowError
    try:
        graph = _record_graph(doc)
        labels = list(map(_LABELS.__getitem__, _typed(doc["labels"], list)))
        interval = doc["attack_interval"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"malformed dataset file {p}: {exc!r}") from exc
    interval = _attack_interval(interval, p)
    if len(labels) != len(graph):
        raise DatasetFormatError(
            f"dataset file {p} has {len(labels)} labels for {len(graph)} events"
        )
    return LabeledDataset(graph=graph, labels=labels, attack_interval=interval)


def _all_of(fn, values, expected) -> bool:
    """Whether fn(v) == expected for every v, as one set built in C."""
    return set(map(fn, values)) <= {expected}


def _record_graph(doc: dict) -> TemporalGraph:
    """The graph of a document decoded one record at a time, in file
    order; raises at the first record that fails a check."""
    graph = TemporalGraph()
    for n in doc["nodes"]:
        graph.add_node(NodeDescriptor(_typed(n["id"], int),
                                      NODE_KINDS[_KIND_CODES[n["kind"]]],
                                      _typed(n["label"], str)))
    for src, dst, rel, ts in doc["events"]:
        graph.append_event(Event(_typed(src, int), _typed(dst, int),
                                 RELATIONS[_RELATION_CODES[rel]], _typed(ts, int)))
    return graph


def _typed(value, kind: type):
    """value, if its JSON type is exactly kind (true is not an integer)."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value
