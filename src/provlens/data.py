"""Audit-log ingestion and synthetic scenario generation.

Two ways to obtain a labeled dataset: parse a plain-text audit log
(one whitespace-separated record per line), or generate a seeded
synthetic timeline containing benign background activity plus an
injected multi-stage attack chain.

Log line format::

    <src_kind> <src_label> <relation> <dst_kind> <dst_label> <timestamp_ns>

Dataset file: a single JSON document {version, nodes, events, labels,
attack_interval}.

Every reader and writer here works on the graph's columns (see
:mod:`provlens.graph`) and builds no per-event object: the scenario
generator and the log parser number the nodes and fill the columns in
bulk, :func:`load_dataset` checks the decoded document's records in bulk
and fills the columns, and :func:`save_dataset` and :func:`render_log`
write from them. A document whose records are not all well-typed is
decoded one record at a time, so every malformed file raises the error
of its first bad record, as a record-by-record decode does.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import (
    NODE_KINDS,
    RELATIONS,
    Event,
    NodeDescriptor,
    NodeKind,
    Relation,
    TemporalGraph,
    TruthLabel,
)

DATASET_VERSION = 1

#: timestamps and node ids are int64 columns
_I64 = np.iinfo(np.int64)

NS_PER_S = 1_000_000_000


#: by value, each kind's and relation's code in the graph's columns and
#: each truth label's member, for decoding; a lookup costs a fraction of
#: a call to the Enum
_KIND_CODES = {k.value: i for i, k in enumerate(NODE_KINDS)}
_RELATION_CODES = {r.value: i for i, r in enumerate(RELATIONS)}
_LABELS = {lab.value: lab for lab in TruthLabel}
#: the value of each code, for writing
_KIND_VALUES = [k.value for k in NODE_KINDS]
_RELATION_VALUES = [r.value for r in RELATIONS]
#: an enum member's value, read without the Enum's property (or its hash)
_VALUE = operator.attrgetter("_value_")


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
        return (
            _node_table(a) == _node_table(b)
            and all(np.array_equal(x, y) for x, y in
                    ((a.src, b.src), (a.dst, b.dst), (a.rel, b.rel), (a.ts, b.ts)))
            and self.labels == other.labels
            and self.attack_interval == other.attack_interval
        )


def _node_table(graph: TemporalGraph) -> dict:
    """node id -> (kind code, label); equal tables mean equal nodes."""
    return dict(zip(graph.node_ids.tolist(),
                    zip(graph.node_kinds.tolist(), graph.node_labels)))


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
        try:
            ts = int(parts[5])
        except ValueError:
            raise ParseError(
                f"line {lineno}: field timestamp_ns is not an integer: {parts[5]!r}"
            ) from None
        if not _I64.min <= ts <= _I64.max:
            raise ParseError(
                f"line {lineno}: field timestamp_ns is outside the int64 range: {ts}"
            )
        records.append(((src_kind, parts[1]), (dst_kind, parts[4]), rel, ts))

    records.sort(key=lambda r: r[3])
    graph = _keyed_graph(records)
    labels = [TruthLabel.UNKNOWN] * len(graph)
    return LabeledDataset(graph=graph, labels=labels, attack_interval=(0, 0))


def _keyed_graph(records) -> TemporalGraph:
    """Graph of (src_key, dst_key, relation, timestamp_ns) records in
    order, where a key is (kind, label); node ids are dense integers in
    first-appearance order of the keys (a record's src before its dst),
    and the columns are filled in bulk."""
    columns = list(zip(*records))
    if not columns:
        return TemporalGraph()
    src_keys, dst_keys, rels, ts = columns
    ids: dict[tuple[NodeKind, str], int] = {}
    ends = np.array([ids.setdefault(key, len(ids)) for key in
                     itertools.chain.from_iterable(zip(src_keys, dst_keys))], np.int64)
    return TemporalGraph.from_columns(
        range(len(ids)),
        [_KIND_CODES[_VALUE(kind)] for kind, _ in ids],
        [label for _, label in ids],
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


def _parse_kind(token: str, lineno: int, fieldname: str) -> NodeKind:
    try:
        return NodeKind(token)
    except ValueError:
        valid = ", ".join(k.value for k in NodeKind)
        raise ParseError(
            f"line {lineno}: field {fieldname} has unknown kind {token!r} "
            f"(valid: {valid})"
        ) from None


def _parse_relation(token: str, lineno: int) -> Relation:
    try:
        return Relation(token)
    except ValueError:
        valid = ", ".join(r.value for r in Relation)
        raise ParseError(
            f"line {lineno}: unknown relation {token!r} (valid alphabet: {valid})"
        ) from None


# ---------------------------------------------------------------------------
# scenario specification
# ---------------------------------------------------------------------------

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
    """A short scripted interaction, optionally spawned by a parent process.

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


@dataclass(frozen=True)
class CycleStep:
    """One position of a long-lived process's fixed duty cycle."""

    relation: Relation
    dst_kind: NodeKind
    dst: str                   # partner label; "fresh" for a new node per lap
    gap_s: float               # delay after the previous cycle position
    spawn: SessionSpec | None = None  # EXECUTE positions spawn this session


@dataclass(frozen=True)
class BenignTemplate:
    """One background behavior: a duty cycle, sessions, or a flat mix.

    ``mix`` gives the stationary relation mix. In mix mode the template
    process emits relations round-robin proportional to the mix weights,
    so the empirical mix matches the weights without per-event sampling
    noise. When ``cycle`` or ``sessions`` is set, those drive the
    behavior and the mix is derived documentation.
    """

    label: str
    mix: dict[Relation, float]
    rate_per_min: float
    sessions: tuple[SessionSpec, ...] = ()
    cycle: tuple[CycleStep, ...] = ()
    cycle_offset_s: float = 0.0
    conf: str | None = None  # config file OPENed once, just before the cycle

    def __post_init__(self):
        if self.rate_per_min <= 0:
            raise ValueError("template rate must be > 0")


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
    duration_s: float
    benign_templates: tuple[BenignTemplate, ...]
    attack_chain: tuple[AttackStep, ...]
    seed: int = 0

    def __post_init__(self):
        offsets = [s.offset_s for s in self.attack_chain]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("attack step offsets must be strictly increasing")


#: webserver duty-cycle geometry, shared with the attack-offset arithmetic
_WEB_CYCLE_OFFSET_S = 5.0
_WEB_CYCLE_PERIOD_S = 72.0
_WEB_SPAWN_PHASE_S = 30.0  # EXECUTE position within the cycle


def default_scenario(seed: int = 7) -> ScenarioSpec:
    """The desk-scale default: 60 minutes, 3 benign templates (5,760
    events in all), and the 4-step attack chain (webserver spawns a shell
    that reads a sensitive file, writes a payload, and phones out).

    The seed varies nothing here: every template is a duty-cycle or a
    session template, and only flat-mix templates draw from the seeded
    generator, so every seed gives the same stream.

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
    web = BenignTemplate(
        label="nginx",
        mix={Relation.READ: 2, Relation.SEND: 2, Relation.RECV: 1,
             Relation.EXECUTE: 1, Relation.WRITE: 1},
        rate_per_min=6.0,
        cycle=(
            CycleStep(Relation.READ, NodeKind.FILE, "/srv/www/index.html",
                      gap_s=42.0),
            CycleStep(Relation.SEND, NodeKind.SOCKET, "conn", gap_s=18.0),
            CycleStep(Relation.RECV, NodeKind.SOCKET, "conn", gap_s=8.0),
            CycleStep(Relation.EXECUTE, NodeKind.PROCESS, "fresh", gap_s=4.0,
                      spawn=cgi),
        ),
        cycle_offset_s=_WEB_CYCLE_OFFSET_S,
        conf="/etc/nginx.conf",
    )
    services = BenignTemplate(
        label="services",
        mix={
            Relation.OPEN: 8,
            Relation.CLOSE: 3,
            Relation.CONNECT: 1,
            Relation.RECV: 1,
            Relation.EXECUTE: 1,
            Relation.READ: 1,
            Relation.WRITE: 1,
            Relation.SEND: 1,
        },
        rate_per_min=70.0,
        sessions=(
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
        ),
    )
    # the name-service cache refreshes its handle on the account database
    # on a steady cadence; the phase puts the final refresh shortly before
    # the attack's READ of the same file, so the file's recent history is
    # realistic, and none follows it inside the capture
    nscd = BenignTemplate(
        label="nscd",
        mix={Relation.OPEN: 1},
        rate_per_min=0.4,
        cycle=(
            CycleStep(Relation.OPEN, NodeKind.FILE, "/etc/passwd",
                      gap_s=150.0),
        ),
        cycle_offset_s=115.0,
    )
    adhoc = BenignTemplate(
        label="clients",
        mix={Relation.OPEN: 1, Relation.READ: 1, Relation.WRITE: 1,
             Relation.SEND: 1},
        rate_per_min=5.0,
        sessions=(
            SessionSpec(
                name="client",
                parent=None,
                period_s=36.0,
                offset_s=3.5,
                steps=(
                    SessionStep(Relation.OPEN, NodeKind.FILE, "fresh"),
                    SessionStep(Relation.READ, NodeKind.FILE, "fresh"),
                    SessionStep(Relation.WRITE, NodeKind.FILE, "fresh"),
                    SessionStep(Relation.SEND, NodeKind.SOCKET, "fresh"),
                ),
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
        benign_templates=(web, services, nscd, adhoc),
        attack_chain=attack,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@dataclass
class _PendingEvent:
    ts_ns: int
    order: tuple  # deterministic tie-break
    src_key: tuple[NodeKind, str]
    dst_key: tuple[NodeKind, str]
    relation: Relation
    malicious: bool


def _event(t_s: float, order: tuple, src_key: tuple[NodeKind, str],
           dst_key: tuple[NodeKind, str], relation: Relation) -> _PendingEvent:
    """A benign event at t_s seconds into the capture."""
    return _PendingEvent(int(t_s * NS_PER_S), order, src_key, dst_key,
                         relation, malicious=False)


def _conf_open(actor: tuple[NodeKind, str], conf: str, first_s: float,
               order: tuple) -> _PendingEvent:
    """The actor opens its config file 2 s before its first action, but
    not before the capture starts: a daemon reads its config before
    serving, so its first-ever event is in line with other fresh
    processes."""
    return _event(max(first_s - 2.0, 0.0), order, actor, (NodeKind.FILE, conf),
                  Relation.OPEN)


def generate_scenario(spec: ScenarioSpec) -> LabeledDataset:
    """Deterministic pure function of the spec (including its seed)."""
    import random

    for step in spec.attack_chain:
        if step.offset_s > spec.duration_s:
            raise ValueError(
                f"attack offset {step.offset_s}s exceeds duration {spec.duration_s}s"
            )

    rng = random.Random(spec.seed)
    pending: list[_PendingEvent] = []

    for tmpl_idx, tmpl in enumerate(spec.benign_templates):
        if tmpl.cycle:
            pending.extend(_emit_duty_cycle(tmpl, tmpl_idx, spec.duration_s))
        elif tmpl.sessions:
            for spec_idx, sess in enumerate(tmpl.sessions):
                pending.extend(
                    _emit_session_stream(sess, tmpl_idx, spec_idx,
                                         spec.duration_s)
                )
        else:
            pending.extend(_emit_cycle(tmpl, tmpl_idx, spec.duration_s, rng))

    for step_idx, step in enumerate(spec.attack_chain):
        pending.append(
            _PendingEvent(
                ts_ns=int(step.offset_s * NS_PER_S),
                order=(2, step_idx),
                src_key=(step.src_kind, step.src_label),
                dst_key=(step.dst_kind, step.dst_label),
                relation=step.relation,
                malicious=True,
            )
        )

    pending.sort(key=lambda p: (p.ts_ns, p.order))

    graph = _keyed_graph((p.src_key, p.dst_key, p.relation, p.ts_ns) for p in pending)
    labels = [TruthLabel.MALICIOUS if p.malicious else TruthLabel.BENIGN
              for p in pending]
    attack_ts = [p.ts_ns for p in pending if p.malicious]
    interval = (min(attack_ts), max(attack_ts)) if attack_ts else (0, 0)
    return LabeledDataset(graph=graph, labels=labels, attack_interval=interval)


def _emit_cycle(tmpl: BenignTemplate, tmpl_idx: int, duration_s: float, rng):
    """Flat template: one long-lived process cycling through its mix."""
    cycle: list[Relation] = []
    for rel, weight in tmpl.mix.items():
        cycle.extend([rel] * int(round(weight)))
    if not cycle:
        raise ValueError(f"template {tmpl.label!r} has an empty mix")

    proc = (NodeKind.PROCESS, tmpl.label)
    # small per-relation partner pools so partner memories are stationary
    pools = {
        "file": [(NodeKind.FILE, f"{tmpl.label}/file{i}") for i in range(3)],
        "sock": [(NodeKind.SOCKET, f"{tmpl.label}:peer{i}") for i in range(4)],
        "proc": [(NodeKind.PROCESS, f"{tmpl.label}.helper{i}") for i in range(2)],
    }
    counters = {"file": 0, "sock": 0, "proc": 0}

    def partner(rel: Relation):
        kind = {
            Relation.READ: "file", Relation.WRITE: "file", Relation.OPEN: "file",
            Relation.CLOSE: "file", Relation.SEND: "sock", Relation.RECV: "sock",
            Relation.CONNECT: "sock", Relation.EXECUTE: "proc", Relation.CLONE: "proc",
        }[rel]
        pool = pools[kind]
        key = pool[counters[kind] % len(pool)]
        counters[kind] += 1
        return key

    period = 60.0 / tmpl.rate_per_min
    t = period * (0.3 + 0.1 * tmpl_idx)
    i = 0
    out = []
    while t < duration_s:
        rel = cycle[i % len(cycle)]
        jitter = rng.uniform(-0.05, 0.05) * period
        out.append(_event(t + jitter, (0, tmpl_idx, i), proc, partner(rel), rel))
        t += period
        i += 1
    return out


def _session_events(sess: SessionSpec, session_no: int, start_s: float,
                    order_key: tuple) -> list[_PendingEvent]:
    """One session instance: optional parent EXECUTE plus the actor steps;
    coin steps follow the bits of session_no (see SessionStep)."""
    actor = (NodeKind.PROCESS, f"{sess.name}.{session_no}")
    batch: list[_PendingEvent] = []
    t = start_s
    if sess.parent:
        batch.append(_event(t, (*order_key, session_no, 0),
                            (NodeKind.PROCESS, sess.parent), actor,
                            Relation.EXECUTE))
        t += sess.start_gap_s
    coin_idx = 0
    dst: tuple[NodeKind, str] | None = None
    for step_idx, step in enumerate(sess.steps):
        relation = step.relation
        if step.coin is not None:
            if (session_no >> coin_idx) & 1:
                relation = step.coin
            coin_idx += 1
        if step.dst == "fresh":
            dst = (step.dst_kind, f"{sess.name}.{session_no}.obj{step_idx}")
        elif step.dst == "same":
            if dst is None:
                raise ValueError(f"session {sess.name!r}: 'same' needs a prior step")
        else:
            dst = (step.dst_kind, step.dst)
        if step_idx > 0:
            t += step.gap_s
        batch.append(_event(t, (*order_key, session_no, len(batch)), actor, dst,
                            relation))
    return batch


def _emit_session_stream(sess: SessionSpec, tmpl_idx: int, spec_idx: int,
                         duration_s: float) -> list[_PendingEvent]:
    """The parent's config read, then one session per period until the
    first session that ends past the capture."""
    order_key = (1, tmpl_idx, spec_idx)
    out: list[_PendingEvent] = []
    if sess.parent and sess.conf:
        out.append(_conf_open((NodeKind.PROCESS, sess.parent), sess.conf,
                              sess.offset_s, (*order_key, 0, -1)))
    for session_no in itertools.count():
        batch = _session_events(sess, session_no,
                                sess.offset_s + session_no * sess.period_s,
                                order_key)
        if batch[-1].ts_ns >= duration_s * NS_PER_S:
            return out
        out.extend(batch)


def _emit_duty_cycle(tmpl: BenignTemplate, tmpl_idx: int,
                     duration_s: float) -> list[_PendingEvent]:
    """A long-lived process repeating a fixed duty cycle; EXECUTE
    positions spawn scripted child sessions. The stream ends at the
    first position past the capture; a spawned session that ends past
    it is dropped on its own."""
    proc = (NodeKind.PROCESS, tmpl.label)
    period = sum(step.gap_s for step in tmpl.cycle)
    out: list[_PendingEvent] = []
    if tmpl.conf:
        out.append(_conf_open(proc, tmpl.conf, tmpl.cycle_offset_s,
                              (0, tmpl_idx, -1)))
    for lap in itertools.count():
        t = tmpl.cycle_offset_s + lap * period
        for step_idx, step in enumerate(tmpl.cycle):
            if step_idx > 0:
                t += step.gap_s
            if t >= duration_s:
                return out
            if step.spawn is not None:
                child = _session_events(step.spawn, lap, t, (0, tmpl_idx, lap))
                if child[-1].ts_ns < duration_s * NS_PER_S:
                    out.extend(child)
                continue
            if step.dst == "fresh":
                dst = f"{tmpl.label}/lap{lap}.s{step_idx}"
            elif step.dst == "conn":
                # a small pool of peer sockets; one peer per lap
                dst = f"{tmpl.label}:conn{lap % 6}"
            else:
                dst = step.dst
            out.append(_event(t, (0, tmpl_idx, lap, step_idx), proc,
                              (step.dst_kind, dst), step.relation))


# ---------------------------------------------------------------------------
# dataset (de)serialization
# ---------------------------------------------------------------------------

def save_dataset(ds: LabeledDataset, path) -> None:
    g = ds.graph
    labels = g.node_labels
    by_id = np.argsort(g.node_ids, kind="stable").tolist()
    doc = {
        "version": DATASET_VERSION,
        "nodes": [
            {"id": nid, "kind": _KIND_VALUES[kind], "label": labels[row]}
            for nid, kind, row in zip(g.node_ids[by_id].tolist(),
                                      g.node_kinds[by_id].tolist(), by_id)
        ],
        "events": list(map(list, zip(
            g.src.tolist(), g.dst.tolist(),
            map(_RELATION_VALUES.__getitem__, g.rel.tolist()), g.ts.tolist(),
        ))),
        "labels": [lab.value for lab in ds.labels],
        "attack_interval": list(ds.attack_interval),
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def load_dataset(path) -> LabeledDataset:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"corrupt dataset file {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"dataset file {p} must hold a JSON object")
    if doc.get("version") != DATASET_VERSION:
        raise DatasetFormatError(
            f"unsupported dataset version {doc.get('version')!r} "
            f"(expected {DATASET_VERSION})"
        )
    # a value that is no member's raises KeyError, an unhashable one
    # TypeError, an integer past int64 OverflowError
    try:
        graph = _bulk_graph(doc)
        if graph is None:
            graph = _record_graph(doc)
        labels = list(map(_LABELS.__getitem__, doc["labels"]))
        t0, t1 = (_typed(t, int) for t in doc["attack_interval"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"malformed dataset file {p}: {exc!r}") from exc
    if len(labels) != len(graph):
        raise DatasetFormatError(
            f"dataset file {p} has {len(labels)} labels for {len(graph)} events"
        )
    if t0 > t1:
        # training would run up to the later bound, over the attack itself
        raise DatasetFormatError(
            f"dataset file {p} has attack_interval [{t0}, {t1}], "
            f"whose start is after its end"
        )
    return LabeledDataset(graph=graph, labels=labels, attack_interval=(t0, t1))


def _bulk_graph(doc: dict) -> TemporalGraph | None:
    """The graph of a document whose node and event records are all
    well-typed, checked and filled column by column; None for any other
    document. ``TemporalGraph.from_columns`` makes the graph's own checks
    (known endpoints, timestamp order, one descriptor per node id)."""
    nodes, events = doc.get("nodes"), doc.get("events")
    if not (_all_of(type, [nodes, events], list) and _all_of(type, nodes, dict)
            and _all_of(type, events, list) and _all_of(len, events, 4)):
        return None
    src, dst, rels, ts = zip(*events) if events else ((),) * 4
    try:
        ids, kinds, labels = (list(map(operator.itemgetter(key), nodes))
                              for key in ("id", "kind", "label"))
        if not (all(_all_of(type, col, int) for col in (ids, src, dst, ts))
                and _all_of(type, labels, str)):
            return None
        ids, src, dst, ts = (np.array(col, np.int64) for col in (ids, src, dst, ts))
        kinds = list(map(_KIND_CODES.__getitem__, kinds))
        rels = list(map(_RELATION_CODES.__getitem__, rels))
    except (KeyError, TypeError, OverflowError):
        return None
    return TemporalGraph.from_columns(ids, kinds, labels, src, dst, rels, ts)


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
