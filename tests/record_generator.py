"""The per-event record generator, kept as the reference for
``provlens.data.generate_scenario``.

This is the generator as it was written before generation went
columnar: one plain tuple ``(ts_ns, order, src_key, dst_key, relation)``
per event, where a key is ``(kind code, label)`` and ``order`` is the
``(class, position...)`` tie key, all records sorted once and numbered
one event at a time (:func:`numbered_graph`). Slow, but each event is
written out in full, so the columnar generator is checked against it.
"""

from __future__ import annotations

import itertools
import operator

from provlens.data import _KIND_CODES, LabeledDataset
from provlens.graph import NS_PER_S, Event, Relation, TemporalGraph, TruthLabel

_PROCESS, _FILE = _KIND_CODES["PROCESS"], _KIND_CODES["FILE"]
_TIME_ORDER = operator.itemgetter(0, 1)
#: the order class of the attack chain; duty cycles are 0 and session
#: streams 1
_ATTACK = 2


def reference_scenario(spec) -> LabeledDataset:
    """The dataset of the spec, one record per event."""
    for step in spec.attack_chain:
        if step.offset_s > spec.duration_s:
            raise ValueError(
                f"attack offset {step.offset_s}s exceeds duration {spec.duration_s}s"
            )

    records: list[tuple] = []
    for idx, cycle in enumerate(spec.cycles):
        records.extend(_emit_duty_cycle(cycle, (0, idx), spec.duration_s))
    for idx, sess in enumerate(spec.sessions):
        records.extend(_emit_session_stream(sess, (1, idx), spec.duration_s))
    for idx, step in enumerate(spec.attack_chain):
        records.append(_event(step.offset_s, (_ATTACK, idx),
                              (_KIND_CODES[step.src_kind.value], step.src_label),
                              (_KIND_CODES[step.dst_kind.value], step.dst_label),
                              step.relation))
    records.sort(key=_TIME_ORDER)

    graph = numbered_graph(records)
    labels = [TruthLabel.MALICIOUS if r[1][0] == _ATTACK else TruthLabel.BENIGN
              for r in records]
    attack_ts = [r[0] for r in records if r[1][0] == _ATTACK]
    interval = (min(attack_ts), max(attack_ts)) if attack_ts else (0, 0)
    return LabeledDataset(graph=graph, labels=labels, attack_interval=interval)


def numbered_graph(records) -> TemporalGraph:
    """The graph of (ts_ns, order, src_key, dst_key, relation) records in
    order: node ids count the keys in order of first appearance (a
    record's src before its dst), the nodes go in by one
    ``from_columns`` call and then each record by one ``append_event``."""
    ids = {}
    for _, _, src_key, dst_key, _ in records:
        ids.setdefault(src_key, len(ids))
        ids.setdefault(dst_key, len(ids))
    graph = TemporalGraph.from_columns(list(ids.values()), [kind for kind, _ in ids],
                                       [label for _, label in ids], [], [], [], [])
    for ts, _, src_key, dst_key, rel in records:
        graph.append_event(Event(ids[src_key], ids[dst_key], rel, ts))
    return graph


def _event(t_s: float, order: tuple, src_key, dst_key, relation) -> tuple:
    """The record of an event at t_s seconds into the capture."""
    return (int(t_s * NS_PER_S), order, src_key, dst_key, relation)


def _conf_open(actor, conf: str, first_s: float, order: tuple) -> tuple:
    """The actor opens its config file 2 s before its first action, but
    not before the capture starts."""
    return _event(max(first_s - 2.0, 0.0), order, actor, (_FILE, conf),
                  Relation.OPEN)


def _session_events(sess, session_no: int, start_s: float,
                    order_key: tuple) -> list[tuple]:
    """One session instance: optional parent EXECUTE plus the actor steps;
    coin steps follow the bits of session_no."""
    actor = (_PROCESS, f"{sess.name}.{session_no}")
    batch: list[tuple] = []
    t = start_s
    if sess.parent:
        batch.append(_event(t, (*order_key, session_no, 0),
                            (_PROCESS, sess.parent), actor, Relation.EXECUTE))
        t += sess.start_gap_s
    coin_idx = 0
    dst = None
    for step_idx, step in enumerate(sess.steps):
        kind = _KIND_CODES[step.dst_kind.value]
        relation = step.relation
        if step.coin is not None:
            if (session_no >> coin_idx) & 1:
                relation = step.coin
            coin_idx += 1
        if step.dst == "fresh":
            dst = (kind, f"{sess.name}.{session_no}.obj{step_idx}")
        elif step.dst != "same":
            dst = (kind, step.dst)
        if step_idx > 0:
            t += step.gap_s
        batch.append(_event(t, (*order_key, session_no, len(batch)), actor, dst,
                            relation))
    return batch


def _emit_session_stream(sess, order_key: tuple, duration_s: float) -> list[tuple]:
    """The parent's config read, then one session per period until the
    first session that ends past the capture."""
    out: list[tuple] = []
    if sess.parent and sess.conf:
        out.append(_conf_open((_PROCESS, sess.parent), sess.conf,
                              sess.offset_s, (*order_key, 0, -1)))
    for session_no in itertools.count():
        batch = _session_events(sess, session_no,
                                sess.offset_s + session_no * sess.period_s,
                                order_key)
        if batch[-1][0] >= duration_s * NS_PER_S:
            return out
        out.extend(batch)


def _emit_duty_cycle(cycle, order_key: tuple, duration_s: float) -> list[tuple]:
    """A long-lived process repeating a fixed duty cycle; EXECUTE
    positions spawn scripted child sessions. The stream ends at the
    first position past the capture; a spawned session that ends past
    it is dropped on its own."""
    proc = (_PROCESS, cycle.label)
    kinds = [_KIND_CODES[step.dst_kind.value] for step in cycle.steps]
    out: list[tuple] = []
    if cycle.conf:
        out.append(_conf_open(proc, cycle.conf, cycle.offset_s, (*order_key, -1)))
    for lap in itertools.count():
        t = cycle.offset_s + lap * cycle.period_s
        for step_idx, step in enumerate(cycle.steps):
            if step_idx > 0:
                t += step.gap_s
            if t >= duration_s:
                return out
            if step.spawn is not None:
                child = _session_events(step.spawn, lap, t, (*order_key, lap))
                if child[-1][0] < duration_s * NS_PER_S:
                    out.extend(child)
                continue
            if step.dst == "fresh":
                dst = f"{cycle.label}/lap{lap}.s{step_idx}"
            elif step.dst == "conn":
                dst = f"{cycle.label}:conn{lap % 6}"
            else:
                dst = step.dst
            out.append(_event(t, (*order_key, lap, step_idx), proc,
                              (kinds[step_idx], dst), step.relation))
