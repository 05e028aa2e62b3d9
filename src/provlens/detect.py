"""Windowed anomaly aggregation, alert-queue linking, and attack-subgraph
reconstruction.

Detection reads a scored stream's loss array only. An event is flagged
when its loss strictly exceeds mu + 1.5*sigma of the held-out benign
losses; a window's :class:`WindowVerdict` lists its flagged events, and
explanation reads exactly those. Windows become anomalous via suspicious nodes
(or a total flagged-loss budget), maximal runs of anomalous windows
sharing entities merge into alerts, and a raised alert yields the attack
subgraph handed to the explainers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import NS_PER_S, Event, TemporalGraph
from .masks import check_fields, ordered_sum

THRESHOLD_SIGMA_FACTOR = 1.5


@dataclass(frozen=True)
class WindowStats:
    mu: float
    sigma: float
    threshold: float

    @classmethod
    def from_benign(cls, mu: float, sigma: float) -> "WindowStats":
        """The stats whose threshold is mu + 1.5*sigma of the benign losses."""
        return cls(mu=mu, sigma=sigma, threshold=mu + THRESHOLD_SIGMA_FACTOR * sigma)


@dataclass
class WindowVerdict:
    window: tuple[int, int]                  # (t0, t1) half-open, ns
    event_count: int
    high_loss_events: list[int]              # event indexes with loss > threshold
    node_scores: dict[int, float]            # cumulative loss per incident node
    suspicious_nodes: set[int]               # node_score > threshold
    flagged_loss: float
    anomalous: bool


@dataclass
class Alert:
    windows: list[WindowVerdict]
    t_start: int
    t_end: int
    queue_score: float
    entities: set[int]
    raised: bool

    def overlaps(self, t0: int, t1: int) -> bool:
        """Whether the alert's half-open span [t_start, t_end) shares time
        with the half-open span [t0, t1); spans that only touch do not."""
        return self.t_start < t1 and t0 < self.t_end

    def to_json(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "windows": [list(w.window) for w in self.windows],
            "entities": sorted(self.entities),
            "queue_score": self.queue_score,
        }


@dataclass
class AttackSubgraph:
    nodes: set[int]
    event_indexes: list[int]
    events: list[Event]


@dataclass(frozen=True)
class DetectorConfig:
    window_minutes: float = 15.0
    min_suspicious_nodes: int = 1
    window_loss_budget: float | None = None       # OR-predicate; None disables
    alert_threshold_factor: float = 2.0           # alert iff queue >= factor*threshold

    def __post_init__(self):
        check_fields(self)
        # a window under 1 ns would truncate to 0 and never advance
        if not 1 <= self.window_minutes * 60 * NS_PER_S < math.inf:
            raise ValueError(
                f"window_minutes={self.window_minutes!r} must give a window "
                f"of at least 1 ns and of finite length in ns"
            )

    @property
    def window_ns(self) -> int:
        """window_minutes in whole nanoseconds."""
        return int(self.window_minutes * 60 * NS_PER_S)


def compute_threshold(benign_losses) -> WindowStats:
    """mu + 1.5*sigma over the benign losses (population std)."""
    losses = list(benign_losses)
    if len(losses) < 2:
        raise ValueError("need at least 2 benign losses to compute a threshold")
    n = len(losses)
    mu = ordered_sum(losses) / n
    var = ordered_sum((x - mu) ** 2 for x in losses) / n
    return WindowStats.from_benign(mu, var**0.5)


def score_window(
    graph: TemporalGraph,
    losses: np.ndarray,
    window: tuple[int, int],
    stats: WindowStats,
    config: DetectorConfig = DetectorConfig(),
) -> WindowVerdict:
    """Aggregate per-event losses over one half-open window.

    ``losses`` is every event's loss in event order, a scored stream's
    ``losses``; the window reads one slice of it. Flagging uses strict
    inequality at the threshold, and the flagged loss adds left to right.
    """
    lo, hi = graph.window_bounds(*window)
    losses = losses[lo:hi]
    hot = losses > stats.threshold
    flagged = (np.flatnonzero(hot) + lo).tolist()
    node_scores = _node_scores(graph.src[lo:hi], graph.dst[lo:hi], losses)
    suspicious = {n for n, s in node_scores.items() if s > stats.threshold}
    flagged_loss = ordered_sum(losses[hot].tolist())

    anomalous = bool(flagged) and len(suspicious) >= config.min_suspicious_nodes
    if config.window_loss_budget is not None:
        anomalous = anomalous or flagged_loss > config.window_loss_budget

    return WindowVerdict(
        window=window,
        event_count=hi - lo,
        high_loss_events=flagged,
        node_scores=node_scores,
        suspicious_nodes=suspicious,
        flagged_loss=flagged_loss,
        anomalous=anomalous,
    )


def _node_scores(src: np.ndarray, dst: np.ndarray,
                 losses: np.ndarray) -> dict[int, float]:
    """Each endpoint's summed loss over the events, keyed in order of
    first appearance (an event's src before its dst). ``np.add.at`` adds
    in event order, src before dst, and a self-loop counts once, so every
    sum is the same float sequence as a loop over the events."""
    ends = np.stack([src, dst], axis=1).ravel()
    weights = np.repeat(np.asarray(losses, dtype=float), 2)
    keep = np.ones(len(ends), bool)
    keep[1::2] = src != dst
    nodes, first, slot = np.unique(ends[keep], return_index=True, return_inverse=True)
    sums = np.zeros(len(nodes))
    np.add.at(sums, slot, weights[keep])
    order = np.argsort(first)
    return dict(zip(nodes[order].tolist(), sums[order].tolist()))


def iter_windows(span: tuple[int, int], window_ns: int):
    """Half-open windows covering the span; every event falls in exactly one."""
    t0, t_last = span
    start = t0
    while start <= t_last:
        yield (start, start + window_ns)
        start += window_ns


def score_all_windows(
    graph: TemporalGraph,
    contexts,
    stats: WindowStats,
    config: DetectorConfig = DetectorConfig(),
    span: tuple[int, int] | None = None,
) -> list[WindowVerdict]:
    """Every window of the grid over ``span``, by default the graph's own,
    from the ``losses`` of the scored stream ``contexts``; an edited
    stream is scored on its original stream's span, so both share one grid."""
    losses = contexts.losses
    return [
        score_window(graph, losses, w, stats, config)
        for w in iter_windows(graph.span() if span is None else span,
                              config.window_ns)
    ]


def link_queues(
    verdicts: list[WindowVerdict],
    stats: WindowStats,
    config: DetectorConfig = DetectorConfig(),
) -> list[Alert]:
    """Merge maximal runs of anomalous windows into alerts.

    Adjacent anomalous windows join the same queue when they share at
    least one node with positive node score. The queue score is the sum
    of member flagged-event losses; the alert is raised when it reaches
    ``alert_threshold_factor * stats.threshold``.
    """
    alerts: list[Alert] = []
    run: list[WindowVerdict] = []

    def close_run():
        if not run:
            return
        queue_score = ordered_sum(w.flagged_loss for w in run)
        entities: set[int] = set()
        for w in run:
            entities |= w.suspicious_nodes
        alerts.append(
            Alert(
                windows=list(run),
                t_start=run[0].window[0],
                t_end=run[-1].window[1],
                queue_score=queue_score,
                entities=entities,
                raised=queue_score >= config.alert_threshold_factor * stats.threshold,
            )
        )
        run.clear()

    for v in verdicts:
        if not v.anomalous:
            close_run()
            continue
        if run:
            shared = {
                n for n, s in v.node_scores.items() if s > 0
            } & {n for n, s in run[-1].node_scores.items() if s > 0}
            if not shared:
                close_run()
        run.append(v)
    close_run()
    return alerts


def reconstruct_subgraph(alert: Alert, graph: TemporalGraph) -> AttackSubgraph:
    """Attack subgraph of a raised alert over its whole span."""
    return span_subgraph(graph, alert.t_start, alert.t_end, alert.entities)


def span_subgraph(
    graph: TemporalGraph, t0: int, t1: int, entities: set[int]
) -> AttackSubgraph:
    """Events in the half-open span [t0, t1) with at least one endpoint
    among the entities; nodes are the entities plus their event partners."""
    lo, hi = graph.window_bounds(t0, t1)
    src, dst = graph.src[lo:hi], graph.dst[lo:hi]
    members = np.fromiter(entities, np.int64, len(entities))
    hit = np.flatnonzero(np.isin(src, members) | np.isin(dst, members))
    nodes = set(entities)
    nodes.update(src[hit].tolist(), dst[hit].tolist())
    idxs = (hit + lo).tolist()
    return AttackSubgraph(
        nodes=nodes,
        event_indexes=idxs,
        events=[graph.events[i] for i in idxs],
    )


def save_alerts(alerts: list[Alert], path) -> None:
    doc = {"alerts": [a.to_json() | {"raised": a.raised} for a in alerts]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
