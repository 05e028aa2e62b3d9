"""Workloads of the provlens benchmark and the pass that runs them.

A pass is one operator flow over a scenario generated from the seed:

1. set-up: generate the scenario, save and reload the dataset, train,
   save and reload the checkpoint;
2. detection passes: ``score_stream``, ``score_all_windows`` and
   ``link_queues`` over the whole stream;
3. rounds of the workload's explanation work, repeated until the run's
   seconds are spent (always whole rounds, so every round explains the
   same inputs, and at least two, so their outputs can be compared),
   with further detection passes spread between their operations;
4. for ``alerts-1h``, one ``python -m provlens explain`` subprocess;
5. further set-ups, once the flow's state is released, so that they
   add nothing to its peak memory (``setup_s`` is their median).

Every timing is a ``time.perf_counter`` difference around calls into
provlens' public functions.  In a timed pass each timed call is
calibrated against the benchmark's own reference kernel, run just
before and just after it (see ``reference_kernel``).  Every call is an
operation and every output check is counted in the ledger; a failed
operation or check never stops the run, except a failed set-up or first
detection pass, which leave nothing to run: they end it with an
exception and no result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import provlens.data as data
import provlens.detect as detect
import provlens.gnnexplainer as gnnexplainer
import provlens.graphmask as graphmask
import provlens.harness as harness
import provlens.model as model
import provlens.pipeline as pipeline
import provlens.report as report
import provlens.vatg as vatg
from provlens.graph import Relation

SRC = Path(__file__).resolve().parent.parent / "src"

#: share of a timed run given to detection passes, spread over the run
#: so that their median is not taken from one stretch of the host
DETECT_SHARE = 0.2

#: set-ups per timed pass: one before the flow, the rest after it, so
#: that their median is not taken from one stretch of the host
SETUPS = 5

#: rounds every timed pass runs at least, so ``round_repeats`` compares
MIN_ROUNDS = 2

#: contexts explained per round, once each; a median over a dozen does
#: not hang on any one of them
CONTEXTS = 12

#: seconds the reference kernel takes at the reference speed: about its
#: median on the shared 2-vCPU x86-64 host the benchmark was defined on
#: (Python 3.11, numpy 2.4, one BLAS thread).  A calibrated time is a
#: measured time scaled by REFERENCE_S over the kernel's time measured
#: next to it, so it reads in seconds at that host's usual speed.
REFERENCE_S = 0.018

_REF_RNG = np.random.default_rng(0)
_REF_W = _REF_RNG.standard_normal((8, 16))
_REF_X = _REF_RNG.standard_normal(16)


def reference_kernel() -> float:
    """A fixed gradient loop over small arrays, owned by the benchmark.

    The host's speed drifts by up to 1.9x over stretches of seconds to
    minutes (other tenants; it shows neither as steal nor as lost CPU
    time).  This kernel mixes interpreter and small-array numpy work as
    the explainers and scoring do, so it slows with them; no provlens
    code runs in it, so no change to provlens moves it."""
    v = _REF_X.copy()
    for _ in range(1500):
        h = np.tanh(_REF_W @ v)
        v = np.clip(v - 0.01 * (_REF_W.T @ (1.0 - h * h)), -3.0, 3.0)
    return float(v.sum())


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    duration_s: float
    explain_alerts: bool   # run_pipeline and emit JSON/Markdown/DOT per raised alert
    edges: tuple[int, int]  # neighborhood sizes (min, max) of the explained contexts
    ablate_top: int        # GraphMask edges ablated per explained window
    cli: bool              # one `provlens explain` subprocess per pass


# alerts-1h: the operator's whole flow, explainers on narrow masks where
# per-call overhead dominates; wide-1h: the explainers alone on 10-20 edge
# masks; stream-16h: extraction, replay, scoring and IO at 16x the events.
# README.md gives the full reasons.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "alerts-1h", 3600.0, explain_alerts=True, edges=(1, 9), ablate_top=2,
            cli=True,
        ),
        Workload(
            "wide-1h", 3600.0, explain_alerts=False, edges=(10, 20), ablate_top=0,
            cli=False,
        ),
        Workload(
            "stream-16h", 57600.0, explain_alerts=True, edges=(1, 9), ablate_top=0,
            cli=False,
        ),
    )
}


class Ledger:
    """Attempted and failed operations and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: dict[str, int] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".strip())

    def op(self, name: str, fn, *args, **kwargs):
        """Call fn; return (result, seconds), or (None, None) when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation, run goes on
            self.failures.append(f"{name} raised {exc!r}")
            return None, None
        return result, time.perf_counter() - t0


@dataclass
class PassResult:
    #: calibrate timed calls against the reference kernel (timed passes)
    calibrate: bool = False
    #: seconds per operation kind, per item (alert, event, edge, round);
    #: calibrated when ``calibrate`` is set
    samples: dict[str, dict[object, list[float]]] = field(default_factory=dict)
    #: measured seconds, per operation kind, per item
    raw: dict[str, dict[object, list[float]]] = field(default_factory=dict)
    #: every reference kernel time taken in the pass
    references: list[float] = field(default_factory=list)
    events: int = 0
    checkpoint_bytes: int = 0
    dataset_bytes: int = 0
    json_bytes: int = 0
    rounds: int = 0
    detection: dict = field(default_factory=dict)
    model: object = None
    dataset: object = None
    wall_s: float = 0.0

    def timed(self, ledger: Ledger, name: str, item, fn, *args, **kwargs):
        """``ledger.op`` recorded as a sample of ``name`` for ``item``;
        returns fn's result, or None when it raised.  When calibrating,
        the reference kernel runs just before and just after the call,
        and the sample is the call's seconds times REFERENCE_S over the
        mean of the two kernel times."""
        before = reference_s() if self.calibrate else None
        result, seconds = ledger.op(name, fn, *args, **kwargs)
        if seconds is None:
            return None
        self.raw.setdefault(name, {}).setdefault(item, []).append(seconds)
        if self.calibrate:
            after = reference_s()
            self.references += [before, after]
            seconds *= REFERENCE_S / ((before + after) / 2)
        self.samples.setdefault(name, {}).setdefault(item, []).append(seconds)
        return result


def window_stats(m) -> detect.WindowStats:
    s = m.stats
    return detect.WindowStats(
        mu=s.mu, sigma=s.sigma,
        threshold=s.mu + detect.THRESHOLD_SIGMA_FACTOR * s.sigma,
    )


def _build(spec, workdir: Path):
    generated = data.generate_scenario(spec)
    data.save_dataset(generated, workdir / "dataset.json")
    dataset = data.load_dataset(workdir / "dataset.json")
    trained = model.train(dataset, model.ModelConfig())
    trained.save(workdir / "model.json")
    loaded = model.TgnModel.load(workdir / "model.json")
    return generated, dataset, trained, loaded


def setup(spec, workdir: Path, ledger: Ledger, res: PassResult, item: int):
    """Generate, round-trip the dataset, train, round-trip the checkpoint,
    as set-up sample ``item``.

    Returns (dataset, model); the checks run after the clock."""
    built = res.timed(ledger, "setup", item, _build, spec, workdir)
    if built is None:
        raise RuntimeError(f"set-up failed: {ledger.failures[-1]}")
    generated, dataset, trained, loaded = built
    ledger.check("dataset_round_trip", dataset == generated)
    ledger.check(
        "checkpoint_round_trip",
        all(np.array_equal(getattr(trained, p), getattr(loaded, p))
            for p in ("We", "be", "Wo", "bo"))
        and trained.stats == loaded.stats,
    )
    return dataset, loaded


def detection(m, dataset, stats):
    contexts = model.score_stream(m, dataset)
    verdicts = detect.score_all_windows(dataset.graph, contexts, stats)
    alerts = detect.link_queues(verdicts, stats)
    return contexts, verdicts, alerts


def explain_event(m, ctx):
    """One context through all three explainers."""
    return (
        graphmask.graphmask_explain_event(m, ctx),
        gnnexplainer.gnn_explain_event(m, ctx),
        vatg.vatg_explain_event(m, ctx),
    )


def _check_event(ledger: Ledger, outcome) -> bytes:
    """Contract checks on one explained event; returns its fingerprint."""
    gm, ge, ve = outcome
    ledger.check("explainers_returned", None not in (gm, ge, ve))
    if None in (gm, ge, ve):
        return b""
    ledger.check(
        "graphmask_mask_valid",
        bool(np.all((gm.values > 0) & (gm.values < 1)))
        and gm.objective <= gm.initial_objective,
    )
    fid = ge.fidelity
    ledger.check(
        "gnnexplainer_valid",
        bool(np.all((ge.mask > 0) & (ge.mask < 1)))
        and math.isfinite(fid.comprehensiveness) and math.isfinite(fid.sufficiency),
    )
    ledger.check(
        "vatg_valid",
        bool(np.all(np.isfinite(ve.importance)))
        and bool(np.all((ve.importance >= 0) & (ve.importance <= 1))),
    )
    return gm.values.tobytes() + ge.mask.tobytes() + ve.importance.tobytes()


def select_contexts(contexts, wl: Workload) -> list[int]:
    """CONTEXTS evenly spaced contexts, in order of neighborhood size
    (widest first) and then event index, from those whose size lies in
    ``wl.edges``; every seed explains the same spread of mask widths."""
    lo, hi = wl.edges
    ordered = sorted((-len(c.neighborhood), c.target_index) for c in contexts
                     if lo <= len(c.neighborhood) <= hi)
    step = len(ordered) / CONTEXTS
    picked = {ordered[int(i * step)][1] for i in range(CONTEXTS)} if ordered else set()
    return [idx for _, idx in ordered if idx in picked]


def run_pass(wl: Workload, seed: int, seconds: float, workdir: Path,
             ledger: Ledger, fixed: bool) -> PassResult:
    """One operator flow.  After set-up and a first detection pass,
    rounds of the workload's explanation work repeat until ``seconds``
    have passed since the pass began (and at least MIN_ROUNDS times),
    with further detection passes spread between them, and SETUPS - 1
    set-ups follow; with ``fixed`` there is one set-up, one detection
    pass and one round (the traced and memory passes need identical
    work; they are not calibrated)."""
    res = PassResult(calibrate=not fixed)
    if res.calibrate:
        reference_s()  # warm-up
    spec = dataclasses.replace(data.default_scenario(seed), duration_s=wl.duration_s)
    start = time.perf_counter()
    dataset, m = setup(spec, workdir, ledger, res, 0)
    res.events = len(dataset.graph)
    res.checkpoint_bytes = (workdir / "model.json").stat().st_size
    res.dataset_bytes = (workdir / "dataset.json").stat().st_size
    stats = window_stats(m)

    first = _detect(m, dataset, stats, ledger, res)
    if first is None:
        raise RuntimeError(f"detection failed: {ledger.failures[-1]}")
    contexts, raised = first
    selected = select_contexts(contexts, wl)
    ledger.check("events_selected", bool(selected))
    res.detection["explained_events"] = len(selected)

    def between() -> None:
        """Spread further detection passes over the run: one more pass
        whenever detection has had less than DETECT_SHARE of it."""
        detect_s = sum(flat(res.raw["detect"]))
        if not fixed and detect_s < DETECT_SHARE * (time.perf_counter() - start):
            _detect(m, dataset, stats, ledger, res)

    first_round = None
    library_json: dict[str, str] = {}
    while True:
        outputs = _round(wl, m, dataset, stats, contexts, raised, selected,
                         ledger, res, library_json, between)
        if first_round is None:
            first_round = outputs
        else:
            ledger.check("round_repeats", outputs == first_round)
        res.rounds += 1
        if fixed or (res.rounds >= MIN_ROUNDS
                     and time.perf_counter() - start >= seconds):
            break
    res.json_bytes = sum(len(t) for t in library_json.values())

    if wl.cli:
        _cli_explain(workdir, ledger, res, library_json)
    res.wall_s = time.perf_counter() - start
    if fixed:
        res.model, res.dataset = m, dataset  # for the memory pass
        return res
    del m, dataset, first, contexts, raised
    for i in range(1, SETUPS):
        setup(spec, workdir, ledger, res, i)
    return res


def _detect(m, dataset, stats, ledger, res):
    """One timed detection pass plus its checks; returns the scored
    contexts and the raised alerts, or None when the pass raised."""
    out = res.timed(ledger, "detect", len(res.raw.get("detect", ())),
                    detection, m, dataset, stats)
    if out is None:
        return None
    contexts, verdicts, alerts = out
    raised = [a for a in alerts if a.raised]
    spans = [(a.t_start, a.t_end) for a in raised]
    t0, t1 = dataset.attack_interval
    ledger.check("attack_inside_raised_alert",
                 any(a <= t0 and t1 <= b for a, b in spans), f"{spans}")
    widths = [len(c.neighborhood) for c in contexts]
    counts = {
        "windows": len(verdicts),
        "anomalous_windows": sum(v.anomalous for v in verdicts),
        "flagged_events": sum(len(v.high_loss_events) for v in verdicts),
        "alerts_raised": len(raised),
        "alert_spans": spans,
        "neighborhood_edges_mean": sum(widths) / len(widths),
        "neighborhood_edges_max": max(widths),
    }
    if res.detection:
        ledger.check("detection_repeats",
                     all(res.detection[k] == v for k, v in counts.items()))
    else:
        res.detection = counts
    return contexts, raised


def _round(wl, m, dataset, stats, contexts, raised, selected, ledger, res,
           library_json, between) -> list:
    """One round of the workload's explanation work, calling ``between``
    after each operation; returns a fingerprint of every output, which
    must repeat across rounds."""
    outputs: list = []
    nodes = dataset.graph.nodes
    windows = []
    if wl.explain_alerts:
        for alert in raised:
            rep = res.timed(ledger, "explain_alert", alert.t_start,
                            pipeline.run_pipeline, m, dataset, alert, stats,
                            pipeline.PipelineConfig(), contexts=contexts)
            between()
            if rep is None:
                continue
            sub, _ = ledger.op("reconstruct_subgraph", detect.reconstruct_subgraph,
                               alert, dataset.graph)
            for wr in rep.windows:
                doc, _ = ledger.op("emit_json", report.emit_json, wr, nodes)
                if doc is not None:
                    ledger.check("report_json_valid", _schema_valid(doc))
                    text = json.dumps(doc, indent=2) + "\n"
                    library_json[f"explanations_{doc['window']}.json"] = text
                    outputs.append(text)
                md, _ = ledger.op("emit_markdown", report.emit_markdown, wr, nodes)
                dot, _ = ledger.op("emit_graph_description",
                                   report.emit_graph_description, wr, sub, nodes)
                outputs += [md, dot]
                windows.append((alert, wr))

    for idx in selected:
        outcome = res.timed(ledger, "explain_event", idx, explain_event, m,
                            contexts[idx])
        between()
        if outcome is not None:
            outputs.append(_check_event(ledger, outcome))

    for alert, wr in windows if wl.ablate_top else ():
        rows = [harness.baseline_row()]
        for row in wr.graphmask_aggregate[: wl.ablate_top]:
            edge = graphmask.CanonicalEdge(row["src"], row["dst"],
                                           Relation(row["relation"]))
            result = res.timed(ledger, "ablate_edge", (alert.t_start, edge),
                               harness.ablate_edge, m, dataset, stats, alert, edge,
                               detect.DetectorConfig(),
                               graphmask_score=row["weight"])
            between()
            if result is not None:
                rows.append(result)
        table = harness.ablation_csv(rows).splitlines()
        ledger.check("ablation_csv_header",
                     table[0].split(",") == harness.ABLATION_COLUMNS, table[0])
        ledger.check("ablation_csv_baseline_first",
                     len(table) > 1 and table[1].split(",")[0] == "NONE")
        outputs.append(table)
    return outputs


def _schema_valid(doc) -> bool:
    try:
        report.validate_document(doc)
    except jsonschema.ValidationError:
        return False
    return True


def _cli_explain(workdir: Path, ledger: Ledger, res: PassResult,
                 library_json: dict[str, str]) -> None:
    """`python -m provlens explain` on the pass's dataset and checkpoint;
    its report JSON must equal the library's byte for byte."""
    out = workdir / "cli"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "provlens", "explain",
           "--dataset", str(workdir / "dataset.json"),
           "--model", str(workdir / "model.json"), "--out-dir", str(out)]
    proc = res.timed(ledger, "cli_explain", 0, subprocess.run, cmd, env=env,
                     capture_output=True, text=True, timeout=170)
    if proc is None:
        return
    ledger.check("cli_exit_0", proc.returncode == 0, proc.stderr[-500:])
    cli_json = {p.name: p.read_text() for p in out.glob("explanations_*.json")}
    ledger.check("cli_json_matches_library",
                 bool(cli_json) and cli_json == library_json,
                 f"{sorted(cli_json)} vs {sorted(library_json)}")


def flat(per_item: dict) -> list[float]:
    return [x for xs in per_item.values() for x in xs]


def p50(per_item: dict) -> float:
    """Median over items of each item's median over rounds."""
    return statistics.median(statistics.median(xs) for xs in per_item.values())


def tail(xs) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None
    when that would not lie above the median."""
    n = len(xs)
    if n <= 20:
        return None
    ordered = sorted(xs)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}
