"""provlens benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload alerts-1h --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; provlens is imported from
``src/``.  ``--trace 0`` times the workload untraced and prints the
end-to-end metrics.  ``--trace 1`` runs the same work three times in
fixed size (untraced, traced, and under tracemalloc) and prints the
per-layer metrics.  The last line of standard output is the result
object; the line before it is the full report (every metric the
workload measures, sample counts, tails, check counts, deterministic
counts and the environment).  Exit status 2 means there are no provlens
sources next to the benchmark or the workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: every workload runs single-threaded BLAS (at most nproc on any machine)
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin BLAS/OpenMP threads before numpy loads and put src/ first on
    the import path."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy
    from provlens.pipeline import PipelineConfig

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parallel_windows": PipelineConfig().parallel_windows,
    }


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def timed_metrics(res) -> tuple[dict, dict]:
    """(end-to-end metrics every workload reports, workload extras).

    Times are calibrated (see workloads.reference_kernel); each metric
    also carries its value from the measured, uncalibrated seconds."""
    from workloads import flat, p50, tail

    s, raw = res.samples, res.raw

    def events_per_s(samples):
        return res.events / statistics.median(flat(samples["detect"]))

    e2e = {
        "setup_s": metric(statistics.median(flat(s["setup"])), "s",
                          measured=statistics.median(flat(raw["setup"])),
                          samples=len(s["setup"])),
        "detect_events_per_s": metric(events_per_s(s), "1/s",
                                      measured=events_per_s(raw),
                                      samples=len(s["detect"])),
        "explain_event_p50_s": metric(p50(s["explain_event"]), "s",
                                      measured=p50(raw["explain_event"]),
                                      items=len(s["explain_event"]),
                                      rounds=res.rounds),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "checkpoint_kib": metric(res.checkpoint_bytes / 1024, "KiB"),
    }
    extra = {"reference_s": metric(statistics.median(res.references), "s",
                                   samples=len(res.references))}
    for name in ("explain_alert", "explain_event", "ablate_edge"):
        if name not in s:
            continue
        if name != "explain_event":
            extra[f"{name}_p50_s"] = metric(p50(s[name]), "s",
                                            measured=p50(raw[name]),
                                            items=len(s[name]), rounds=res.rounds)
        t = tail(flat(s[name]))
        extra[f"{name}_tail_s"] = (
            metric(t["value"], "s", percentile=t["percentile"], samples=t["samples"])
            if t else None
        )
    if "cli_explain" in s:
        extra["cli_explain_s"] = metric(statistics.median(flat(s["cli_explain"])), "s",
                                        measured=statistics.median(
                                            flat(raw["cli_explain"])))
    return e2e, extra


def cli_import_s(runs: int = 3) -> float:
    from workloads import SRC

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import provlens"], env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, res, untraced_wall: float, memory: dict) -> tuple[dict, dict]:
    """(per-layer metrics every workload reports, layer extras).

    Times are summed inclusive span durations unless named self or p50."""
    from workloads import flat, tail

    def p50(name):
        xs = [sp[2] - sp[1] for sp in tracer.named(name)]
        return statistics.median(xs) if xs else 0.0

    def pipeline_unique_ratio(name):
        """Unique events over calls, for the calls run_pipeline makes."""
        spans = [sp for sp in tracer.named(name)
                 if tracer.inside(sp, "pipeline.run_pipeline")]
        return len({sp[4] for sp in spans}) / len(spans) if spans else 0.0

    gm = tracer.named("graphmask.explain_event")
    improved = [sp[5] for sp in gm if sp[5] is not None]
    notes = [sp[5] for sp in tracer.named("pipeline.run_pipeline")]
    ablations = len(tracer.named("harness.ablate_edge"))
    det = res.detection
    t = lambda name: metric(tracer.total(name), "s")  # noqa: E731
    c = lambda v: metric(v, "count")  # noqa: E731
    layers = {
        "data.generate_s": t("data.generate"),
        "data.save_dataset_s": t("data.save_dataset"),
        "data.load_dataset_s": t("data.load_dataset"),
        "data.events": c(res.events),
        "data.dataset_bytes": metric(res.dataset_bytes, "B"),
        "graph.extract_context_s": t("graph.extract_context"),
        "graph.extract_context_calls": c(len(tracer.named("graph.extract_context"))),
        "graph.neighborhood_edges_mean": metric(det["neighborhood_edges_mean"], "edges"),
        "graph.neighborhood_edges_max": metric(det["neighborhood_edges_max"], "edges"),
        "graph.append_event_calls": c(
            tracer.count("graph.append_event", under="harness.remove_edge")),
        "model.train_s": t("model.train"),
        "model.score_stream_s": t("model.score_stream"),
        "model.replay_update_calls": c(tracer.count("model.replay_update")),
        "model.score_event_calls": c(tracer.count("model.score_event")),
        "model.masked_forward_calls": c(
            tracer.count("model.masked_forward", skip_inside="model.score_event")),
        "model.mask_gradient_calls": c(tracer.count("model.mask_gradient")),
        "model.save_s": t("model.save"),
        "model.load_s": t("model.load"),
        "model.checkpoint_bytes": metric(res.checkpoint_bytes, "B"),
        "model.retained_bytes_per_event": metric(memory["retained_bytes_per_event"], "B"),
        "detect.score_all_windows_s": t("detect.score_all_windows"),
        "detect.link_queues_s": t("detect.link_queues"),
        "detect.windows": c(det["windows"]),
        "detect.anomalous_windows": c(det["anomalous_windows"]),
        "detect.flagged_events": c(det["flagged_events"]),
        "detect.alerts_raised": c(det["alerts_raised"]),
        "graphmask.explain_event_p50_s": metric(p50("graphmask.explain_event"), "s"),
        "graphmask.calls": c(len(gm)),
        "graphmask.unique_events": c(len({sp[4] for sp in gm})),
        "graphmask.improved_ratio": metric(
            sum(improved) / len(improved) if improved else 0.0, "ratio"),
        "gnnexplainer.explain_event_p50_s": metric(p50("gnnexplainer.explain_event"), "s"),
        "gnnexplainer.fidelity_s": t("gnnexplainer.fidelity"),
        "gnnexplainer.calls": c(len(tracer.named("gnnexplainer.explain_event"))),
        "gnnexplainer.unique_event_ratio": metric(
            pipeline_unique_ratio("gnnexplainer.explain_event"), "ratio"),
        "vatg.explain_event_p50_s": metric(p50("vatg.explain_event"), "s"),
        "vatg.calls": c(len(tracer.named("vatg.explain_event"))),
        "vatg.unique_event_ratio": metric(
            pipeline_unique_ratio("vatg.explain_event"), "ratio"),
        "vatg.mc_forward_calls": c(tracer.count(
            "model.masked_forward", under="vatg.explain_event",
            skip_inside="model.score_event")),
        "pipeline.score_event_calls": c(tracer.count(
            "model.score_event", under="pipeline.run_pipeline")),
        "pipeline.windows": c(sum(n["windows"] for n in notes)),
        "pipeline.skipped_events": c(sum(n["skipped"] for n in notes)),
        "pipeline.degraded": c(sum(n["degraded"] for n in notes)),
        "report.json_bytes": metric(res.json_bytes, "B"),
        "harness.replayed_events_per_ablation": c(
            tracer.count("model.replay_update", under="harness.ablate_edge")
            / ablations if ablations else 0),
        "cli.import_s": metric(cli_import_s(), "s"),
        "trace.overhead_ratio": metric(res.wall_s / untraced_wall - 1.0, "ratio"),
    }

    # layers only some workloads exercise; a time of a layer the workload
    # never calls would read 0 on every run, so these stay in the report
    extra = {}
    for name, span in (("graphmask.aggregate_s", "graphmask.aggregate"),
                       ("vatg.aggregate_node_s", "vatg.aggregate_node"),
                       ("pipeline.run_pipeline_s", "pipeline.run_pipeline"),
                       ("detect.reconstruct_subgraph_s", "detect.reconstruct_subgraph"),
                       ("report.emit_json_s", "report.emit_json"),
                       ("report.emit_markdown_s", "report.emit_markdown"),
                       ("report.emit_graph_description_s",
                        "report.emit_graph_description"),
                       ("harness.ablate_edge_s", "harness.ablate_edge"),
                       ("harness.remove_edge_s", "harness.remove_edge")):
        if tracer.named(span):
            extra[name] = t(span)
    if tracer.named("pipeline.run_pipeline"):
        extra["pipeline.self_s"] = metric(tracer.self_time("pipeline.run_pipeline"), "s")
    for name in ("graphmask.explain_event", "gnnexplainer.explain_event",
                 "vatg.explain_event"):
        tl = tail([sp[2] - sp[1] for sp in tracer.named(name)])
        if tl:
            extra[f"{name}_tail_s"] = metric(tl["value"], "s",
                                             percentile=tl["percentile"],
                                             samples=tl["samples"])
    extra["memory.score_stream_peak_bytes"] = metric(memory["peak_bytes"], "B")
    extra["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    extra["trace.traced_wall_s"] = metric(res.wall_s, "s")
    extra["trace.span_covered_s"] = metric(tracer.top_level_time(), "s")
    if "cli_explain" in res.samples:
        extra["trace.cli_subprocess_s"] = metric(
            statistics.median(flat(res.samples["cli_explain"])), "s")
    return layers, extra


def memory_pass(res) -> dict:
    """score_stream of the pass's dataset under tracemalloc."""
    import gc
    import tracemalloc

    import provlens.model

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        contexts = provlens.model.score_stream(res.model, res.dataset)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del contexts
    return {"retained_bytes_per_event": (current - base) / res.events,
            "peak_bytes": peak - base}


COUNT_KEYS = (
    "data.events", "detect.windows", "detect.flagged_events", "detect.alerts_raised",
    "graphmask.calls", "graphmask.unique_events", "gnnexplainer.calls",
    "vatg.calls", "model.masked_forward_calls", "model.mask_gradient_calls",
    "model.score_event_calls", "model.replay_update_calls",
    "pipeline.score_event_calls", "harness.replayed_events_per_ablation",
)


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; returns the full report (see module docstring)."""
    from spans import Tracer
    from workloads import Ledger, run_pass

    ledger = Ledger()
    rep = {"workload": wl.name, "seed": seed, "seconds": seconds,
           "trace": int(trace), "environment": environment()}
    if not trace:
        (workdir / "timed").mkdir()
        res = run_pass(wl, seed, seconds, workdir / "timed", ledger,
                       fixed=False)
        metrics, extra = timed_metrics(res)
        rep["rounds"] = res.rounds
    else:
        (workdir / "untraced").mkdir()
        (workdir / "traced").mkdir()
        untraced = run_pass(wl, seed, seconds, workdir / "untraced", ledger,
                            fixed=True)
        untraced_wall = untraced.wall_s
        del untraced
        tracer = Tracer()
        tracer.install()
        try:
            res = run_pass(wl, seed, seconds, workdir / "traced", ledger,
                           fixed=True)
        finally:
            tracer.uninstall()
        memory = memory_pass(res)
        metrics, extra = layer_metrics(tracer, res, untraced_wall, memory)
        rep["counts"] = {k: metrics[k]["value"] for k in COUNT_KEYS}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{wl.name}-seed{seed}.json.gz")
    rep["detection"] = res.detection
    rep["checks"] = ledger.checks
    rep["failures"] = ledger.failures
    rep["ops_attempted"] = ledger.attempted
    rep["ops_failed_ratio"] = metric(len(ledger.failures) / ledger.attempted, "ratio")
    rep["metrics"] = metrics
    rep["extra_metrics"] = extra
    return rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "provlens").is_dir():
        print(f"perfbench: no provlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rep = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(rep))
    print(json.dumps({
        "correct": not rep["failures"],
        "attempted": rep["ops_attempted"],
        "failed": len(rep["failures"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in rep["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
