"""Command-line front end.

Subcommands mirror the pipeline stages: generate, train, detect,
explain, ablate, report. A JSON config file can override any model,
detector, pipeline, or explainer field; a section or field that its
config does not have is an input error. Exit codes: 0 success,
2 argument/input error, 3 out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .data import (
    default_scenario,
    generate_scenario,
    load_dataset,
    render_log,
    save_dataset,
)
from .detect import (
    DetectorConfig,
    WindowStats,
    link_queues,
    save_alerts,
    score_all_windows,
    span_subgraph,
)
from .fileformat import _excerpt, read_json
from .gnnexplainer import GnnExplainerConfig
from .graph import Relation
from .graphmask import CanonicalEdge, GraphMaskConfig
from .harness import ablate_edge, ablation_csv, baseline_row
from .model import DivergenceError, ModelConfig, TgnModel, score_stream, train
from .pipeline import PipelineConfig, run_pipeline
from .report import (
    ExplanationReport,
    emit_graph_description,
    emit_json,
    emit_markdown,
    parse_report_json,
)
from .vatg import VatgConfig

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_RESOURCE = 3

#: input errors; parse, dataset-format, checkpoint and JSON errors are
#: ValueErrors
_ARGUMENT_ERRORS = (ValueError, TypeError, KeyError, OSError, DivergenceError)


#: the explainers' sections, top-level in a config file although each
#: is a field of PipelineConfig
_EXPLAINER_SECTIONS = ("graphmask", "gnn", "vatg")
#: the top-level sections a config file may hold, each with its config
_SECTION_CONFIGS = {
    "model": ModelConfig,
    "detector": DetectorConfig,
    "pipeline": PipelineConfig,
    "graphmask": GraphMaskConfig,
    "gnn": GnnExplainerConfig,
    "vatg": VatgConfig,
}


def _load_config(path: str | None) -> dict:
    """The config file's sections, each a JSON object of fields of its
    config; ValueError naming the file, the section and any unknown
    field otherwise, whichever sections the command reads."""
    if path is None:
        return {}
    doc = read_json(path, "config file", ValueError)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    for key, value in doc.items():
        if key not in _SECTION_CONFIGS:
            raise ValueError(
                f"config file {path}: unknown section {key!r}; the sections "
                f"are {', '.join(_SECTION_CONFIGS)}"
            )
        if not isinstance(value, dict):
            raise ValueError(
                f"config file {path}: section {key!r} must be a JSON object "
                f"of its fields, got {_excerpt(json.dumps(value))}"
            )
        fields = [f.name for f in dataclasses.fields(_SECTION_CONFIGS[key])
                  if f.name not in _EXPLAINER_SECTIONS]
        for name in value:
            if name in fields:
                continue
            if key == "pipeline" and name in _EXPLAINER_SECTIONS:
                raise ValueError(
                    f"config file {path}: section 'pipeline' holds {name!r}; "
                    f"the explainer sections {', '.join(_EXPLAINER_SECTIONS)} "
                    f"are top-level"
                )
            raise ValueError(
                f"config file {path}: section {key!r} has unknown field "
                f"{_excerpt(name)}; its fields are {', '.join(fields)}"
            )
    return doc


def _section(cfg: dict, name: str):
    return _SECTION_CONFIGS[name](**cfg.get(name, {}))


def _pipeline_config(cfg: dict) -> PipelineConfig:
    return PipelineConfig(
        **{name: _section(cfg, name) for name in _EXPLAINER_SECTIONS},
        **cfg.get("pipeline", {}),
    )


def _write_summary(out_dir: Path, results: list[ExplanationReport], node_map,
                   graph) -> None:
    """Write ``summary.md`` over every window of the results and, given
    the graph, ``window_<n>.gv`` for the n-th window. A window's graph is
    drawn over the report's entities, or its explained node ids when it
    has none."""
    md_parts: list[str] = []
    n = 0
    for result in results:
        for wr in result.windows:
            md_parts.append(emit_markdown(wr, node_map))
            if graph is not None:
                entities = (wr.entities if wr.entities is not None
                            else [node["node_id"] for node in wr.nodes])
                sub = span_subgraph(graph, *wr.window, set(entities))
                (out_dir / f"window_{n}.gv").write_text(
                    emit_graph_description(wr, sub, node_map)
                )
            n += 1
    if not results:
        md_parts.append("No raised alerts; nothing to explain.\n")
    (out_dir / "summary.md").write_text("\n".join(md_parts))


def _detect(model, dataset, det_cfg):
    contexts = score_stream(model, dataset)
    stats = WindowStats.from_benign(model.stats.mu, model.stats.sigma)
    verdicts = score_all_windows(dataset.graph, contexts, stats, det_cfg)
    alerts = link_queues(verdicts, stats, det_cfg)
    return contexts, stats, alerts


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = default_scenario(seed=args.seed)
    dataset = generate_scenario(spec)
    save_dataset(dataset, args.out)
    if args.log:
        Path(args.log).write_text(render_log(dataset))
    print(f"wrote {len(dataset.graph)} events to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    dataset = load_dataset(args.dataset)
    model = train(dataset, _section(cfg, "model"))
    model.save(args.out)
    print(
        f"trained head; benign mu={model.stats.mu:.4f} "
        f"sigma={model.stats.sigma:.4f}; checkpoint at {args.out}"
    )
    return EXIT_OK


def _cmd_detect(args) -> int:
    cfg = _load_config(args.config)
    dataset = load_dataset(args.dataset)
    model = TgnModel.load(args.model)
    det_cfg = _section(cfg, "detector")
    _, _, alerts = _detect(model, dataset, det_cfg)
    save_alerts(alerts, args.out)
    raised = sum(1 for a in alerts if a.raised)
    print(f"{len(alerts)} alert(s), {raised} raised; wrote {args.out}")
    return EXIT_OK


def _cmd_explain(args) -> int:
    cfg = _load_config(args.config)
    dataset = load_dataset(args.dataset)
    model = TgnModel.load(args.model)
    det_cfg = _section(cfg, "detector")
    pipe_cfg = _pipeline_config(cfg)
    contexts, stats, alerts = _detect(model, dataset, det_cfg)
    raised = [a for a in alerts if a.raised]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    node_map = dataset.graph.nodes
    results = []
    for alert in raised:
        result = run_pipeline(model, dataset, alert, stats, pipe_cfg,
                              contexts=contexts)
        for wr in result.windows:
            doc = emit_json(wr, node_map)
            (out_dir / f"explanations_{doc['window']}.json").write_text(
                json.dumps(doc, indent=2) + "\n"
            )
        results.append(result)
    _write_summary(out_dir, results, node_map, dataset.graph)
    n = sum(len(result.windows) for result in results)
    print(f"explained {n} window(s); outputs in {out_dir}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0, got {args.top}")
    cfg = _load_config(args.config)
    dataset = load_dataset(args.dataset)
    model = TgnModel.load(args.model)
    det_cfg = _section(cfg, "detector")
    report = parse_report_json(read_json(args.report, "report file", ValueError))

    _, stats, alerts = _detect(model, dataset, det_cfg)
    t0, t1 = report.window
    raised = [a for a in alerts if a.raised and a.overlaps(t0, t1)]
    if not raised:
        raise ValueError(
            "no raised alert overlaps the report window; nothing to ablate"
        )
    alert = raised[0]

    rows = [baseline_row()]
    for row in report.graphmask_aggregate[: args.top]:
        edge = CanonicalEdge(row["src"], row["dst"], Relation(row["relation"]))
        rows.append(
            ablate_edge(model, dataset, stats, alert, edge, det_cfg,
                        graphmask_score=row["weight"])
        )
    Path(args.out).write_text(ablation_csv(rows))
    print(f"wrote {len(rows)} ablation row(s) to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    graph = None
    node_map: dict = {}
    if args.dataset:
        graph = load_dataset(args.dataset).graph
        node_map = graph.nodes
    windows = [parse_report_json(read_json(path, "report file", ValueError))
               for path in args.json]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_summary(out_dir, [ExplanationReport(windows)], node_map, graph)
    print(f"re-rendered {len(args.json)} report(s) into {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="provlens",
        description="explainable provenance-based intrusion detection",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a labeled scenario")
    g.add_argument("--out", required=True)
    g.add_argument(
        "--seed", type=int, default=7,
        help="scenario seed; stored on the scenario but read by nothing yet: "
             "every duty cycle and session stream is scripted, so every seed "
             "gives the same stream",
    )
    g.add_argument("--log", help="also write the raw text log here")
    g.set_defaults(fn=_cmd_generate)

    t = sub.add_parser("train", help="fit the model on a dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.set_defaults(fn=_cmd_train)

    d = sub.add_parser("detect", help="score a dataset and emit alerts")
    d.add_argument("--dataset", required=True)
    d.add_argument("--model", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--config")
    d.set_defaults(fn=_cmd_detect)

    e = sub.add_parser("explain", help="explain raised alerts")
    e.add_argument("--dataset", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--out-dir", required=True)
    e.add_argument("--config")
    e.set_defaults(fn=_cmd_explain)

    a = sub.add_parser("ablate", help="edge-ablation table from a report")
    a.add_argument("--dataset", required=True)
    a.add_argument("--model", required=True)
    a.add_argument("--report", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--top", type=int, default=3,
                   help="number of top GraphMask aggregate edges to ablate; "
                        "0 writes the baseline row only")
    a.add_argument("--config")
    a.set_defaults(fn=_cmd_ablate)

    r = sub.add_parser("report", help="re-render report JSON")
    r.add_argument("--out-dir", required=True)
    r.add_argument("--dataset")
    r.add_argument("json", nargs="+")
    r.set_defaults(fn=_cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except _ARGUMENT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
