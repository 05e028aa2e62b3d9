"""The benchmark still finds every provlens name it reads.

perfbench/spans.py replaces provlens functions and methods by name, on
the modules where callers look them up, and perfbench/run.py records
config fields in its environment block. A refactor that drops or
renames one of them would otherwise fail only in benchmark runs.
"""

import importlib.util
import os
from pathlib import Path

import provlens.model
import provlens.pipeline
from provlens.data import LabeledDataset
from provlens.gnnexplainer import GnnExplainerConfig
from provlens.graph import TruthLabel
from provlens.graphmask import GraphMaskConfig
from provlens.model import ModelConfig, TgnModel
from provlens.pipeline import PipelineConfig
from provlens.vatg import VatgConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(tiny_graph):
    spans = _load("spans")
    targets = [(owner, attr) for owner, attr, *_ in spans.SPANS + spans.COUNTED]
    originals = [vars(owner)[attr] for owner, attr in targets]
    dataset = LabeledDataset(tiny_graph, [TruthLabel.BENIGN] * len(tiny_graph),
                             (0, 0))

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr), raw in zip(targets, originals))
        contexts = provlens.model.score_stream(TgnModel(ModelConfig()), dataset)
    finally:
        tracer.uninstall()

    assert all(vars(owner)[attr] is raw
               for (owner, attr), raw in zip(targets, originals))
    assert len(contexts) == len(tiny_graph)
    assert len(tracer.named("model.score_stream")) == 1
    # the column-wise replay makes no per-event update call, and
    # neighborhoods are built as arrays
    assert tracer.count("model.replay_update") == 0
    assert len(tracer.named("graph.extract_context")) == 0

    # at every hop count: walks past one hop come from the same builder
    tracer = spans.Tracer()
    tracer.install()
    try:
        provlens.model.score_stream(TgnModel(ModelConfig(hops=2)), dataset)
    finally:
        tracer.uninstall()
    assert len(tracer.named("graph.extract_context")) == 0


def test_tracer_notes_a_pipeline_run(model, dataset, stats, attack_alert,
                                     contexts):
    """spans.py's note on a traced run_pipeline reads the report's
    ``warnings`` constant."""
    spans = _load("spans")
    config = PipelineConfig(top_k_events=2, top_m_nodes=1,
                            graphmask=GraphMaskConfig(epochs=5),
                            gnn=GnnExplainerConfig(epochs=5),
                            vatg=VatgConfig(epochs=3, mc_samples=2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = provlens.pipeline.run_pipeline(model, dataset, attack_alert,
                                                stats, config, contexts=contexts)
    finally:
        tracer.uninstall()

    (span,) = tracer.named("pipeline.run_pipeline")
    assert span[5] == {
        "windows": len(result.windows),
        "skipped": sum(len(w.skipped) for w in result.windows),
        "degraded": False,
    }


def test_run_environment_reads_pipeline_config():
    env = _load("run").environment()
    assert env["parallel_windows"] == 1
    assert env["nproc"] == os.cpu_count()
