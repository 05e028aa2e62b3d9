"""The benchmark's tracer still finds every name it wraps.

perfbench/spans.py replaces provlens functions and methods by name, on
the modules where callers look them up. A refactor that drops or
renames one of them would otherwise fail only in traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import provlens.model
from provlens.data import LabeledDataset
from provlens.graph import TruthLabel
from provlens.model import ModelConfig, TgnModel

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(tiny_graph):
    spans = _load_spans()
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
    assert tracer.count("model.replay_update") == len(tiny_graph)
    assert len(tracer.named("graph.extract_context")) == len(tiny_graph)
