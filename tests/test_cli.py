"""Command-line interface: subcommands, outputs, and exit codes."""

import base64
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import provlens
from provlens.cli import EXIT_ARGUMENT, EXIT_OK, EXIT_RESOURCE, main
from provlens.data import load_dataset, parse_log, save_dataset
from provlens.gnnexplainer import GnnExplainerConfig
from provlens.graphmask import GraphMaskConfig
from provlens.model import ModelConfig
from provlens.pipeline import PipelineConfig
from provlens.report import parse_report_json, validate_document
from provlens.vatg import VatgConfig

from conftest import v1_document
from test_masks import _BOUNDED, _edges

QUICK_CONFIG = {
    "pipeline": {"top_k_events": 5, "top_m_nodes": 3},
    "graphmask": {"epochs": 10},
    "gnn": {"epochs": 10},
    "vatg": {"epochs": 5, "mc_samples": 2},
}


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory, dataset, model):
    d = tmp_path_factory.mktemp("cli")
    save_dataset(dataset, d / "ds.json")
    model.save(d / "model.json")
    (d / "quick.json").write_text(json.dumps(QUICK_CONFIG))
    return d


@pytest.fixture(scope="module")
def explain_dir(cli_dir):
    out = cli_dir / "explain"
    rc = main([
        "explain", "--dataset", str(cli_dir / "ds.json"),
        "--model", str(cli_dir / "model.json"),
        "--out-dir", str(out),
        "--config", str(cli_dir / "quick.json"),
    ])
    assert rc == EXIT_OK
    return out


def test_generate_round_trips(tmp_path, dataset):
    out = tmp_path / "gen.json"
    log = tmp_path / "gen.log"
    rc = main(["generate", "--seed", "7", "--out", str(out),
               "--log", str(log)])
    assert rc == EXIT_OK
    assert load_dataset(out) == dataset
    parsed = parse_log(log.read_text().splitlines())
    assert len(parsed.graph) == len(dataset.graph)


def test_train_writes_checkpoint(cli_dir, tmp_path):
    out = tmp_path / "ckpt.json"
    rc = main(["train", "--dataset", str(cli_dir / "ds.json"),
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["stats"]["sigma"] > 0


def test_detect_emits_alerts(cli_dir, tmp_path, dataset):
    out = tmp_path / "alerts.json"
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    raised = [a for a in doc["alerts"] if a["raised"]]
    assert raised
    t0, t1 = dataset.attack_interval
    assert any(a["t_start"] <= t0 and t1 <= a["t_end"] for a in raised)


def test_explain_outputs(explain_dir):
    jsons = sorted(explain_dir.glob("explanations_*.json"))
    assert jsons
    for p in jsons:
        validate_document(json.loads(p.read_text()))
    assert (explain_dir / "summary.md").exists()
    assert list(explain_dir.glob("window_*.gv"))
    assert "## Window" in (explain_dir / "summary.md").read_text()


def test_ablate_outputs_csv(cli_dir, explain_dir, tmp_path, dataset):
    # pick the report window covering the attack
    t0, _ = dataset.attack_interval
    target = None
    for p in explain_dir.glob("explanations_*.json"):
        w0, w1 = (int(x) for x in json.loads(p.read_text())["window"].split("-"))
        if w0 <= t0 < w1:
            target = p
    assert target is not None
    out = tmp_path / "ablation.csv"
    rc = main(["ablate", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--report", str(target),
               "--out", str(out), "--top", "1"])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "removed_edge,graphmask_score,delta_anomaly_pct,alert_still_raised"
    assert lines[1].startswith("NONE,0.000000,0.00,true")
    assert len(lines) == 3


def test_report_rerenders(cli_dir, explain_dir, tmp_path):
    jsons = sorted(explain_dir.glob("explanations_*.json"))
    out = tmp_path / "rerender"
    rc = main(["report", "--out-dir", str(out),
               "--dataset", str(cli_dir / "ds.json"),
               *[str(p) for p in jsons]])
    assert rc == EXIT_OK
    assert (out / "summary.md").exists()
    assert (out / "window_0.gv").exists()


def test_report_reproduces_explain_outputs(cli_dir, explain_dir, tmp_path):
    """report --dataset on explain's documents writes summary.md and every
    window_<n>.gv byte for byte as explain did."""
    jsons = sorted(explain_dir.glob("explanations_*.json"),
                   key=lambda p: int(p.stem.split("_")[1].split("-")[0]))
    out = tmp_path / "rerender"
    rc = main(["report", "--out-dir", str(out),
               "--dataset", str(cli_dir / "ds.json"),
               *[str(p) for p in jsons]])
    assert rc == EXIT_OK
    written = sorted(p.name for p in explain_dir.glob("window_*.gv"))
    assert written == sorted(p.name for p in out.glob("window_*.gv"))
    assert len(written) == len(jsons)
    for name in ["summary.md", *written]:
        assert (out / name).read_bytes() == (explain_dir / name).read_bytes(), name


def test_report_reads_explain_outputs_with_negative_windows(cli_dir, dataset, tmp_path):
    """On a stream whose timestamps are all negative, report and ablate
    read the documents explain wrote, and report reproduces its files."""
    doc = v1_document(dataset)
    shift = -4 * 3600 * 10**9
    for event in doc["events"]:
        event[3] += shift
    doc["attack_interval"] = [t + shift for t in doc["attack_interval"]]
    ds = tmp_path / "ds.json"
    ds.write_text(json.dumps(doc))
    out = tmp_path / "explain"
    assert main(["explain", "--dataset", str(ds),
                 "--model", str(cli_dir / "model.json"), "--out-dir", str(out),
                 "--config", str(cli_dir / "quick.json")]) == EXIT_OK
    # in the order explain wrote them: by window start
    windows = {p: parse_report_json(json.loads(p.read_text())).window
               for p in out.glob("explanations_*.json")}
    jsons = sorted(windows, key=windows.get)
    assert jsons and all(t1 < 0 for _, t1 in windows.values())
    rerender = tmp_path / "rerender"
    assert main(["report", "--out-dir", str(rerender), "--dataset", str(ds),
                 *map(str, jsons)]) == EXIT_OK
    written = sorted(p.name for p in out.glob("window_*.gv"))
    assert written == sorted(p.name for p in rerender.glob("window_*.gv"))
    for name in ["summary.md", *written]:
        assert (rerender / name).read_bytes() == (out / name).read_bytes(), name
    assert main(["ablate", "--dataset", str(ds), "--model", str(cli_dir / "model.json"),
                 "--report", str(jsons[0]), "--out", str(tmp_path / "a.csv"),
                 "--top", "1"]) == EXIT_OK


def test_missing_input_is_argument_error(cli_dir, tmp_path):
    rc = main(["detect", "--dataset", str(tmp_path / "nope.json"),
               "--model", str(cli_dir / "model.json"),
               "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT


@pytest.mark.parametrize("command", [
    ["train", "--dataset", "{dir}", "--out", "{out}"],
    ["detect", "--dataset", "{ds}", "--model", "{dir}", "--out", "{out}"],
    ["train", "--dataset", "{ds}", "--out", "{out}", "--config", "{dir}"],
    ["report", "--out-dir", "{out}", "{dir}"],
])
def test_unreadable_input_path_is_argument_error(cli_dir, tmp_path, command):
    """A directory where an input file belongs is an input error."""
    paths = {"dir": tmp_path, "ds": cli_dir / "ds.json", "out": tmp_path / "out"}
    rc = main([arg.format(**paths) for arg in command])
    assert rc == EXIT_ARGUMENT


def test_corrupt_checkpoint_is_argument_error(cli_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(bad),
               "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT


def test_v1_checkpoint_is_argument_error(cli_dir, tmp_path):
    doc = json.loads((cli_dir / "model.json").read_text())
    doc.update(version=1, memory={}, last_update={}, last_replay_ts=None)
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(old),
               "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "a.json").exists()


def test_bad_config_is_argument_error(cli_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"time_dim": 7}}')
    rc = main(["train", "--dataset", str(cli_dir / "ds.json"),
               "--out", str(tmp_path / "m.json"),
               "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT


@pytest.mark.parametrize("config_text", [
    '{"vatg": {"learning_rate": NaN}}',
    '{"gnn": {"learning_rate": Infinity}}',
    '{"detector": {"alert_threshold_factor": NaN}}',
    '{"graphmask": {"learning_rate": 100}}',
    '{"gnn": {"learning_rate": 100}}',
])
def test_non_finite_explainer_config_is_argument_error(cli_dir, tmp_path,
                                                       config_text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    out = tmp_path / "x"
    rc = main(["explain", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--out-dir", str(out), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert not list(out.glob("explanations_*.json"))


@pytest.mark.parametrize("command", [
    ["train", "--out", "{out}"],
    ["detect", "--model", "{model}", "--out", "{out}"],
    ["explain", "--model", "{model}", "--out-dir", "{out}"],
])
def test_unknown_config_section_is_argument_error(cli_dir, tmp_path, capsys,
                                                  command):
    """A misnamed section (GNNExplainer's is "gnn") used to be ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gnnexplainer": {"top_k": true}}')
    paths = {"model": cli_dir / "model.json", "out": tmp_path / "out"}
    rc = main([arg.format(**paths) for arg in command]
              + ["--dataset", str(cli_dir / "ds.json"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert "'gnnexplainer'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SECTION_READERS = [
    ("model", ["train", "--out", "{out}"]),
    ("detector", ["detect", "--model", "{model}", "--out", "{out}"]),
    ("detector", ["ablate", "--model", "{model}", "--report", "{report}",
                  "--out", "{out}"]),
    ("pipeline", ["explain", "--model", "{model}", "--out-dir", "{out}"]),
    ("graphmask", ["explain", "--model", "{model}", "--out-dir", "{out}"]),
    ("gnn", ["explain", "--model", "{model}", "--out-dir", "{out}"]),
    ("vatg", ["explain", "--model", "{model}", "--out-dir", "{out}"]),
]


def _run_with_config(cli_dir, explain_dir, tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    paths = {"model": cli_dir / "model.json", "out": tmp_path / "out",
             "report": next(explain_dir.glob("explanations_*.json"))}
    rc = main([arg.format(**paths) for arg in command]
              + ["--dataset", str(cli_dir / "ds.json"), "--config", str(cfg)])
    return rc, cfg


@pytest.mark.parametrize("value", [5, None, [1], "x"])
@pytest.mark.parametrize("section, command", _SECTION_READERS,
                         ids=[f"{s}-{c[0]}" for s, c in _SECTION_READERS])
def test_section_that_is_no_object_names_file_and_section(
        cli_dir, explain_dir, tmp_path, capsys, section, command, value):
    """A section must be a JSON object; before, a number, null or list
    exited 2 with Python's "argument after ** must be a mapping" and no
    file name."""
    rc, cfg = _run_with_config(cli_dir, explain_dir, tmp_path, command,
                               {section: value})
    err = capsys.readouterr().err
    assert rc == EXIT_ARGUMENT
    assert str(cfg) in err and f"section {section!r}" in err
    assert "mapping" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["graphmask", "gnn", "vatg"])
def test_explainer_section_inside_pipeline_is_named(cli_dir, explain_dir,
                                                    tmp_path, capsys, section):
    """The explainer sections are top-level; nested in "pipeline", one
    used to exit with "got multiple values for keyword argument"."""
    rc, cfg = _run_with_config(
        cli_dir, explain_dir, tmp_path,
        ["explain", "--model", "{model}", "--out-dir", "{out}"],
        {"pipeline": {section: {"epochs": 5}}})
    err = capsys.readouterr().err
    assert rc == EXIT_ARGUMENT
    assert str(cfg) in err and "section 'pipeline'" in err
    assert repr(section) in err and "top-level" in err
    assert "multiple values" not in err
    assert not (tmp_path / "out").exists()


def test_malformed_section_through_python_m(cli_dir, tmp_path):
    """The same message, and no traceback, from ``python -m provlens``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": 5}')
    src = str(Path(provlens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "provlens", "train", "--dataset",
         str(cli_dir / "ds.json"), "--out", str(tmp_path / "out"),
         "--config", str(cfg)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120)
    assert proc.returncode == EXIT_ARGUMENT
    assert str(cfg) in proc.stderr and "section 'model'" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config_text", [
    '{"graphmask": {"epochs": 2.5}}',
    '{"graphmask": {"epochs": true}}',
    '{"gnn": {"epochs": 10.0}}',
    '{"gnn": {"top_k": true}}',
    '{"vatg": {"mc_samples": 2.5}}',
    '{"vatg": {"mc_samples": true}}',
    '{"vatg": {"sparsity_top_k": 1e9}}',
    '{"vatg": {"seed": 1.5}}',
    '{"vatg": {"seed": -1}}',
])
def test_explainer_integer_field_is_argument_error(cli_dir, tmp_path, capsys,
                                                   config_text):
    """Each is rejected with the field's name before detection runs."""
    (field,) = next(iter(json.loads(config_text).values()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    rc = main(["explain", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--out-dir", str(out), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config_text", [
    (["detect", "--model", "{model}", "--out", "{out}"],
     '{"detector": {"window_minutes": 1e300}}'),
    (["train", "--out", "{out}"], '{"model": {"epochs": -3}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_m_nodes": 0}}'),
    (["train", "--out", "{out}"], '{"model": {"memory_dim": 0}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"vatg": {"mc_samples": 0}}'),
    (["train", "--out", "{out}"], '{"model": {"horizon": 2.5}}'),
    (["train", "--out", "{out}"], '{"model": {"seed": -1}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_k_events": 2.5}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_k_events": 0}}'),
    (["detect", "--model", "{model}", "--out", "{out}"],
     '{"detector": {"min_suspicious_nodes": 1.5}}'),
])
def test_config_value_that_does_nothing_useful_is_argument_error(
        cli_dir, tmp_path, capsys, command, config_text):
    """A known field with a value its range or type rule rejects exits 2
    on that rule, before any output."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    paths = {"model": cli_dir / "model.json", "out": tmp_path / "out"}
    rc = main([arg.format(**paths) for arg in command]
              + ["--dataset", str(cli_dir / "ds.json"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "out").exists()
    captured = capsys.readouterr()
    assert not captured.out and "unknown field" not in captured.err


@pytest.mark.parametrize("command, config_text", [
    (["train", "--out", "{out}"], '{"model": {"horizon": 2.5}}'),
    (["train", "--out", "{out}"], '{"model": {"seed": -1}}'),
    (["train", "--out", "{out}"], '{"model": {"learning_rate": "0.01"}}'),
    (["detect", "--model", "{model}", "--out", "{out}"],
     '{"detector": {"min_suspicious_nodes": 1.5}}'),
    (["detect", "--model", "{model}", "--out", "{out}"],
     '{"detector": {"window_loss_budget": true}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_k_events": 2.5}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_m_nodes": 2.5}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_m_nodes": 1e9}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"vatg": {"learning_rate": true}}'),
])
def test_ill_typed_config_field_is_named(cli_dir, tmp_path, capsys, command,
                                         config_text):
    """An ill-typed value exits 2 with the field's name before any
    output is written."""
    (field,) = next(iter(json.loads(config_text).values()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    paths = {"model": cli_dir / "model.json", "out": tmp_path / "out"}
    rc = main([arg.format(**paths) for arg in command]
              + ["--dataset", str(cli_dir / "ds.json"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SECTIONS = {ModelConfig: "model", PipelineConfig: "pipeline",
             GraphMaskConfig: "graphmask", GnnExplainerConfig: "gnn",
             VatgConfig: "vatg"}


@pytest.mark.parametrize("cls, field, sign, bound",
                         [p for p in _BOUNDED if p.values[0] in _SECTIONS])
def test_out_of_range_config_value_names_its_field(
        cli_dir, explain_dir, tmp_path, capsys, cls, field, sign, bound):
    """Every value outside a field's declared range exits 2 naming the
    field and its bound, before any output."""
    section = _SECTIONS[cls]
    command = dict(_SECTION_READERS)[section]
    for value in _edges(cls, field, sign, bound)[1]:
        rc, _ = _run_with_config(cli_dir, explain_dir, tmp_path, command,
                                 {section: {field: value}})
        assert rc == EXIT_ARGUMENT
        captured = capsys.readouterr()
        assert f"{field} must be {sign} {bound}, got {value!r}" in captured.err
        assert not captured.out and not (tmp_path / "out").exists()


#: every command that reads a config file
_CONFIG_COMMANDS = {
    "train": ["train", "--out", "{out}"],
    "detect": ["detect", "--model", "{model}", "--out", "{out}"],
    "explain": ["explain", "--model", "{model}", "--out-dir", "{out}"],
    "ablate": ["ablate", "--model", "{model}", "--report", "{report}",
               "--out", "{out}"],
}
_UNKNOWN_FIELDS = [
    (section, "bogus", name)
    for section in ("model", "detector", "pipeline", "graphmask", "gnn", "vatg")
    for name in _CONFIG_COMMANDS
] + [("detector", "window_ns", "detect"), ("pipeline", "memory_budget", "explain"),
     ("pipeline", "parallel_windows", "explain")]


@pytest.mark.parametrize(
    "section, field, command",
    [(s, f, _CONFIG_COMMANDS[c]) for s, f, c in _UNKNOWN_FIELDS],
    ids=[f"{s if f == 'bogus' else f}-{c}" for s, f, c in _UNKNOWN_FIELDS])
def test_unknown_config_field_names_file_section_and_field(
        cli_dir, explain_dir, tmp_path, capsys, section, field, command):
    """A field its config does not have (a derived field such as
    ``window_ns`` included) exits 2 naming the file, the section and the
    field, before any output; every command checks every section, read
    or not. Before, train printed Python's "unexpected keyword argument" and
    detect ignored the field."""
    rc, cfg = _run_with_config(cli_dir, explain_dir, tmp_path, command,
                               {section: {field: 5}})
    err = capsys.readouterr().err
    assert rc == EXIT_ARGUMENT
    assert str(cfg) in err and f"section {section!r}" in err
    assert f"unknown field {field!r}" in err
    assert "keyword" not in err
    assert not (tmp_path / "out").exists()


def test_out_of_memory_is_exit_3(cli_dir, tmp_path, capsys, monkeypatch):
    """A MemoryError anywhere in a command exits 3 with one line on
    stderr and no traceback."""
    def exhausted(path):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr("provlens.cli.load_dataset", exhausted)
    rc = main(["train", "--dataset", str(cli_dir / "ds.json"),
               "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_RESOURCE
    assert err.count("\n") == 1 and err.startswith("resource error: ")
    assert "8.00 GiB" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_non_finite_checkpoint_is_argument_error(cli_dir, tmp_path):
    doc = json.loads((cli_dir / "model.json").read_text())
    We = np.frombuffer(base64.b64decode(doc["parameters"]["We"]), "<f8").copy()
    We[0] = float("nan")
    doc["parameters"]["We"] = base64.b64encode(We.tobytes()).decode("ascii")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(bad), "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "a.json").exists()


def _edited(section, key, value=None):
    def edit(doc):
        target = doc if section is None else doc[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return edit


@pytest.mark.parametrize("edit, field", [
    (_edited(None, "stats", {}), "stats"),
    (_edited("stats", "mu", True), "mu"),
    (_edited("config", "horizon"), "horizon"),
    (_edited(None, "stats"), "stats"),
    (_edited(None, "parameters"), "parameters"),
    (_edited("parameters", "We"), "We"),
    (_edited("config", "depth", 3), "depth"),
], ids=["empty-stats", "bool-mu", "no-horizon", "no-stats", "no-parameters",
        "no-We", "unknown-config-key"])
def test_malformed_checkpoint_is_named_argument_error(cli_dir, tmp_path, capsys,
                                                      edit, field):
    """A checkpoint that used to load as silent garbage or end in a bare
    KeyError or TypeError exits 2 with one line naming the field and the
    file, and writes nothing."""
    doc = json.loads((cli_dir / "model.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(bad), "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err and str(bad) in err
    assert not (tmp_path / "a.json").exists()


def test_v2_checkpoint_is_argument_error(cli_dir, model, tmp_path, capsys):
    """A version-2 file, parameters as nested lists, exits 2 naming its
    version."""
    doc = json.loads((cli_dir / "model.json").read_text())
    doc.update(version=2, parameters={name: getattr(model, name).tolist()
                                      for name in ("We", "be", "Wo", "bo")})
    old = tmp_path / "v2.json"
    old.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(old), "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
    assert "version 2" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


def test_diverging_explainer_reports_one_error_and_no_warnings(cli_dir, tmp_path,
                                                               capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"graphmask": {"learning_rate": 100}}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["explain", "--dataset", str(cli_dir / "ds.json"),
                   "--model", str(cli_dir / "model.json"),
                   "--out-dir", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite" in err


def test_ablate_top_is_not_negative(cli_dir, explain_dir, tmp_path):
    report = sorted(explain_dir.glob("explanations_*.json"))[0]
    out = tmp_path / "ablation.csv"
    args = ["ablate", "--dataset", str(cli_dir / "ds.json"),
            "--model", str(cli_dir / "model.json"),
            "--report", str(report), "--out", str(out), "--top"]
    assert main(args + ["-1"]) == EXIT_ARGUMENT
    assert not out.exists()
    assert main(args + ["0"]) == EXIT_OK
    assert out.read_text().splitlines() == [
        "removed_edge,graphmask_score,delta_anomaly_pct,alert_still_raised",
        "NONE,0.000000,0.00,true",
    ]


def test_non_object_dataset_is_argument_error(tmp_path):
    bad = tmp_path / "ds.json"
    bad.write_text("[1, 2]")
    rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_ARGUMENT


def test_short_labels_dataset_is_argument_error(cli_dir, dataset, tmp_path):
    doc = v1_document(dataset)
    doc["labels"] = doc["labels"][:-1]
    bad = tmp_path / "ds.json"
    bad.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(bad),
               "--model", str(cli_dir / "model.json"),
               "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("command", ["train", "detect"])
def test_reversed_attack_interval_is_argument_error(cli_dir, tmp_path, capsys, command):
    """With the interval's bounds swapped, train would fit the head and
    the benign statistics on the attack's own events."""
    doc = json.loads((cli_dir / "ds.json").read_text())
    t0, t1 = doc["attack_interval"]
    assert t0 < t1
    doc["attack_interval"] = [t1, t0]
    bad = tmp_path / "ds.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    args = [command, "--dataset", str(bad), "--out", str(out)]
    if command == "detect":
        args += ["--model", str(cli_dir / "model.json")]
    assert main(args) == EXIT_ARGUMENT
    assert "attack_interval" in capsys.readouterr().err
    assert not out.exists()


def test_report_schema_failure_is_argument_error(tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text('{"window": "1-2"}')
    rc = main(["report", "--out-dir", str(tmp_path / "out"), str(bad)])
    assert rc == EXIT_ARGUMENT


@pytest.mark.parametrize("path, name", [
    (("entities", 0), "entities[0]"),
    (("nodes", 0, "node_id"), "nodes[0].node_id"),
    (("graphmask", "aggregate", 0, "src"), "graphmask.aggregate[0].src"),
    (("nodes", 0, "gnn", 0, "top_edges", 0, "dst"), "nodes[0].gnn[0].top_edges[0].dst"),
])
def test_report_node_id_outside_int64_is_argument_error(
        cli_dir, explain_dir, tmp_path, capsys, path, name):
    """A report holding a node id past int64 exits 2 with one line naming
    the field; before, ``report --dataset`` crashed with an OverflowError
    traceback on such an entity and rendered the other ids."""
    src = min(explain_dir.glob("explanations_*.json"))
    doc = json.loads(src.read_text())
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = 2**70
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(doc))
    rc = main(["report", "--out-dir", str(tmp_path / "out"),
               "--dataset", str(cli_dir / "ds.json"), str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_ARGUMENT
    assert err.count("\n") == 1 and str(2**70) in err
    assert f"schema at $.{name}: " in err


def test_ablate_schema_failure_is_argument_error(cli_dir, tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text('{"window": "1-2"}')
    rc = main(["ablate", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--report", str(bad), "--out", str(tmp_path / "a.csv")])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "a.csv").exists()


#: an integer literal past Python's 4,300-digit int-conversion limit
_HUGE_INT = "1" * 5000


def _with_huge_int(doc, *keys) -> str:
    """``doc`` as JSON text with the value at ``keys`` replaced by the
    bare literal _HUGE_INT (``json.dumps`` cannot write it)."""
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = "HUGE-INT"
    return json.dumps(doc).replace('"HUGE-INT"', _HUGE_INT)


@pytest.mark.parametrize("kind", ["config", "dataset", "checkpoint",
                                  "ablate report", "report"])
def test_json_input_with_an_oversized_integer_is_named(cli_dir, explain_dir,
                                                       tmp_path, capsys, kind):
    """json.loads refuses an integer literal of more than 4,300 digits
    with a ValueError that names no file; every JSON input names its
    file and exits 2."""
    report = sorted(explain_dir.glob("explanations_*.json"))[0]
    ds, model = cli_dir / "ds.json", cli_dir / "model.json"
    bad = tmp_path / f"huge-{kind.replace(' ', '-')}.json"
    if kind == "config":
        bad.write_text(_with_huge_int({"model": {"seed": 0}}, "model", "seed"))
    elif kind == "dataset":
        bad.write_text(_with_huge_int(json.loads(ds.read_text()),
                                      "attack_interval", 0))
    elif kind == "checkpoint":
        bad.write_text(_with_huge_int(json.loads(model.read_text()),
                                      "config", "seed"))
    else:
        bad.write_text(_with_huge_int(json.loads(report.read_text()),
                                      "num_events"))
    out = tmp_path / "out"
    args = {
        "config": ["train", "--dataset", str(ds), "--out", str(out),
                   "--config", str(bad)],
        "dataset": ["train", "--dataset", str(bad), "--out", str(out)],
        "checkpoint": ["detect", "--dataset", str(ds), "--model", str(bad),
                       "--out", str(out)],
        "ablate report": ["ablate", "--dataset", str(ds), "--model", str(model),
                          "--report", str(bad), "--out", str(out)],
        "report": ["report", "--out-dir", str(out), str(report), str(bad)],
    }[kind]
    assert main(args) == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert str(bad) in err and "4300" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_negative_gnn_penalty_is_argument_error(cli_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gnn": {"sparsity_weight": -0.001}}')
    rc = main(["explain", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--out-dir", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT


# ----------------------------------------------------------------------
# fuzzed dataset files: every document below is malformed by
# construction, so the CLI must exit 2 on each and never raise
# ----------------------------------------------------------------------

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_not_int = _scalars.filter(lambda v: type(v) is not int)


def _base_doc():
    return {
        "version": 1,
        "nodes": [{"id": 0, "kind": "PROCESS", "label": "sh"},
                  {"id": 1, "kind": "FILE", "label": "/x"},
                  {"id": 2, "kind": "SOCKET", "label": "10.0.0.1:80"}],
        "events": [[0, 1, "OPEN", 1000], [0, 1, "READ", 2000],
                   [0, 2, "SEND", 3000]],
        "labels": ["BENIGN", "BENIGN", "MALICIOUS"],
        "attack_interval": [3000, 3000],
    }


@st.composite
def _malformed_doc(draw):
    """A JSON-ready value that load_dataset must reject."""
    doc = _base_doc()
    kind = draw(st.sampled_from([
        "not-object", "drop-key", "version", "scalar-field", "node", "event",
        "labels", "interval", "order",
    ]))
    if kind == "not-object":
        return draw(_scalars | st.lists(_json, max_size=4))
    if kind == "drop-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "version":
        doc["version"] = draw(_json.filter(lambda v: v != 1))
    elif kind == "scalar-field":
        key = draw(st.sampled_from(["nodes", "events", "labels", "attack_interval"]))
        doc[key] = draw(_scalars)
    elif kind == "node":
        node = doc["nodes"][draw(st.integers(0, 2))]
        field = draw(st.sampled_from(["id", "kind", "label"]))
        node[field] = draw({
            "id": _not_int,
            "kind": _json.filter(lambda v: v not in ("PROCESS", "FILE", "SOCKET")),
            "label": _json.filter(lambda v: not isinstance(v, str)) | st.just(""),
        }[field])
    elif kind == "event":
        event = doc["events"][draw(st.integers(0, 2))]
        slot = draw(st.integers(0, 4))
        if slot == 4:
            event.append(draw(_json))                 # five fields
        elif draw(st.booleans()):
            del event[slot]                           # three fields
        elif slot < 2:
            event[slot] = draw(_not_int | st.integers(3, 10**6))  # unknown node
        elif slot == 2:
            event[slot] = draw(_json.filter(lambda v: v not in [r.value for r in
                                                                provlens.Relation]))
        else:
            event[slot] = draw(_not_int)
    elif kind == "labels":
        if draw(st.booleans()):
            doc["labels"] = doc["labels"][:draw(st.integers(0, 2))]
        else:
            doc["labels"].append(draw(st.sampled_from(["BENIGN", "UNKNOWN"])))
    elif kind == "interval":
        doc["attack_interval"] = draw(
            st.lists(st.integers(), max_size=4).filter(lambda v: len(v) != 2)
            | st.tuples(_not_int, st.integers()).map(list))
    else:
        doc["events"][2][3] = draw(st.integers(-10**6, 1999))  # before its predecessor
    return doc


@settings(max_examples=150, deadline=None)
@given(_malformed_doc(), st.sampled_from(["train", "detect"]))
@example([1, 2], "train")
@example({**_base_doc(), "labels": ["BENIGN"]}, "detect")
# an object with one key per event, which is not read as the list of its keys
@example({**_base_doc(), "labels": dict.fromkeys(["BENIGN", "UNKNOWN", "MALICIOUS"], 1)},
         "train")
def test_fuzzed_dataset_files_exit_2(cli_dir, tmp_path_factory, doc, command):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "ds.json"
    path.write_text(json.dumps(doc))
    out = work / "out.json"
    args = [command, "--dataset", str(path), "--out", str(out)]
    if command == "detect":
        args += ["--model", str(cli_dir / "model.json")]
    assert main(args) == EXIT_ARGUMENT
    assert not out.exists()


def _b64(values, dtype):
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def _base_v2_doc():
    """_base_doc in format version 2."""
    return {
        "version": 2,
        "nodes": {"id": _b64([0, 1, 2], "<i8"), "kind": _b64([0, 1, 2], "u1"),
                  "label": ["sh", "/x", "10.0.0.1:80"]},
        "events": {"src": _b64([0, 0, 0], "<i8"), "dst": _b64([1, 1, 2], "<i8"),
                   "timestamp": _b64([1000, 2000, 3000], "<i8"),
                   "relation": _b64([3, 0, 6], "u1"), "label": _b64([0, 0, 1], "u1")},
        "attack_interval": [3000, 3000],
    }


#: (group, column) -> (dtype, the largest valid code, or None)
_V2_COLUMNS = {("nodes", "id"): ("<i8", None), ("nodes", "kind"): ("u1", 2),
               ("events", "src"): ("<i8", None), ("events", "dst"): ("<i8", None),
               ("events", "timestamp"): ("<i8", None),
               ("events", "relation"): ("u1", 8), ("events", "label"): ("u1", 2)}


def test_base_documents_load_equal(tmp_path):
    """The fuzzers' version-1 and version-2 bases are one valid dataset."""
    paths = tmp_path / "v1.json", tmp_path / "v2.json"
    for path, doc in zip(paths, (_base_doc(), _base_v2_doc())):
        path.write_text(json.dumps(doc))
    assert load_dataset(paths[0]) == load_dataset(paths[1])


@st.composite
def _malformed_v2_doc(draw):
    """A version-2 document with one field broken."""
    doc = _base_v2_doc()
    kind = draw(st.sampled_from([
        "drop-key", "extra-key", "not-string", "not-base64", "partial-item", "count",
        "code", "label", "interval", "endpoint", "decreasing", "repeated-id", "version",
    ]))
    group, name = draw(st.sampled_from(sorted(_V2_COLUMNS)))
    dtype, top_code = _V2_COLUMNS[group, name]
    values = np.frombuffer(base64.b64decode(doc[group][name]), dtype).tolist()
    at = draw(st.integers(0, 2))
    if kind in ("drop-key", "extra-key"):
        target = draw(st.sampled_from([doc, doc["nodes"], doc["events"]]))
        if kind == "drop-key":
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            target[draw(st.text(max_size=6).filter(lambda k: k not in target))] = \
                draw(_json)
    elif kind == "not-string":
        if draw(st.booleans()):
            doc[group][name] = draw(_json.filter(lambda v: not isinstance(v, str)))
        else:
            doc["nodes"]["label"] = draw(_json.filter(
                lambda v: not (isinstance(v, list) and len(v) == 3)))
    elif kind == "not-base64":
        text = draw(st.text(max_size=8))
        doc[group][name] = text[:4] + draw(st.sampled_from("!.-_ \n\u00e9")) + text[4:]
    elif kind == "partial-item":
        # an int64 column whose byte count is not a multiple of 8
        group, name = draw(st.sampled_from([k for k, v in _V2_COLUMNS.items()
                                            if v[0] == "<i8"]))
        doc[group][name] = base64.b64encode(draw(st.binary(min_size=1, max_size=23).filter(
            lambda b: len(b) % 8))).decode("ascii")
    elif kind == "count":
        values = values[:at] if draw(st.booleans()) else values + values[:1]
        doc[group][name] = _b64(values, dtype)
    elif kind == "code":
        group, name = draw(st.sampled_from([k for k, v in _V2_COLUMNS.items() if v[1]]))
        values = np.frombuffer(base64.b64decode(doc[group][name]), "u1").tolist()
        values[at] = draw(st.integers(_V2_COLUMNS[group, name][1] + 1, 255))
        doc[group][name] = _b64(values, "u1")
    elif kind == "label":
        doc["nodes"]["label"][at] = draw(st.just("") | _json.filter(
            lambda v: not isinstance(v, str)))
    elif kind == "interval":
        doc["attack_interval"] = draw(
            st.lists(st.integers(), max_size=4).filter(lambda v: len(v) != 2)
            | st.tuples(_not_int, st.integers()).map(list)
            | st.tuples(st.integers(3001, 2**63 - 1), st.just(3000)).map(list)
            | st.tuples(st.just(0), st.integers(2**63, 2**80)).map(list)
            | st.tuples(st.integers(-2**80, -2**63 - 1), st.just(0)).map(list))
    elif kind == "endpoint":
        name = draw(st.sampled_from(["src", "dst"]))
        values = np.frombuffer(base64.b64decode(doc["events"][name]), "<i8").tolist()
        values[at] = draw(st.integers(-2**63, 2**63 - 1).filter(lambda v: v not in (0, 1, 2)))
        doc["events"][name] = _b64(values, "<i8")
    elif kind == "decreasing":
        doc["events"]["timestamp"] = _b64(
            [1000, 2000, draw(st.integers(-2**63, 1999))], "<i8")
    elif kind == "repeated-id":
        doc["nodes"]["id"] = _b64([0, 1, draw(st.integers(0, 1))], "<i8")
    else:
        doc["version"] = draw(_json.filter(lambda v: v != 2))
    return doc


@settings(max_examples=150, deadline=None)
@given(_malformed_v2_doc(), st.sampled_from(["train", "detect"]))
def test_fuzzed_version_2_files_exit_2(cli_dir, tmp_path_factory, doc, command):
    """One broken field of a version-2 file: exit 2, no output, and the
    message names the file."""
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "ds.json"
    path.write_text(json.dumps(doc))
    out = work / "out.json"
    args = [command, "--dataset", str(path), "--out", str(out)]
    if command == "detect":
        args += ["--model", str(cli_dir / "model.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(args) == EXIT_ARGUMENT
    assert not out.exists()
    assert str(path) in err.getvalue()


@pytest.mark.parametrize("command", ["train", "detect"])
@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("interval", [[2**70, 2**71], [-2**63 - 1, 0]])
def test_attack_interval_outside_int64_is_argument_error(cli_dir, tmp_path, capsys,
                                                         command, version, interval):
    """Training runs up to the interval's start; a bound no timestamp can
    reach would fit the head on every event, the attack's too."""
    doc = {**(_base_doc() if version == 1 else _base_v2_doc()),
           "attack_interval": interval}
    bad = tmp_path / "ds.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    args = [command, "--dataset", str(bad), "--out", str(out)]
    if command == "detect":
        args += ["--model", str(cli_dir / "model.json")]
    assert main(args) == EXIT_ARGUMENT
    assert "attack_interval" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=40).filter(lambda t: not _parses(t)))
def test_fuzzed_non_json_dataset_exits_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "ds.json"
    path.write_text(text)
    assert main(["train", "--dataset", str(path),
                 "--out", str(path.with_name("m.json"))]) == EXIT_ARGUMENT


def _parses(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def test_console_entry_point_usage_error():
    # the child imports the same provlens as this process, installed or not
    src = str(Path(provlens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "provlens.cli", "frobnicate"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == EXIT_ARGUMENT
