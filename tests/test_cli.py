"""Command-line interface: subcommands, outputs, and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import provlens
from provlens.cli import EXIT_ARGUMENT, EXIT_OK, EXIT_RESOURCE, main
from provlens.data import load_dataset, parse_log, save_dataset
from provlens.report import validate_document

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


def test_zero_horizon_config_is_argument_error(cli_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"horizon": 0}}')
    rc = main(["train", "--dataset", str(cli_dir / "ds.json"),
               "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, config_text", [
    (["detect", "--model", "{model}", "--out", "{out}"],
     '{"detector": {"window_minutes": 1e300}}'),
    (["train", "--out", "{out}"], '{"model": {"epochs": -3}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"parallel_windows": 0}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"memory_budget": -5}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"seed": 3}}'),
    (["train", "--out", "{out}"], '{"model": {"horizon": 2.5}}'),
    (["train", "--out", "{out}"], '{"model": {"seed": -1}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"top_k_events": 2.5}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"memory_budget": 2.5}}'),
    (["detect", "--model", "{model}", "--out", "{out}"],
     '{"detector": {"min_suspicious_nodes": 1.5}}'),
])
def test_config_value_that_does_nothing_useful_is_argument_error(
        cli_dir, tmp_path, command, config_text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    paths = {"model": cli_dir / "model.json", "out": tmp_path / "out"}
    rc = main([arg.format(**paths) for arg in command]
              + ["--dataset", str(cli_dir / "ds.json"), "--config", str(cfg)])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "out").exists()


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
     '{"pipeline": {"memory_budget": 2.5}}'),
    (["explain", "--model", "{model}", "--out-dir", "{out}"],
     '{"pipeline": {"memory_budget": 1e9}}'),
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


def test_non_finite_checkpoint_is_argument_error(cli_dir, tmp_path):
    doc = json.loads((cli_dir / "model.json").read_text())
    doc["parameters"]["We"][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(bad), "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
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


def test_memory_budget_is_resource_error(cli_dir, tmp_path, monkeypatch):
    from provlens.pipeline import MEMORY_BUDGET_ENV

    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1")
    rc = main(["explain", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--out-dir", str(tmp_path / "x")])
    assert rc == EXIT_RESOURCE


def test_negative_memory_budget_env_is_argument_error(cli_dir, tmp_path,
                                                     monkeypatch):
    """A negative budget is bad input (exit 2), where a budget too small
    for the alert is a resource error (exit 3)."""
    from provlens.pipeline import MEMORY_BUDGET_ENV

    monkeypatch.setenv(MEMORY_BUDGET_ENV, "-5")
    rc = main(["explain", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--out-dir", str(tmp_path / "x")])
    assert rc == EXIT_ARGUMENT
    assert not list((tmp_path / "x").glob("explanations_*.json"))


def test_non_object_dataset_is_argument_error(tmp_path):
    bad = tmp_path / "ds.json"
    bad.write_text("[1, 2]")
    rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_ARGUMENT


def test_short_labels_dataset_is_argument_error(cli_dir, tmp_path):
    doc = json.loads((cli_dir / "ds.json").read_text())
    doc["labels"] = doc["labels"][:-1]
    bad = tmp_path / "ds.json"
    bad.write_text(json.dumps(doc))
    rc = main(["detect", "--dataset", str(bad),
               "--model", str(cli_dir / "model.json"),
               "--out", str(tmp_path / "a.json")])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "a.json").exists()


def test_report_schema_failure_is_argument_error(tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text('{"window": "1-2"}')
    rc = main(["report", "--out-dir", str(tmp_path / "out"), str(bad)])
    assert rc == EXIT_ARGUMENT


def test_ablate_schema_failure_is_argument_error(cli_dir, tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text('{"window": "1-2"}')
    rc = main(["ablate", "--dataset", str(cli_dir / "ds.json"),
               "--model", str(cli_dir / "model.json"),
               "--report", str(bad), "--out", str(tmp_path / "a.csv")])
    assert rc == EXIT_ARGUMENT
    assert not (tmp_path / "a.csv").exists()


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
