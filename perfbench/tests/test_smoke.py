"""Smoke test of the benchmark.

Every metric BENCHMARK.json names is emitted with its unit, every check
of each workload ran and passed, and the benchmark refuses to run
without the provlens sources.  Untraced runs make the least number of
rounds (two, so the round-repeat check compares), traced runs one; the
16 h stream is cut to 1 h, the shortest default scenario that still
holds the attack chain.  Takes a few minutes:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON_CHECKS = {
    "dataset_round_trip", "checkpoint_round_trip", "attack_inside_raised_alert",
    "events_selected", "explainers_returned",
    "graphmask_mask_valid", "gnnexplainer_valid", "vatg_valid",
}
CHECKS = {
    "alerts-1h": COMMON_CHECKS | {
        "report_json_valid", "ablation_csv_header", "ablation_csv_baseline_first",
        "cli_exit_0", "cli_json_matches_library",
    },
    "wide-1h": COMMON_CHECKS,
    "stream-16h": COMMON_CHECKS | {"report_json_valid"},
}
REPORT_ONLY = {
    "alerts-1h": {"explain_alert_p50_s", "explain_alert_tail_s", "explain_event_tail_s",
                  "ablate_edge_p50_s", "ablate_edge_tail_s", "cli_explain_s"},
    "wide-1h": {"explain_event_tail_s"},
    "stream-16h": {"explain_alert_p50_s", "explain_alert_tail_s",
                   "explain_event_tail_s"},
}


def small(name: str) -> workloads.Workload:
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, duration_s=min(wl.duration_s, 3600.0))


@pytest.mark.parametrize(
    "name,seed,trace",
    [("alerts-1h", 7, 0), ("alerts-1h", 8, 0), ("wide-1h", 7, 0),
     ("stream-16h", 7, 0), ("alerts-1h", 7, 1), ("wide-1h", 7, 1),
     ("stream-16h", 7, 1)],
)
def test_workload_emits_every_metric_and_runs_every_check(tmp_path, name, seed, trace):
    rep = run.measure(small(name), seed, 0.0, bool(trace), tmp_path)

    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(rep["metrics"]) == sorted(names)
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        got = rep["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert set(rep["counts"]) <= set(rep["metrics"])
    else:
        assert rep["rounds"] == workloads.MIN_ROUNDS
        assert REPORT_ONLY[name] <= set(rep["extra_metrics"])
        for m in SPEC["end_to_end"]:
            assert rep["metrics"][m["name"]]["value"] > 0
        # timed metrics are calibrated and keep their measured value
        assert rep["extra_metrics"]["reference_s"]["value"] > 0
        for m in ("setup_s", "detect_events_per_s", "explain_event_p50_s"):
            assert rep["metrics"][m]["measured"] > 0
    # rounds repeat only in untraced runs; detection repeats are checked
    # only when the run fits a second pass
    expected = CHECKS[name] | ({"round_repeats"} if not trace else set())
    assert expected <= set(rep["checks"]) <= expected | {"detection_repeats"}
    assert rep["failures"] == []
    assert rep["ops_failed_ratio"]["value"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "alerts-1h",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
