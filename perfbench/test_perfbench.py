"""Tests of the benchmark itself (not part of the package's suite):

    PYTHONPATH=src python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fpcascade
import fpcascade.cli
from child import run_workload
from run import MISSING, select_metrics
from spans import TARGETS, Target, Tracer, summarize
from workloads import SMOKE

BENCH = Path(__file__).resolve().parent


def _bindings(targets):
    return {(t.module, t.attr): getattr(sys.modules[t.module], t.attr) for t in targets}


def test_missing_target_is_a_missing_span_not_a_crash(tmp_path):
    absent = Target("fpcascade.cli", "_no_such_stage", "cli._no_such_stage")
    with Tracer((*TARGETS, absent)) as tracer:
        code, _ = SMOKE.run(fpcascade, 7, tmp_path)
    assert code == 0
    assert tracer.missing == ["cli._no_such_stage"]
    assert not hasattr(fpcascade.cli, "_no_such_stage")
    layers = summarize(tracer.spans, tracer.missing, (*TARGETS, absent))
    assert "cli._no_such_stage_s" not in layers
    assert layers["cli._write_outputs_calls"] == 1
    names = ["cli._no_such_stage_s", "cli._no_such_stage_calls", "cli._write_outputs_calls"]
    values = select_metrics(names, layers, tracer.missing)
    assert values == {"cli._no_such_stage_s": MISSING, "cli._no_such_stage_calls": MISSING,
                      "cli._write_outputs_calls": 1}
    with pytest.raises(KeyError):
        select_metrics(["cli._not_a_metric_s"], layers, tracer.missing)


def test_originals_restored_after_normal_exit_and_after_an_error():
    before = _bindings(TARGETS)
    with Tracer() as tracer:
        assert fpcascade.kernels.bm_normals is not before[("fpcascade.kernels", "bm_normals")]
    assert _bindings(TARGETS) == before
    assert tracer.missing == []
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("traced code failed")
    assert _bindings(TARGETS) == before


def test_spans_nest_and_self_time_excludes_children():
    spans = [
        ["reference.em_simulate", 0.0, 10.0, -1, 0],
        ["kernels.bm_normals", 1.0, 2.0, 0, 5],
        ["kernels.bm_normals", 3.0, 6.0, 0, 5],
        ["cli._write_outputs", 10.0, 12.0, -1, 0],
    ]
    layers = summarize(spans, [])
    assert layers["reference.em_simulate_s"] == 10.0
    assert layers["reference.em_simulate_self_s"] == 6.0
    assert layers["kernels.bm_normals_calls"] == 2
    assert layers["kernels.bm_normals_normals"] == 10
    assert layers["top_level_s"] == 12.0


def test_smoke_run_traced_and_untraced_write_identical_outputs(tmp_path):
    plain = run_workload(SMOKE, fpcascade, 11, tmp_path / "plain")
    traced = run_workload(SMOKE, fpcascade, 11, tmp_path / "traced", tmp_path / "spans.json")
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["hashes"] == traced["hashes"]
    assert plain["csv_bytes"] == traced["csv_bytes"] > 0
    layers = traced["trace"]["layers"]
    assert traced["trace"]["missing"] == []
    assert layers["reference.em_simulate_calls"] == 1
    assert layers["kernels.bm_normals_normals"] == 2000 * layers["kernels.bm_normals_calls"]
    assert layers["reference.em_path_steps"] == layers["kernels.bm_normals_normals"] - 2000
    assert layers["kernels.cascade_cn_step_nodes"] > SMOKE.config["nx"] * layers["kernels.cascade_cn_step_calls"]
    written = json.loads((tmp_path / "spans.json").read_text())
    assert len(written["spans"]) == traced["trace"]["n_spans"]


def test_smoke_run_fails_its_check_on_a_wrong_reference(tmp_path):
    wrong = dataclasses.replace(SMOKE, exact=lambda x, t: SMOKE.exact(x - 1.0, t))
    result = run_workload(wrong, fpcascade, 11, tmp_path)
    assert any("L1 error" in p for p in result["problems"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_example1_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
