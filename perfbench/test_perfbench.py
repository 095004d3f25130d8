"""Tests of the benchmark itself, at the smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs in a fresh process exactly as the benchmark command
does, at the ``smoke`` size, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import harness
import inputs
import layers
import run

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str, cwd=harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_what_the_code_reports():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == dict(run.END_TO_END)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER
    )
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0.5", "--trace", "0",
                             "--size", "smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.END_TO_END
    )
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0.5", "--trace", "1",
                             "--size", "smoke"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(layers.PER_LAYER)
    for name, unit in layers.PER_LAYER:
        if unit in ("s", "ms", "us"):
            assert metrics[name]["value"] > 0, name


def test_seed_alone_determines_the_inputs():
    harness.bootstrap()
    first = inputs.gm_trace(5, 6)
    again = inputs.gm_trace(5, 6)
    other = inputs.gm_trace(6, 6)
    assert repr(first.periods) == repr(again.periods)
    assert repr(first.periods) != repr(other.periods)
    sessions = inputs.session_traces(5, 2, 4)
    assert repr(sessions[0].periods) != repr(sessions[1].periods)


def test_lemma_gate_counts_a_wrong_model_as_failed():
    from learn_workloads import E2Sweep

    harness.bootstrap()
    ledger = harness.Ledger()
    workload = E2Sweep()
    with harness.work_dir("test") as work:
        workload.setup(3, inputs.SIZES["smoke"], work)
        workload._gates(ledger)
        assert ledger.failed == 0
        wrong = inputs.gm_trace(4, inputs.GM_PERIODS)
        from repro.core.learner import learn_dependencies

        workload.expected = learn_dependencies(wrong, bound=1).lub()
        assert workload.expected != workload.first.lub()
        workload._sweep(ledger)
    assert ledger.failed == len(inputs.SIZES["smoke"].bounds)


def test_session_gate_counts_a_wrong_model_as_failed():
    from service_workloads import SessionStream, run_round

    harness.bootstrap()
    ledger = harness.Ledger()
    workload = SessionStream()
    with harness.work_dir("test") as work:
        workload.setup(3, inputs.SIZES["smoke"], work)
        try:
            workload._gates()
            workload.expected = ["{}"] * len(workload.traces)
            run_round(workload.daemon, workload.clients, workload._groups(),
                      workload.mode, ledger)
        finally:
            workload.close()
    assert ledger.failed == len(workload.traces)
    assert workload.daemon is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = bench("--workload", "e2-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
