"""Cross-module consistency: independent components must agree.

These tests tie separate implementations to each other — the kind of
redundancy that catches silent semantic drift: the simple latency
analysis vs the holistic one, matching vs drift classification, learned
vs ground-truth lattice positions, and reports vs their inputs.
"""

import pytest

from repro.analysis.drift import DriftMonitor, PeriodStatus
from repro.analysis.holistic import analyze as holistic_analyze
from repro.analysis.latency import response_time
from repro.analysis.report import loads_model, dumps_model, markdown_report
from repro.core.batch import learn_bounded
from repro.core.matching import matches_period
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.gm import gm_case_study_design
from repro.systems.semantics import ground_truth_dependencies
from repro.core import lattice


@pytest.fixture(scope="module")
def gm_model(gm_run):
    return learn_bounded(gm_run.trace, 16).lub()


class TestLatencyVsHolistic:
    def test_response_times_agree(self, gm_design, gm_model):
        """Same preemption model: per-task response times must be equal."""
        holistic = holistic_analyze(gm_design, gm_model)
        for task in gm_design.task_names:
            simple = response_time(gm_design, task, gm_model)
            assert holistic.tasks[task].response_time == pytest.approx(
                simple.response_time
            )
            assert holistic.tasks[task].interfering == (
                simple.interfering_tasks
            )

    def test_holistic_path_at_least_simple_sum_of_tasks(
        self, gm_design, gm_model
    ):
        """The holistic bound includes jitter inheritance the simple path
        sum lacks only through its own terms; both must exceed the bare
        WCET sum."""
        holistic = holistic_analyze(gm_design, gm_model)
        path = ["O", "P", "Q"]
        wcet_sum = sum(gm_design.task(t).wcet for t in path)
        assert holistic.path_latency(path) >= wcet_sum


class TestMatchingVsDrift:
    def test_drift_ok_iff_model_matches(self, gm_run, gm_model):
        monitor = DriftMonitor(gm_model)
        for period in gm_run.trace.periods:
            verdict = monitor.observe(period)
            assert (verdict.status is PeriodStatus.OK) == matches_period(
                gm_model, period
            )


class TestLearnedVsGroundTruth:
    def test_learned_at_most_as_general_on_design_pairs(
        self, gm_design, gm_model
    ):
        """Paper footnote 3: the environment exhibits a behavior subset,
        so on design-influence pairs the learned value sits at or below
        the design truth in the lattice (never strictly above)."""
        truth = ground_truth_dependencies(gm_design)
        for a, b, value in truth.nonparallel_pairs():
            learned = gm_model.value(a, b)
            if learned is not value:
                assert not lattice.lt(value, learned), (a, b, value, learned)


class TestReportsReflectInputs:
    def test_markdown_report_consistent_with_result(self, gm_run):
        result = learn_bounded(gm_run.trace, 16)
        text = markdown_report(result)
        assert f"periods: {result.periods}" in text
        for a, b, value in result.lub().nonparallel_pairs():
            if str(value) == "->":
                assert f"whenever **{a}** runs, **{b}** must run" in text
                break

    def test_model_json_preserves_every_query(self, gm_model):
        recovered = loads_model(dumps_model(gm_model))
        for a in gm_model.tasks:
            for b in gm_model.tasks:
                assert recovered.value(a, b) is gm_model.value(a, b)
