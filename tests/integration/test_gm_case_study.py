"""Integration: the GM-like case study (paper Section 3.4).

Uses a reduced 8-period simulation for speed; the full 27-period run is
exercised by the E2/E3 benchmarks.
"""

import pytest

from repro.analysis.classify import is_conjunction, is_disjunction
from repro.analysis.latency import compare_path_latency
from repro.analysis.reachability import compare_state_spaces
from repro.core.batch import learn_bounded
from repro.core.matching import matches_trace
from repro.trace.validate import Severity, validate_trace


@pytest.fixture(scope="module")
def gm_lub(gm_run):
    return learn_bounded(gm_run.trace, 16).lub()


class TestTrace:
    def test_scale(self, gm_run):
        trace = gm_run.trace
        assert len(trace.tasks) == 18
        assert len(trace) == 8
        assert 12 <= trace.message_count() / len(trace) <= 20

    def test_valid(self, gm_run):
        errors = [
            d
            for d in validate_trace(gm_run.trace)
            if d.severity is Severity.ERROR
        ]
        assert errors == []


class TestLearnedModel:
    def test_soundness(self, gm_run):
        result = learn_bounded(gm_run.trace, 16)
        for function in result.functions:
            assert matches_trace(function, gm_run.trace)

    def test_published_disjunction_nodes(self, gm_lub):
        assert is_disjunction(gm_lub, "A")
        assert is_disjunction(gm_lub, "B")

    def test_published_conjunction_nodes(self, gm_lub):
        for task in ("H", "P", "Q"):
            assert is_conjunction(gm_lub, task)

    def test_published_certain_dependencies(self, gm_lub):
        assert str(gm_lub.value("A", "L")) == "->"
        assert str(gm_lub.value("B", "M")) == "->"

    def test_implicit_oq_dependency(self, gm_lub):
        assert str(gm_lub.value("O", "Q")) == "->"
        assert str(gm_lub.value("Q", "O")) == "<-"


class TestDownstreamAnalyses:
    def test_latency_improvement_on_q_path(self, gm_design, gm_lub):
        comparison = compare_path_latency(gm_design, ["O", "P", "Q"], gm_lub)
        assert comparison.informed.latency < comparison.pessimistic.latency
        # O is excluded from Q's interference thanks to d(Q, O) = <-.
        q_report = comparison.informed.task_terms[-1]
        assert "O" in q_report.excluded_tasks

    def test_state_space_reduction(self, gm_design, gm_lub):
        core = ("S", "A", "L", "N", "O", "H", "P", "Q")
        report = compare_state_spaces(gm_design, gm_lub, tasks=core)
        assert report.reduction_factor > 2.0
        assert not report.pessimistic.truncated


class TestGroundTruthRecovery:
    def test_real_message_pairs_recovered(self, gm_run, gm_lub):
        from repro.analysis.compare import edge_recovery

        recovery = edge_recovery(gm_lub, gm_run.logger.true_pairs())
        # Every real on-bus flow must carry a learned forward arrow.
        assert recovery.recall == 1.0
