"""Unit tests for operation-mode extraction."""

import pytest

from repro.analysis.modes import extract_modes, per_mode_models
from repro.errors import AnalysisError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.examples import diamond_design, pipeline_design
from repro.trace.synthetic import alternating_branch_trace, paper_figure2_trace
from repro.trace.trace import Trace


class TestExtraction:
    def test_paper_trace_modes(self):
        report = extract_modes(paper_figure2_trace())
        signatures = {mode.signature for mode in report.modes}
        assert signatures == {
            frozenset({"t1", "t2", "t4"}),
            frozenset({"t1", "t3", "t4"}),
            frozenset({"t1", "t2", "t3", "t4"}),
        }
        assert report.core == {"t1", "t4"}

    def test_frequencies_sum_to_one(self):
        report = extract_modes(paper_figure2_trace())
        assert sum(m.frequency for m in report.modes) == pytest.approx(1.0)

    def test_single_mode_pipeline(self):
        trace = Simulator(
            pipeline_design(3), SimulatorConfig(period_length=30.0), seed=1
        ).run(5).trace
        report = extract_modes(trace)
        assert report.mode_count == 1
        assert report.dominant().occurrence_count == 5

    def test_mode_of_lookup(self):
        report = extract_modes(paper_figure2_trace())
        assert report.mode_of(0).signature == {"t1", "t2", "t4"}
        with pytest.raises(AnalysisError):
            report.mode_of(99)

    def test_alternating_modes(self):
        report = extract_modes(alternating_branch_trace(6))
        assert report.mode_count == 2
        assert all(m.occurrence_count == 3 for m in report.modes)
        assert report.core == {"src", "sink"}

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            extract_modes(Trace(("a",), []))

    def test_summary(self):
        text = extract_modes(paper_figure2_trace()).summary()
        assert "operation modes" in text
        assert "core" in text


class TestPerModeModels:
    def test_branch_certain_within_its_mode(self):
        trace = Simulator(
            diamond_design(), SimulatorConfig(period_length=40.0), seed=2
        ).run(30).trace
        global_model = None
        from repro.core.batch import learn_bounded

        global_model = learn_bounded(trace, 8).lub()
        models = per_mode_models(trace, bound=8)
        left_mode = frozenset({"src", "left", "join"})
        assert left_mode in models
        # Globally the branch is conditional; within the left mode it is
        # certain.
        assert str(global_model.value("src", "left")) == "->?"
        assert str(models[left_mode].value("src", "left")) == "->"

    def test_min_periods_filter(self):
        trace = paper_figure2_trace()  # each mode occurs once
        assert per_mode_models(trace, min_periods=2) == {}
        assert len(per_mode_models(trace, min_periods=1)) == 3
