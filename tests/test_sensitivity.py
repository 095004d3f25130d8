"""Unit tests for stability / sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import robust_model, stability
from repro.errors import AnalysisError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.examples import simple_four_task_design
from repro.systems.gateway import gateway_config, gateway_design


def traces_for(design, config, seeds, periods=15):
    return [
        Simulator(design, config, seed=seed).run(periods).trace
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def figure1_traces():
    return traces_for(
        simple_four_task_design(),
        SimulatorConfig(period_length=50.0),
        seeds=(1, 2, 3),
        periods=25,
    )


class TestStability:
    def test_design_facts_robust(self, figure1_traces):
        report = stability(figure1_traces, bound=8)
        robust_pairs = {
            (fact.source, fact.target) for fact in report.robust_facts()
        }
        # The design-true certain facts persist across every seed.
        assert ("t1", "t4") in robust_pairs
        assert ("t2", "t4") in robust_pairs
        assert ("t3", "t4") in robust_pairs

    def test_report_counts(self, figure1_traces):
        report = stability(figure1_traces, bound=8)
        assert report.runs == 3
        for fact in report.facts:
            assert 1 <= fact.appearances <= 3
            assert 0 < fact.stability <= 1.0

    def test_summary(self, figure1_traces):
        text = stability(figure1_traces, bound=8).summary()
        assert "certain facts" in text
        assert "robust" in text

    def test_requires_traces(self):
        with pytest.raises(AnalysisError):
            stability([])

    def test_universe_mismatch(self, figure1_traces):
        gateway_trace = Simulator(
            gateway_design(), gateway_config(), seed=1
        ).run(3).trace
        with pytest.raises(AnalysisError, match="universes"):
            stability([figure1_traces[0], gateway_trace])


class TestRobustModel:
    def test_fragile_facts_downgraded(self, figure1_traces):
        report = stability(figure1_traces, bound=8)
        model = robust_model(figure1_traces, bound=8)
        for fact in report.fragile_facts():
            assert str(model.value(fact.source, fact.target)) == "->?"
        for fact in report.robust_facts():
            assert str(model.value(fact.source, fact.target)) == "->"

    def test_single_trace_is_its_own_model(self, figure1_traces):
        from repro.core.batch import learn_bounded

        model = robust_model(figure1_traces[:1], bound=8)
        direct = learn_bounded(figure1_traces[0], 8).lub()
        assert model == direct
