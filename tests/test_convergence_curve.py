"""Unit tests for learning-curve analysis."""

import pytest

from repro.analysis.convergence import learning_curve
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.examples import simple_four_task_design
from repro.trace.synthetic import paper_figure2_trace, serial_chain_trace


class TestCurve:
    def test_paper_trace_never_converges(self):
        curve = learning_curve(paper_figure2_trace())
        assert curve.converged_after() is None
        assert [p.hypothesis_count for p in curve.points] == [3, 5, 5]

    def test_two_task_chain_converges_immediately(self):
        curve = learning_curve(serial_chain_trace(2, 4))
        assert curve.converged_after() == 1
        assert all(p.converged for p in curve.points)

    def test_weight_monotone_in_evidence(self):
        # More instances can only generalize (weights never decrease).
        curve = learning_curve(paper_figure2_trace(), bound=4)
        weights = [p.lub_weight for p in curve.points]
        assert weights == sorted(weights)

    def test_stable_after(self):
        design = simple_four_task_design()
        trace = Simulator(
            design, SimulatorConfig(period_length=50.0), seed=3
        ).run(25).trace
        curve = learning_curve(trace, bound=8)
        stable = curve.stable_after()
        assert stable is not None
        assert stable <= len(trace)
        final = curve.points[-1]
        for point in curve.points:
            if point.periods >= stable:
                assert point.lub_weight == final.lub_weight

    def test_summary_format(self):
        text = learning_curve(paper_figure2_trace()).summary()
        assert "periods" in text
        assert "converged" in text
        assert len(text.splitlines()) == 4  # header + 3 periods

    def test_bounded_matches_batch_result(self):
        from repro.core.batch import learn_bounded

        trace = paper_figure2_trace()
        curve = learning_curve(trace, bound=4)
        batch = learn_bounded(trace, 4)
        assert curve.points[-1].lub_weight == batch.lub().weight()
        assert curve.points[-1].converged == batch.converged
