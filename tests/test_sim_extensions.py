"""Tests for simulator extensions: offsets, sporadic sources, CAN errors."""

import pytest

from repro.errors import ModelError, SimulationError
from repro.sim.can import CanBus, Frame
from repro.sim.executive import Executive
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.builder import DesignBuilder
from repro.systems.model import TaskSpec


class TestOffsets:
    def test_offset_delays_source_release(self):
        design = (
            DesignBuilder()
            .source("a", wcet=1.0)
            .source("b", wcet=1.0, offset=10.0)
            .build()
        )
        trace = Simulator(
            design, SimulatorConfig(period_length=50.0), seed=0
        ).run(2).trace
        for index, period in enumerate(trace.periods):
            base = index * 50.0
            assert period.execution_of("a").start == pytest.approx(base)
            assert period.execution_of("b").start == pytest.approx(base + 10.0)

    def test_offset_validation(self):
        with pytest.raises(ModelError, match="offset must be"):
            TaskSpec("x", is_source=True, offset=-1.0)
        with pytest.raises(ModelError, match="source tasks only"):
            TaskSpec("x", offset=1.0)

    def test_offsets_separate_bus_traffic_in_time(self):
        # With a large offset the two chains' bus traffic is disjoint in
        # time; without it the frames interleave. (Note the counter-
        # intuitive learning consequence: separation *adds* sender
        # ambiguity for late messages, because every early task has
        # finished by then — the paper's temporal candidate rule at work.)
        def design(offset):
            return (
                DesignBuilder()
                .source("a0", ecu="e0", priority=2, wcet=1.0)
                .task("a1", ecu="e0", priority=1, wcet=1.0)
                .source("b0", ecu="e1", priority=2, wcet=1.0, offset=offset)
                .task("b1", ecu="e1", priority=1, wcet=1.0)
                .message("a0", "a1")
                .message("b0", "b1")
                .build()
            )

        config = SimulatorConfig(period_length=60.0)
        separated = Simulator(design(20.0), config, seed=1).run(3).trace
        for period in separated.periods:
            first, second = period.messages
            assert first.fall < period.execution_of("b0").start
        overlapping = Simulator(design(0.0), config, seed=1).run(3).trace
        for period in overlapping.periods:
            first, second = period.messages
            assert second.rise < period.execution_of("b1").end


class TestSporadicSources:
    def test_activation_probability_validation(self):
        with pytest.raises(ModelError, match="\\[0, 1\\]"):
            TaskSpec("x", is_source=True, activation_probability=1.5)
        with pytest.raises(ModelError, match="source tasks only"):
            TaskSpec("x", activation_probability=0.5)

    def test_sporadic_source_skips_periods(self):
        design = (
            DesignBuilder()
            .source("always", wcet=1.0)
            .source("sometimes", ecu="e1", wcet=1.0,
                    activation_probability=0.5)
            .build()
        )
        executive = Executive(design, seed=4)
        ran = [
            "sometimes" in executive.plan_period(i).executing
            for i in range(40)
        ]
        assert any(ran) and not all(ran)
        assert all(
            "always" in executive.plan_period(i).executing for i in range(5)
        )

    def test_downstream_of_sporadic_follows(self):
        design = (
            DesignBuilder()
            .source("stim", wcet=1.0, activation_probability=0.6)
            .task("react", ecu="e1", wcet=1.0)
            .message("stim", "react")
            .build()
        )
        trace = Simulator(
            design, SimulatorConfig(period_length=30.0), seed=9
        ).run(20).trace
        for period in trace.periods:
            assert period.executed("react") == period.executed("stim")

    def test_sporadic_breaks_false_certainty(self):
        # With an always-on stimulus, d(other, stim) would be certain by
        # co-execution; sporadic activation demotes it to probable.
        from repro.core.batch import learn_bounded

        design = (
            DesignBuilder()
            .source("stim", wcet=1.0, activation_probability=0.5)
            .source("other", ecu="e1", wcet=1.0)
            .task("react", ecu="e0", priority=0, wcet=1.0)
            .message("stim", "react")
            .build()
        )
        trace = Simulator(
            design, SimulatorConfig(period_length=30.0), seed=2
        ).run(30).trace
        lub = learn_bounded(trace, 8).lub()
        value = lub.value("other", "stim")
        assert not value.is_certain or str(value) == "||"


class TestCanErrors:
    def test_error_rate_validation(self):
        with pytest.raises(SimulationError):
            CanBus(error_rate=1.0)
        with pytest.raises(SimulationError):
            CanBus(error_rate=-0.1)

    def test_retransmission_delays_delivery(self):
        clean = CanBus(frame_time=1.0, inter_frame_gap=0.0, error_rate=0.0)
        lossy = CanBus(
            frame_time=1.0, inter_frame_gap=0.0,
            error_rate=0.9, error_seed=1,
        )
        for bus in (clean, lossy):
            bus.enqueue(0.0, Frame("a", "b", 1, 0.0))
        assert clean.advance(1.0) is not None
        # The lossy bus almost surely corrupts the first attempt.
        attempts = 0
        now = 1.0
        transmission = lossy.advance(now)
        while transmission is None and attempts < 50:
            attempts += 1
            now = lossy.next_completion_time()
            transmission = lossy.advance(now)
        assert transmission is not None
        assert lossy.retransmission_count >= 1
        assert transmission.fall > 1.0

    def test_simulation_with_bus_errors_stays_consistent(self):
        from repro.systems.examples import simple_four_task_design
        from repro.trace.validate import Severity, validate_trace

        config = SimulatorConfig(period_length=80.0, bus_error_rate=0.2)
        run = Simulator(simple_four_task_design(), config, seed=5).run(10)
        errors = [
            d
            for d in validate_trace(run.trace)
            if d.severity is Severity.ERROR
        ]
        assert errors == []
        # Causality still holds for the delivered (final) transmissions.
        for truth in run.logger.ground_truth:
            period = run.trace[truth.period_index]
            assert period.execution_of(truth.sender).end <= truth.rise + 1e-9
            assert (
                period.execution_of(truth.receiver).start >= truth.fall - 1e-9
            )

    def test_errors_add_latency_jitter(self):
        from repro.systems.examples import pipeline_design

        def makespan(error_rate, seed):
            config = SimulatorConfig(
                period_length=80.0, bus_error_rate=error_rate
            )
            run = Simulator(pipeline_design(4), config, seed=seed).run(5)
            return max(
                period.end_time() - index * 80.0
                for index, period in enumerate(run.trace.periods)
            )

        assert makespan(0.5, 3) > makespan(0.0, 3)
