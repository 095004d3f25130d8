"""Property-based tests for the extension modules.

Random systems are simulated and the extension layers (drift monitoring,
negative evidence, holistic analysis, anonymization, mode extraction)
must uphold their invariants on every draw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import learning_curve
from repro.analysis.drift import DriftMonitor
from repro.analysis.holistic import analyze as holistic_analyze
from repro.analysis.modes import extract_modes
from repro.core.batch import learn_bounded
from repro.core.negative import ForbiddenBehavior, VersionSpace, rejects
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design
from repro.trace.anonymize import anonymize_trace

CONFIG = RandomDesignConfig(
    task_count=6, ecu_count=2, layer_count=3, disjunction_probability=0.3
)


def workload(seed: int, periods: int = 6):
    design = random_design(CONFIG, seed=seed)
    run = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    ).run(periods)
    return design, run


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_drift_monitor_clean_on_own_trace(seed):
    """A model never flags the very periods it was learned from."""
    _design, run = workload(seed)
    model = learn_bounded(run.trace, 8).lub()
    monitor = DriftMonitor(model)
    report = monitor.observe_all(run.trace.periods)
    assert report.anomaly_count == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_observed_behavior_never_rejected(seed):
    """No surviving hypothesis may reject a behavior the trace exhibits."""
    _design, run = workload(seed)
    result = learn_bounded(run.trace, 8)
    space = VersionSpace(result)
    for period in run.trace.periods:
        behavior = ForbiddenBehavior(period.executed_tasks)
        for function in result.functions:
            assert not rejects(function, behavior)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_holistic_completion_covers_simulation(seed):
    """Holistic worst-case completions bound the observed completions."""
    design, run = workload(seed)
    report = holistic_analyze(
        design, frame_time=SimulatorConfig().frame_time
    )
    period_length = 120.0
    for index, period in enumerate(run.trace.periods):
        base = index * period_length
        for execution in period.executions:
            observed = execution.end - base
            # The simulator adds inter-frame gaps the analysis folds into
            # its blocking term; allow a small additive envelope.
            assert observed <= report.completion(execution.task) + 2.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_anonymization_preserves_learning(seed):
    _design, run = workload(seed, periods=4)
    anonymized = anonymize_trace(run.trace)
    original_lub = learn_bounded(run.trace, 4).lub()
    renamed_lub = learn_bounded(anonymized.trace, 4).lub()
    for a in run.trace.tasks:
        for b in run.trace.tasks:
            assert original_lub.value(a, b) is renamed_lub.value(
                anonymized.mapping[a], anonymized.mapping[b]
            )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_modes_partition_the_trace(seed):
    _design, run = workload(seed)
    report = extract_modes(run.trace)
    indices = sorted(
        index for mode in report.modes for index in mode.period_indices
    )
    assert indices == list(range(len(run.trace)))
    for mode in report.modes:
        assert report.core <= mode.signature


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 300))
def test_learning_curve_weight_monotone(seed):
    _design, run = workload(seed)
    curve = learning_curve(run.trace, bound=4)
    weights = [point.lub_weight for point in curve.points]
    assert weights == sorted(weights)
