"""Property-based tests for the matching function's contracts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import candidate_pairs
from repro.core.batch import learn_bounded
from repro.core.matching import (
    allowed_pairs,
    find_explanation,
    matches_trace,
)
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

CONFIG = RandomDesignConfig(
    task_count=6, ecu_count=2, layer_count=3, disjunction_probability=0.3
)


def workload(seed: int, periods: int = 5):
    design = random_design(CONFIG, seed=seed)
    return Simulator(
        design, SimulatorConfig(period_length=130.0), seed=seed
    ).run(periods).trace


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_explanations_are_injective_and_candidate_consistent(seed):
    trace = workload(seed)
    model = learn_bounded(trace, 6).lub()
    for period in trace.periods:
        explanation = find_explanation(model, period)
        assert explanation is not None
        # Injective: one pair per message.
        assert len(set(explanation.values())) == len(explanation)
        # Each assignment lies within the message's temporal candidates
        # and is allowed by the model.
        for message in period.messages:
            pair = explanation[message.label]
            candidates = candidate_pairs(period, message)
            assert pair in candidates
            assert pair in allowed_pairs(model, candidates)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_matching_monotone_under_trace_truncation(seed):
    """A hypothesis matching a trace matches every prefix of it."""
    trace = workload(seed)
    model = learn_bounded(trace, 6).lub()
    assert matches_trace(model, trace)
    for count in range(1, len(trace)):
        assert matches_trace(model, trace.subtrace(count))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300), st.integers(1, 8))
def test_lub_of_any_bound_matches(seed, bound):
    """The reported dLUB itself matches the trace (not just survivors)."""
    trace = workload(seed)
    result = learn_bounded(trace, bound)
    assert matches_trace(result.lub(), trace)
