"""Differential properties: the bitmask kernel equals the string kernel.

:mod:`repro.core.reference` keeps the seed's ``frozenset[(str, str)]``
learners verbatim; on randomized simulated traces, the interned mask
learners must produce *identical* hypothesis pools, weights, and final
graphs — not merely equivalent ones. This is the contract that makes the
representation swap a pure performance change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.batch import (
    BoundedLearner,
    ExactLearner,
    learn_bounded,
    learn_exact,
)
from repro.core.interning import WeightKernel
from repro.core.reference import (
    learn_bounded_reference,
    learn_exact_reference,
    set_weight,
)
from repro.core.weights import NAMED_DISTANCES
from repro.errors import LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

SMALL = RandomDesignConfig(
    task_count=5,
    ecu_count=2,
    layer_count=3,
    extra_edge_probability=0.15,
    disjunction_probability=0.3,
)


def small_trace(seed: int, periods: int = 4):
    design = random_design(SMALL, seed=seed)
    simulator = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    )
    return simulator.run(periods).trace


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 12))
def test_bounded_learner_identical_to_reference(seed, bound):
    trace = small_trace(seed)
    new = learn_bounded(trace, bound)
    ref = learn_bounded_reference(trace, bound)
    # Same pools in the same order — bit-for-bit, not just set-equal.
    assert [h.pairs for h in new.hypotheses] == [h.pairs for h in ref.hypotheses]
    assert new.functions == ref.functions
    assert new.lub() == ref.lub()
    assert new.merge_count == ref.merge_count
    assert new.peak_hypotheses == ref.peak_hypotheses
    assert new.messages == ref.messages


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500))
def test_bounded_learner_weights_match_definition8(seed):
    trace = small_trace(seed)
    learner = BoundedLearner(trace.tasks, bound=8)
    learner.feed_trace(trace)
    table = learner.table
    for mask, weight in learner._weights.items():
        assert weight == set_weight(table.pairs_of(mask), learner.stats)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500))
def test_exact_learner_identical_to_reference(seed):
    trace = small_trace(seed)
    try:
        new = learn_exact(trace, max_hypotheses=50_000)
    except LearningError:
        return
    ref = learn_exact_reference(trace, max_hypotheses=50_000)
    assert set(new.functions) == set(ref.functions)
    assert new.lub() == ref.lub()
    assert new.peak_hypotheses == ref.peak_hypotheses


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500), st.integers(2, 8))
def test_checkpoint_round_trip_across_the_boundary(seed, bound):
    """Serialize mid-run, restore, resume: identical to the straight run."""
    trace = small_trace(seed, periods=6)
    half = len(trace.periods) // 2

    whole = BoundedLearner(trace.tasks, bound=bound)
    whole.feed_trace(trace)

    first = BoundedLearner(trace.tasks, bound=bound)
    for period in trace.periods[:half]:
        first.feed(period)
    resumed = checkpoint_from_dict(checkpoint_to_dict(first))
    for period in trace.periods[half:]:
        resumed.feed(period)

    assert [h.pairs for h in resumed.result().hypotheses] == [
        h.pairs for h in whole.result().hypotheses
    ]
    assert resumed.result().functions == whole.result().functions


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 300))
def test_exact_checkpoint_round_trip(seed):
    trace = small_trace(seed)
    learner = ExactLearner(trace.tasks, max_hypotheses=50_000)
    try:
        learner.feed_trace(trace)
    except LearningError:
        return
    restored = checkpoint_from_dict(checkpoint_to_dict(learner))
    assert {h.pairs for h in restored._hypotheses} == {
        h.pairs for h in learner._hypotheses
    }


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 300), st.sampled_from(sorted(NAMED_DISTANCES)))
def test_kernel_weights_match_reference_under_any_distance(seed, name):
    """WeightKernel == reference Definition 8 on live learner statistics."""
    distance = NAMED_DISTANCES[name]
    trace = small_trace(seed)
    learner = BoundedLearner(trace.tasks, bound=6, distance=distance)
    learner.feed_trace(trace)
    kernel = WeightKernel(learner.table, learner.stats, distance)
    for mask in learner._masks:
        pairs = learner.table.pairs_of(mask)
        assert kernel.set_weight(mask) == set_weight(
            pairs, learner.stats, distance
        )
