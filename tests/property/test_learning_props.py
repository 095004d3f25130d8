"""Property-based tests for the learning algorithms' theorems.

Random small systems are generated, simulated, and learned; the paper's
Theorems 2-4 and the pair-set/function-order equivalence must hold on
every one of them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import learn_bounded, learn_exact
from repro.core.hypothesis import Hypothesis
from repro.core.matching import matches_trace
from repro.core.stats import CoExecutionStats
from repro.errors import LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design
from repro.theory.theorems import (
    brute_force_most_specific,
    feasible_pair_universe,
)

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
@given(st.integers(0, 500))
def test_theorem2_correctness_exact(seed):
    trace = small_trace(seed)
    try:
        result = learn_exact(trace, max_hypotheses=50_000)
    except LearningError:
        return  # blew the cap: nothing to check
    for function in result.functions:
        assert matches_trace(function, trace)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 12))
def test_theorem2_correctness_heuristic(seed, bound):
    trace = small_trace(seed)
    result = learn_bounded(trace, bound)
    for function in result.functions:
        assert matches_trace(function, trace)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500))
def test_theorem3_optimality_against_brute_force(seed):
    trace = small_trace(seed, periods=3)
    universe = feasible_pair_universe(trace)
    if len(universe) > 14:
        return  # brute force would be too slow; covered by smaller draws
    try:
        result = learn_exact(trace, max_hypotheses=50_000)
    except LearningError:
        return
    assert set(result.functions) == set(brute_force_most_specific(trace))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500), st.integers(2, 10))
def test_lemma_lub_equals_bound_one(seed, bound):
    trace = small_trace(seed)
    reference = learn_bounded(trace, 1).unique
    assert learn_bounded(trace, bound).lub() == reference


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500))
def test_exact_survivors_pairwise_incomparable(seed):
    trace = small_trace(seed, periods=3)
    try:
        result = learn_exact(trace, max_hypotheses=50_000)
    except LearningError:
        return
    for i, left in enumerate(result.functions):
        for right in result.functions[i + 1:]:
            assert not left.leq(right)
            assert not right.leq(left)


@settings(max_examples=30, deadline=None)
@given(
    st.sets(
        st.tuples(
            st.sampled_from(("a", "b", "c", "d")),
            st.sampled_from(("a", "b", "c", "d")),
        ).filter(lambda p: p[0] != p[1]),
        max_size=8,
    ),
    st.sets(
        st.tuples(
            st.sampled_from(("a", "b", "c", "d")),
            st.sampled_from(("a", "b", "c", "d")),
        ).filter(lambda p: p[0] != p[1]),
        max_size=8,
    ),
    st.lists(
        st.sets(st.sampled_from(("a", "b", "c", "d")), max_size=4),
        min_size=1,
        max_size=5,
    ),
)
def test_pair_set_order_equals_function_order(pairs_a, pairs_b, periods):
    """The representation theorem the learner relies on.

    With shared statistics: P1 ⊆ P2 iff f(P1) ⊑ f(P2), and
    P1 = P2 iff f(P1) = f(P2).
    """
    stats = CoExecutionStats(("a", "b", "c", "d"))
    for executed in periods:
        stats.add_period(executed)
    fa = Hypothesis(frozenset(pairs_a)).to_function(stats)
    fb = Hypothesis(frozenset(pairs_b)).to_function(stats)
    assert (pairs_a <= pairs_b) == fa.leq(fb)
    assert (pairs_a == pairs_b) == (fa == fb)
