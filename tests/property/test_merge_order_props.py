"""Merge-order properties: the shard LUB fold is order- and shape-free.

The fault-tolerant runtime (:mod:`repro.core.shardexec`) completes
shards in whatever order retries, pool rebuilds, and bisection happen to
produce, and bisection replaces a shard with a finer partition of the
same periods. These properties pin why none of that can change the
answer: :func:`~repro.core.sharded.merge_outcomes` is a commutative,
associative fold (mask union + stats sum), so any permutation of the
outcomes and any split-refinement of the shard partition yields an
identical pair-set mask and identical summed statistics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import learn_bounded
from repro.core.matching import matches_trace
from repro.core.sharded import learn_shard, merge_outcomes, split_periods
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

SMALL = RandomDesignConfig(
    task_count=5,
    ecu_count=2,
    layer_count=3,
    extra_edge_probability=0.15,
    disjunction_probability=0.3,
)


def small_trace(seed: int, periods: int = 6):
    design = random_design(SMALL, seed=seed)
    simulator = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    )
    return simulator.run(periods).trace


def shard_outcomes(trace, shards, bound):
    return [
        learn_shard(trace.tasks, shard, bound, 0.0) for shard in shards
    ]


def stats_dict(stats):
    """The raw counts of a :class:`CoExecutionStats` for exact comparison."""
    return (
        dict(stats._exclusive),
        dict(stats._executions),
        stats.period_count,
    )


def refine(shards, cuts):
    """Bisect each shard once at the given relative cut points.

    Mirrors what the runtime's bisection does to a repeatedly-failing
    shard: replace it with contiguous sub-shards covering the same
    periods. ``cuts[i] == 0`` leaves shard *i* whole.
    """
    fine = []
    for shard, cut in zip(shards, cuts):
        point = cut % len(shard)
        if point == 0:
            fine.append(shard)
        else:
            fine.append(shard[:point])
            fine.append(shard[point:])
    return fine


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 500),
    st.integers(1, 12),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_merge_is_permutation_invariant(seed, bound, workers, rng):
    """Any completion order of the same outcomes merges identically."""
    trace = small_trace(seed)
    outcomes = shard_outcomes(trace, split_periods(trace.periods, workers), bound)
    shuffled = list(outcomes)
    rng.shuffle(shuffled)
    base = merge_outcomes(trace.tasks, outcomes, bound, workers, 0.0)
    other = merge_outcomes(trace.tasks, shuffled, bound, workers, 0.0)
    assert [h.pairs for h in other.hypotheses] == [
        h.pairs for h in base.hypotheses
    ]
    assert other.functions == base.functions
    assert other.lub() == base.lub()
    assert stats_dict(other.stats) == stats_dict(base.stats)
    assert (other.periods, other.messages) == (base.periods, base.messages)
    assert other.merge_count == base.merge_count


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 500),
    st.integers(1, 12),
    st.integers(1, 4),
    st.lists(st.integers(0, 11), min_size=4, max_size=4),
)
def test_merge_is_refinement_invariant(seed, bound, workers, cuts):
    """Bisecting shards (what the runtime does on repeated failure)
    yields an identical pair-set mask and identical summed stats."""
    trace = small_trace(seed)
    shards = split_periods(trace.periods, workers)
    fine = refine(shards, cuts)
    coarse = shard_outcomes(trace, shards, bound)
    refined = shard_outcomes(trace, fine, bound)

    coarse_mask = 0
    for outcome in coarse:
        coarse_mask |= outcome.pairs_mask
    fine_mask = 0
    for outcome in refined:
        fine_mask |= outcome.pairs_mask
    assert fine_mask == coarse_mask

    base = merge_outcomes(trace.tasks, coarse, bound, workers, 0.0)
    other = merge_outcomes(trace.tasks, refined, bound, workers, 0.0)
    assert other.functions == base.functions
    assert other.lub() == base.lub()
    assert stats_dict(other.stats) == stats_dict(base.stats)
    assert (other.periods, other.messages) == (base.periods, base.messages)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 12), st.integers(2, 6))
def test_merged_stats_equal_sequential_stats(seed, bound, workers):
    """Summed shard statistics are *exactly* the sequential run's —
    the certainty dimension of the merge is a theorem, not a LUB."""
    trace = small_trace(seed)
    outcomes = shard_outcomes(trace, split_periods(trace.periods, workers), bound)
    merged = merge_outcomes(trace.tasks, outcomes, bound, workers, 0.0)
    sequential = learn_bounded(trace, bound)
    assert stats_dict(merged.stats) == stats_dict(sequential.stats)
    assert matches_trace(merged.lub(), trace)
    # Soundness direction of Theorem 2: the merged model can only
    # generalize the sequential LUB, never drop a dependency pair.
    assert sequential.lub().leq(merged.lub())
