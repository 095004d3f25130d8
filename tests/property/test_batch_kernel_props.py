"""Property-based identity of the mask kernel (repro.core.batch).

The kernel must be *bit-for-bit* the string reference oracle
(:mod:`repro.core.reference`) on every trace — not statistically close,
identical. Random small systems are generated, simulated, and learned
both ways; every observable of the run must agree:

* the surviving hypothesis list, in order (order encodes the merge
  history, so equality here pins the whole exploration sequence);
* the materialized functions, the LUB, and its rendered graph;
* the run metadata the benchmark harness keys on (merge count, peak
  pool size, message count);
* the checkpoint JSON — including a mid-trace save and resume.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graph import DependencyGraph
from repro.core.batch import resolve_kernel
from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.learner import learn_dependencies, make_learner
from repro.core.reference import learn_bounded_reference
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


def assert_results_identical(left, right):
    """Every observable of two runs must agree."""
    assert left.hypotheses == right.hypotheses
    assert left.functions == right.functions
    assert left.lub() == right.lub()
    assert left.merge_count == right.merge_count
    assert left.peak_hypotheses == right.peak_hypotheses
    assert left.periods == right.periods
    assert left.messages == right.messages
    graph_left = DependencyGraph(left.lub()).to_dot()
    graph_right = DependencyGraph(right.lub()).to_dot()
    assert graph_left == graph_right


def test_resolve_kernel_registry():
    assert resolve_kernel("batch") == "batch"
    assert resolve_kernel("auto") == "batch"
    for retired in ("loop", "simd"):
        with pytest.raises(ValueError):
            resolve_kernel(retired)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500), st.integers(1, 8))
def test_batch_equals_reference_bounded(seed, bound):
    trace = small_trace(seed)
    reference = learn_bounded_reference(trace, bound)
    batch = learn_dependencies(trace, bound=bound)
    assert_results_identical(reference, batch)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 500), st.integers(2, 8))
def test_checkpoint_roundtrip_across_kernels(seed, bound):
    """Checkpoint mid-trace and resume under every accepted kernel name:
    the spliced run is bit-identical to an uninterrupted one, its final
    checkpoint JSON is byte-identical, and a retired name is refused."""
    trace = small_trace(seed, periods=6)
    half = len(trace.periods) // 2

    full = make_learner(trace.tasks, bound=bound)
    full.feed_trace(trace.periods)

    def dumps(learner):
        data = checkpoint_to_dict(learner)
        data.pop("elapsed")  # wall clock: varies with load
        return json.dumps(data)

    spliced = make_learner(trace.tasks, bound=bound)
    spliced.feed_trace(trace.periods[:half])
    saved = checkpoint_to_dict(spliced)
    for kernel in ("auto", "batch"):
        resumed = checkpoint_from_dict(saved, kernel=kernel)
        resumed.feed_trace(trace.periods[half:])
        assert_results_identical(full.result(), resumed.result())
        assert dumps(resumed) == dumps(full)
    with pytest.raises(ValueError):
        checkpoint_from_dict(saved, kernel="loop")
