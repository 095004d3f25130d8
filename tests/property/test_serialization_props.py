"""Property-based tests: every serialization layer round-trips exactly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import dumps_model, loads_model
from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.batch import BoundedLearner, learn_bounded
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design
from repro.systems.specio import dumps_design, loads_design
from repro.trace.jsonio import dumps_json, loads_json

CONFIG = RandomDesignConfig(task_count=6, ecu_count=2, layer_count=3)


def workload(seed: int, periods: int = 4):
    design = random_design(CONFIG, seed=seed)
    run = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    ).run(periods)
    return design, run


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_design_spec_roundtrip(seed):
    design = random_design(CONFIG, seed=seed)
    recovered = loads_design(dumps_design(design))
    assert recovered.task_names == design.task_names
    assert recovered.edges == design.edges
    for name in design.task_names:
        assert recovered.task(name) == design.task(name)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_model_json_roundtrip(seed):
    _design, run = workload(seed)
    model = learn_bounded(run.trace, 4).lub()
    assert loads_model(dumps_model(model)) == model


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_trace_json_roundtrip(seed):
    _design, run = workload(seed)
    recovered = loads_json(dumps_json(run.trace))
    for left, right in zip(run.trace.periods, recovered.periods):
        assert left.events == right.events


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 300), st.integers(1, 8))
def test_checkpoint_resume_equals_continuous(seed, bound):
    design, run = workload(seed, periods=6)
    continuous = BoundedLearner(run.trace.tasks, bound=bound)
    continuous.feed_trace(run.trace)
    split = BoundedLearner(run.trace.tasks, bound=bound)
    for period in run.trace.periods[:3]:
        split.feed(period)
    resumed = checkpoint_from_dict(checkpoint_to_dict(split))
    for period in run.trace.periods[3:]:
        resumed.feed(period)
    assert set(resumed.result().functions) == set(
        continuous.result().functions
    )
