"""Unit tests for random design generation."""

import pytest

from repro.systems.random_gen import RandomDesignConfig, random_design
from repro.systems.semantics import enumerate_behaviors


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomDesignConfig(task_count=1)
        with pytest.raises(ValueError):
            RandomDesignConfig(layer_count=1)
        with pytest.raises(ValueError):
            RandomDesignConfig(ecu_count=0)
        with pytest.raises(ValueError):
            RandomDesignConfig(extra_edge_probability=1.5)
        with pytest.raises(ValueError):
            RandomDesignConfig(disjunction_probability=-0.1)


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = RandomDesignConfig(task_count=12)
        left = random_design(config, seed=3)
        right = random_design(config, seed=3)
        assert left.task_names == right.task_names
        assert left.edges == right.edges

    def test_different_seeds_differ(self):
        config = RandomDesignConfig(task_count=12)
        left = random_design(config, seed=1)
        right = random_design(config, seed=2)
        assert left.edges != right.edges

    def test_requested_task_count(self):
        for count in (5, 10, 20):
            design = random_design(RandomDesignConfig(task_count=count), seed=0)
            assert len(design) == count

    def test_every_nonsource_reachable(self):
        design = random_design(RandomDesignConfig(task_count=15), seed=4)
        for task in design:
            if not task.is_source:
                assert design.in_edges(task.name)

    def test_designs_are_valid_and_enumerable(self):
        for seed in range(5):
            design = random_design(RandomDesignConfig(task_count=10), seed=seed)
            behaviors = enumerate_behaviors(design, max_behaviors=50_000)
            assert behaviors

    def test_ecu_count_respected(self):
        design = random_design(
            RandomDesignConfig(task_count=12, ecu_count=2), seed=0
        )
        assert len(design.ecus()) <= 2

    def test_no_disjunctions_when_probability_zero(self):
        design = random_design(
            RandomDesignConfig(task_count=12, disjunction_probability=0.0),
            seed=0,
        )
        assert all(not e.conditional for e in design.edges)


class TestTopologyProfiles:
    def test_all_profiles_build(self):
        from repro.systems.random_gen import TOPOLOGY_PROFILES, profiled_design

        for profile in TOPOLOGY_PROFILES:
            design = profiled_design(profile, 9, seed=1)
            assert len(design) == 9

    def test_unknown_profile(self):
        from repro.systems.random_gen import profiled_design

        with pytest.raises(ValueError, match="unknown topology"):
            profiled_design("spiral", 6)

    def test_profiles_differ_structurally(self):
        from repro.systems.random_gen import profiled_design

        chain = profiled_design("chain", 9, seed=1)
        branchy = profiled_design("branchy", 9, seed=1)
        chain_conditionals = sum(1 for e in chain.edges if e.conditional)
        branchy_conditionals = sum(1 for e in branchy.edges if e.conditional)
        assert chain_conditionals == 0
        assert branchy_conditionals > 0

    def test_profiles_simulate_and_learn(self):
        from repro.core.batch import learn_bounded
        from repro.sim.simulator import Simulator, SimulatorConfig
        from repro.systems.random_gen import TOPOLOGY_PROFILES, profiled_design

        for profile in TOPOLOGY_PROFILES:
            design = profiled_design(profile, 8, seed=2)
            trace = Simulator(
                design, SimulatorConfig(period_length=160.0), seed=2
            ).run(5).trace
            result = learn_bounded(trace, 4)
            assert result.functions
