"""The interned pair-index bitmask kernel and its boundary invariants.

Unit tests for :mod:`repro.core.interning` (TaskTable / PairSet /
WeightKernel), the candidate memo, and the translation boundaries the
kernel must be invisible across: checkpoints, sharding, and the profile
JSON. The randomized end-to-end differential against the string kernel
lives in ``tests/property/test_interning_props.py``.
"""

import json

import pytest

from repro.core import reference
from repro.core.candidates import (
    candidate_cache_info,
    candidate_pairs,
    clear_candidate_cache,
)
from repro.core.checkpoint import checkpoint_to_dict, load_checkpoint, save_checkpoint
from repro.core.batch import BoundedLearner, learn_bounded, learn_exact
from repro.core.interning import PairSet, TaskTable, WeightKernel, task_table
from repro.core.sharded import learn_shard, merge_outcomes
from repro.core.stats import CoExecutionStats
from repro.core.weights import NAMED_DISTANCES
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import profiled_design
from repro.trace.synthetic import paper_figure2_trace

TASKS = ("t1", "t2", "t3", "t4")


def random_trace(profile: str, task_count: int, periods: int, seed: int):
    design = profiled_design(profile, task_count, seed=seed)
    config = SimulatorConfig(period_length=60.0 + 8.0 * task_count)
    return Simulator(design, config, seed=seed).run(periods).trace


class TestTaskTable:
    def test_ids_follow_sorted_name_order(self):
        table = TaskTable(("b", "c", "a"))
        assert table.ordered == ("a", "b", "c")
        assert [table.task_id(t) for t in ("a", "b", "c")] == [0, 1, 2]

    def test_pair_index_is_lexicographically_monotone(self):
        table = TaskTable(TASKS)
        pairs = sorted(
            (s, r) for s in TASKS for r in TASKS if s != r
        )
        indices = [table.pair_index(p) for p in pairs]
        assert indices == sorted(indices)

    def test_mask_round_trip(self):
        table = TaskTable(TASKS)
        pairs = frozenset({("t1", "t2"), ("t3", "t1"), ("t2", "t4")})
        mask = table.mask_of(pairs)
        assert table.pairs_of(mask) == pairs
        assert table.sorted_pairs_of(mask) == tuple(sorted(pairs))

    def test_mirror_mask_swaps_every_pair(self):
        table = TaskTable(TASKS)
        pairs = {("t1", "t2"), ("t3", "t4")}
        mirrored = table.pairs_of(table.mirror_mask(table.mask_of(pairs)))
        assert mirrored == {("t2", "t1"), ("t4", "t3")}

    def test_bits_of_preserves_candidate_order(self):
        table = TaskTable(TASKS)
        pairs = (("t1", "t2"), ("t1", "t3"), ("t2", "t3"))
        bits = table.bits_of(pairs)
        assert bits == tuple(table.pair_bit(p) for p in pairs)
        # Ascending bit value == the lexicographic candidate order.
        assert list(bits) == sorted(bits)

    def test_diagonal_pairs_are_rejected(self):
        table = TaskTable(TASKS)
        with pytest.raises(KeyError):
            table.pair_bit(("t1", "t1"))

    def test_tables_are_pure_functions_of_the_task_set(self):
        left = TaskTable(("a", "b", "c"))
        right = TaskTable(("c", "a", "b"))
        pairs = {("a", "c"), ("b", "a")}
        assert left.mask_of(pairs) == right.mask_of(pairs)

    def test_task_table_cache_shares_instances(self):
        assert task_table(("x", "y")) is task_table(("x", "y"))


class TestPairSet:
    UNIVERSE = [
        frozenset(),
        frozenset({("t1", "t2")}),
        frozenset({("t1", "t2"), ("t2", "t1")}),
        frozenset({("t1", "t3"), ("t2", "t4"), ("t4", "t2")}),
    ]

    def test_set_semantics_match_frozenset(self):
        table = TaskTable(TASKS)
        for a in self.UNIVERSE:
            for b in self.UNIVERSE:
                pa = PairSet.from_pairs(table, a)
                pb = PairSet.from_pairs(table, b)
                assert (pa | pb).to_pairs() == a | b
                assert (pa & pb).to_pairs() == a & b
                assert (pa <= pb) == (a <= b)
                assert (pa < pb) == (a < b)
                assert (pa == pb) == (a == b)
            assert len(PairSet.from_pairs(table, a)) == len(a)
            assert set(PairSet.from_pairs(table, a)) == a
            assert bool(PairSet.from_pairs(table, a)) == bool(a)

    def test_contains(self):
        table = TaskTable(TASKS)
        ps = PairSet.from_pairs(table, {("t1", "t2")})
        assert ("t1", "t2") in ps
        assert ("t2", "t1") not in ps
        assert ("t1", "t1") not in ps  # diagonal: never a member


def _random_stats(seed: int, tasks=TASKS) -> CoExecutionStats:
    import random

    rng = random.Random(seed)
    stats = CoExecutionStats(tasks)
    for _ in range(6):
        executed = {t for t in tasks if rng.random() < 0.7}
        if executed:
            stats.add_period(executed)
    return stats


class TestWeightKernel:
    PAIR_SETS = [
        frozenset(),
        frozenset({("t1", "t2")}),
        frozenset({("t1", "t2"), ("t2", "t1")}),
        frozenset({("t1", "t2"), ("t2", "t3"), ("t3", "t1")}),
        frozenset({("t1", "t4"), ("t4", "t1"), ("t2", "t3")}),
    ]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("distance_name", ["square", "linear"])
    def test_set_weight_matches_reference(self, seed, distance_name):
        distance = NAMED_DISTANCES[distance_name]
        stats = _random_stats(seed)
        table = TaskTable(TASKS)
        kernel = WeightKernel(table, stats, distance)
        for pairs in self.PAIR_SETS:
            assert kernel.set_weight(table.mask_of(pairs)) == (
                reference.set_weight(pairs, stats, distance)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_extension_delta_matches_reference(self, seed):
        stats = _random_stats(seed)
        table = TaskTable(TASKS)
        kernel = WeightKernel(table, stats)
        all_pairs = [(s, r) for s in TASKS for r in TASKS if s != r]
        for pairs in self.PAIR_SETS:
            mask = table.mask_of(pairs)
            for pair in all_pairs:
                assert kernel.extension_delta(mask, table.pair_bit(pair)) == (
                    reference.extension_delta(pairs, pair, stats)
                ), (sorted(pairs), pair)

    @pytest.mark.parametrize("seed", range(4))
    def test_union_delta_matches_reference(self, seed):
        stats = _random_stats(seed)
        table = TaskTable(TASKS)
        kernel = WeightKernel(table, stats)
        for base in self.PAIR_SETS:
            base_mask = table.mask_of(base)
            base_weight = reference.set_weight(base, stats)
            for other in self.PAIR_SETS:
                expected = reference.union_weight(
                    base, base_weight, other, stats
                )
                got = base_weight + kernel.union_delta(
                    base_mask, table.mask_of(other)
                )
                assert got == expected, (sorted(base), sorted(other))

    def test_flip_and_flip_delta_match_reference(self):
        stats = CoExecutionStats(TASKS)
        stats.add_period({"t1", "t2", "t3", "t4"})
        table = TaskTable(TASKS)
        kernel = WeightKernel(table, stats)
        # Flip happens: t4 idle while the rest run.
        before = {
            pairs: reference.set_weight(pairs, stats)
            for pairs in self.PAIR_SETS
        }
        dirty = stats.add_period({"t1", "t2", "t3"})
        assert dirty
        indices = table.indices_of(dirty)
        kernel.flip(indices)
        for pairs in self.PAIR_SETS:
            mask = table.mask_of(pairs)
            applied = before[pairs] + sum(
                kernel.flip_delta(mask, i) for i in indices
            )
            assert applied == reference.set_weight(pairs, stats)
            assert kernel.set_weight(mask) == reference.set_weight(pairs, stats)

    def test_unflip_restores_the_certain_terms(self):
        stats = CoExecutionStats(TASKS)
        stats.add_period({"t1", "t2", "t3", "t4"})
        table = TaskTable(TASKS)
        kernel = WeightKernel(table, stats)
        mask = table.mask_of({("t1", "t4"), ("t4", "t1")})
        certain_weight = kernel.set_weight(mask)
        executed = {"t1", "t2", "t3"}
        dirty = stats.add_period(executed)
        indices = table.indices_of(dirty)
        kernel.flip(indices)
        assert kernel.set_weight(mask) != certain_weight
        stats.remove_period(executed)
        kernel.unflip(indices)
        assert kernel.set_weight(mask) == certain_weight


class TestCertainFlags:
    @pytest.mark.parametrize("seed", range(5))
    def test_flags_agree_with_always_implies(self, seed):
        stats = _random_stats(seed)
        table = TaskTable(TASKS)
        flags = stats.certain_flags(table)
        for s in TASKS:
            for r in TASKS:
                index = table.pair_index((s, r))
                assert flags[index] == stats.always_implies(s, r)


class TestCandidateCache:
    def test_memoized_results_are_identical(self):
        trace = paper_figure2_trace()
        clear_candidate_cache()
        first = [
            candidate_pairs(period, message)
            for period in trace.periods
            for message in period.messages
        ]
        info = candidate_cache_info()
        assert info["misses"] == len(first)
        second = [
            candidate_pairs(period, message)
            for period in trace.periods
            for message in period.messages
        ]
        assert second == first
        info = candidate_cache_info()
        assert info["hits"] == len(first)

    def test_tolerance_is_part_of_the_key(self):
        trace = paper_figure2_trace()
        period = trace.periods[0]
        message = period.messages[0]
        clear_candidate_cache()
        loose = candidate_pairs(period, message, tolerance=1e9)
        tight = candidate_pairs(period, message, tolerance=0.0)
        assert set(tight) <= set(loose)
        assert candidate_cache_info()["misses"] == 2

    def test_cache_is_bounded(self):
        from repro.core.candidates import CandidateCache
        from repro.trace.synthetic import build_period

        cache = CandidateCache(capacity=2)
        periods = [
            build_period([("a", 0.0, 1.0), ("b", 3.0, 4.0)], [("m", 1.5, 2.0)])
            for _ in range(5)
        ]
        for period in periods:
            cache.get(period, period.messages[0], 0.0)
        assert cache.cache_info()["entries"] == 2
        assert cache.cache_info()["misses"] == 5


class TestLearnerIdentity:
    """The kernel is invisible: mask learners == string reference learners."""

    def test_bounded_identical_on_paper_trace(self):
        trace = paper_figure2_trace()
        for bound in (1, 2, 4, 8):
            new = learn_bounded(trace, bound)
            ref = reference.learn_bounded_reference(trace, bound)
            assert [h.pairs for h in new.hypotheses] == [
                h.pairs for h in ref.hypotheses
            ]
            assert new.functions == ref.functions
            assert new.merge_count == ref.merge_count
            assert new.peak_hypotheses == ref.peak_hypotheses

    def test_exact_identical_on_paper_trace(self):
        trace = paper_figure2_trace()
        new = learn_exact(trace)
        ref = reference.learn_exact_reference(trace)
        assert set(new.functions) == set(ref.functions)
        assert new.peak_hypotheses == ref.peak_hypotheses
        assert new.messages == ref.messages

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("profile", ["chain", "branchy", "mixed"])
    def test_bounded_identical_on_random_traces(self, profile, seed):
        trace = random_trace(profile, task_count=8, periods=8, seed=seed)
        new = learn_bounded(trace, 6)
        ref = reference.learn_bounded_reference(trace, 6)
        assert [h.pairs for h in new.hypotheses] == [
            h.pairs for h in ref.hypotheses
        ]
        assert new.functions == ref.functions
        assert new.merge_count == ref.merge_count

    def test_workers1_sharded_path_is_identical(self):
        trace = random_trace("mixed", task_count=8, periods=8, seed=7)
        outcome = learn_shard(trace.tasks, trace.periods, 8, 0.0)
        merged = merge_outcomes(trace.tasks, [outcome], 8, 1, 0.0)
        sequential = learn_bounded(trace, 8)
        reference_run = reference.learn_bounded_reference(trace, 8)
        assert merged.lub() == sequential.lub() == reference_run.lub()
        assert merged.periods == sequential.periods


class TestCheckpointBoundary:
    """Checkpoints keep the public string format across the mask kernel."""

    def test_checkpoint_json_pairs_are_sorted_strings(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed_trace(trace)
        data = checkpoint_to_dict(learner)
        for pair_list in data["hypotheses"]:
            as_tuples = [tuple(p) for p in pair_list]
            assert as_tuples == sorted(as_tuples)
            for s, r in as_tuples:
                assert isinstance(s, str) and isinstance(r, str)

    def test_round_trip_resumes_bit_identical(self, tmp_path):
        trace = random_trace("branchy", task_count=8, periods=8, seed=3)
        half = len(trace.periods) // 2

        whole = BoundedLearner(trace.tasks, bound=6)
        whole.feed_trace(trace)

        first = BoundedLearner(trace.tasks, bound=6)
        for period in trace.periods[:half]:
            first.feed(period)
        path = str(tmp_path / "mid.ckpt.json")
        save_checkpoint(first, path)
        resumed = load_checkpoint(path)
        for period in trace.periods[half:]:
            resumed.feed(period)

        assert [h.pairs for h in resumed.result().hypotheses] == [
            h.pairs for h in whole.result().hypotheses
        ]
        assert resumed.result().functions == whole.result().functions

    def test_round_trip_matches_reference_learner(self, tmp_path):
        trace = random_trace("mixed", task_count=8, periods=6, seed=5)
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed_trace(trace)
        path = str(tmp_path / "full.ckpt.json")
        save_checkpoint(learner, path)
        resumed = load_checkpoint(path)
        ref = reference.learn_bounded_reference(trace, 4)
        assert {h.pairs for h in resumed._hypotheses} == {
            h.pairs for h in ref.hypotheses
        }


class TestProfileJson:
    def test_pipeline_writes_profile(self, tmp_path):
        from repro.pipeline import PipelineConfig, run_pipeline

        path = str(tmp_path / "profile.json")
        run = run_pipeline(
            PipelineConfig(bound=4, profile_json=path),
            trace=paper_figure2_trace(),
        )
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
        assert [s["name"] for s in data["stages"]] == [
            t.name for t in run.timings
        ]
        assert data["learn"]["algorithm"] == "heuristic"
        assert data["learn"]["bound"] == 4
        assert data["hot_loop"]["periods"] == 3
        assert "process_seconds" in data["hot_loop"]
        assert data["total_seconds"] >= 0.0

    def test_profile_dict_without_learn_stage(self):
        from repro.pipeline import PipelineConfig, run_pipeline

        run = run_pipeline(
            PipelineConfig(learn=False, validate=True),
            trace=paper_figure2_trace(),
        )
        profile = run.profile()
        assert "learn" not in profile
        assert "hot_loop" not in profile

    def test_cli_profile_json_flag(self, tmp_path):
        import io

        from repro.cli import main
        from repro.trace.textio import save_trace

        trace_path = str(tmp_path / "t.log")
        save_trace(paper_figure2_trace(), trace_path)
        profile_path = str(tmp_path / "p.json")
        out = io.StringIO()
        code = main(
            [
                "learn", trace_path, "--bound", "4",
                "--profile-json", profile_path, "--quiet",
            ],
            out=out,
        )
        assert code == 0
        assert f"profile written to {profile_path}" in out.getvalue()
        with open(profile_path, encoding="utf-8") as stream:
            data = json.load(stream)
        assert data["learn"]["bound"] == 4
        assert data["hot_loop"]["messages"] > 0
