"""Unit tests for the executable theorem checks (paper Section 4)."""

import pytest

from repro.core.batch import learn_bounded, learn_exact
from repro.theory.theorems import (
    brute_force_most_specific,
    check_convergence,
    check_correctness,
    check_lemma,
    check_optimality,
    feasible_pair_universe,
)
from repro.trace.synthetic import paper_figure2_trace, serial_chain_trace


class TestCorrectness:
    def test_exact_on_paper_trace(self, paper_exact_result, paper_trace):
        check = check_correctness(paper_exact_result, paper_trace)
        assert check.holds

    def test_heuristic_all_bounds(self, paper_trace):
        for bound in (1, 2, 3, 10):
            result = learn_bounded(paper_trace, bound)
            assert check_correctness(result, paper_trace).holds

    def test_violation_detected(self, paper_trace):
        # A deliberately wrong result: claim everything is parallel.
        from repro.core.depfunc import DependencyFunction
        from repro.core.hypothesis import Hypothesis
        from repro.core.result import LearningResult
        from repro.core.stats import CoExecutionStats

        stats = CoExecutionStats(paper_trace.tasks)
        bogus = LearningResult(
            functions=[DependencyFunction.bottom(paper_trace.tasks)],
            hypotheses=[Hypothesis.most_specific()],
            stats=stats,
            algorithm="exact",
        )
        check = check_correctness(bogus, paper_trace)
        assert not check.holds
        assert "VIOLATED" in str(check)


class TestOptimality:
    def test_universe_of_paper_trace(self, paper_trace):
        universe = feasible_pair_universe(paper_trace)
        assert universe == {
            ("t1", "t2"),
            ("t1", "t3"),
            ("t1", "t4"),
            ("t2", "t4"),
            ("t3", "t4"),
        }

    def test_brute_force_matches_exact(self, paper_trace, paper_exact_result):
        expected = brute_force_most_specific(paper_trace)
        assert set(expected) == set(paper_exact_result.functions)

    def test_check_optimality_passes(self, paper_trace, paper_exact_result):
        assert check_optimality(paper_exact_result, paper_trace).holds

    def test_check_optimality_flags_heuristic_loss(self, paper_trace):
        # bound=1 merges everything: the single hypothesis is *not* the
        # most-specific set.
        result = learn_bounded(paper_trace, 1)
        assert not check_optimality(result, paper_trace).holds

    def test_brute_force_cap(self, paper_trace):
        with pytest.raises(ValueError, match="capped"):
            brute_force_most_specific(paper_trace, max_universe=2)

    def test_optimality_on_chain(self):
        trace = serial_chain_trace(3, 2)
        result = learn_exact(trace)
        assert check_optimality(result, trace).holds


class TestLemmaAndConvergence:
    def test_lemma_on_paper_trace(self, paper_trace):
        for bound in (1, 2, 3, 5, 20):
            assert check_lemma(paper_trace, bound).holds

    def test_lemma_on_chain(self):
        trace = serial_chain_trace(5, 4)
        for bound in (1, 2, 8):
            assert check_lemma(trace, bound).holds

    def test_convergence_theorem(self, paper_trace):
        check = check_convergence(paper_trace, [1, 2, 3, 5, 10, 100])
        assert check.holds

    def test_convergence_on_chain(self):
        assert check_convergence(serial_chain_trace(4, 4), [1, 2, 4, 16]).holds
