"""Unit tests for the exact generalization algorithm (paper Section 3.1).

The core fixture is the paper's own worked example: Section 3.3 publishes
the complete hypothesis tables after period 1 (``d21, d22, d23``), the
five survivors after period 3 (``d81 ... d85``) and their LUB; these tests
assert our learner reproduces all of them *verbatim*.
"""

import pytest

from repro.core.depfunc import DependencyFunction
from repro.core.batch import ExactLearner, learn_exact
from repro.core.lattice import parse_value
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.trace.synthetic import (
    build_trace,
    paper_figure2_trace,
    serial_chain_trace,
)

PAPER_TASKS = ("t1", "t2", "t3", "t4")


def table(rows: str) -> DependencyFunction:
    """Build a 4-task dependency function from a compact row string.

    ``rows`` lists the 16 matrix cells row by row using the paper's
    notation, e.g. ``"|| -> || || <- || || || ..."``.
    """
    cells = rows.split()
    assert len(cells) == 16
    entries = {}
    for i, a in enumerate(PAPER_TASKS):
        for j, b in enumerate(PAPER_TASKS):
            if a != b:
                entries[a, b] = parse_value(cells[4 * i + j])
    return DependencyFunction(PAPER_TASKS, entries)


# The paper's post-period-1 hypotheses (Section 3.3).
D21 = table("""
    ||  ->  ||  ->
    <-  ||  ||  ||
    ||  ||  ||  ||
    <-  ||  ||  ||
""")
D22 = table("""
    ||  ->  ||  ||
    <-  ||  ||  ->
    ||  ||  ||  ||
    ||  <-  ||  ||
""")
D23 = table("""
    ||  ||  ||  ->
    ||  ||  ||  ->
    ||  ||  ||  ||
    <-  <-  ||  ||
""")

# The paper's five post-period-3 survivors.
D81 = table("""
    ||  ->? ->? ->
    <-  ||  ||  ||
    <-  ||  ||  ->
    <-  ||  <-? ||
""")
D82 = table("""
    ||  ||  ->? ->
    ||  ||  ||  ->
    <-  ||  ||  ->
    <-  <-? <-? ||
""")
D83 = table("""
    ||  ->? ||  ->
    <-  ||  ||  ->
    ||  ||  ||  ->
    <-  <-? <-? ||
""")
D84 = table("""
    ||  ->? ->? ->
    <-  ||  ||  ->
    <-  ||  ||  ||
    <-  <-? ||  ||
""")
D85 = table("""
    ||  ->? ->? ||
    <-  ||  ||  ->
    <-  ||  ||  ->
    ||  <-? <-? ||
""")

DLUB = table("""
    ||  ->? ->? ->
    <-  ||  ||  ->
    <-  ||  ||  ->
    <-  <-? <-? ||
""")


class TestPaperExample:
    def test_after_period_one(self):
        learner = ExactLearner(PAPER_TASKS)
        learner.feed(paper_figure2_trace()[0])
        functions = set(learner.result().functions)
        assert functions == {D21, D22, D23}

    def test_final_five_hypotheses(self, paper_exact_result):
        assert set(paper_exact_result.functions) == {D81, D82, D83, D84, D85}

    def test_final_lub_matches_paper(self, paper_exact_result):
        assert paper_exact_result.lub() == DLUB

    def test_does_not_converge(self, paper_exact_result):
        assert not paper_exact_result.converged
        with pytest.raises(ValueError):
            _ = paper_exact_result.unique

    def test_metadata(self, paper_exact_result):
        assert paper_exact_result.algorithm == "exact"
        assert paper_exact_result.bound is None
        assert paper_exact_result.periods == 3
        assert paper_exact_result.messages == 8
        assert paper_exact_result.peak_hypotheses >= 5

    def test_figure4_headline_result(self, paper_exact_result):
        # "t1 always determines t4" even though each branch is conditional.
        assert str(paper_exact_result.lub().value("t1", "t4")) == "->"


class TestIncremental:
    def test_periods_fed_one_at_a_time_match_batch(self):
        trace = paper_figure2_trace()
        learner = ExactLearner(trace.tasks)
        for period in trace:
            learner.feed(period)
        assert set(learner.result().functions) == set(
            learn_exact(trace).functions
        )

    def test_hypothesis_count_shrinks_with_evidence(self):
        trace = paper_figure2_trace()
        learner = ExactLearner(trace.tasks)
        learner.feed(trace[0])
        after_one = learner.hypothesis_count
        learner.feed(trace[1])
        after_two = learner.hypothesis_count
        assert after_one == 3
        assert after_two == 5

    def test_two_task_chain_converges(self):
        result = learn_exact(serial_chain_trace(2, 3))
        assert result.converged
        chain = result.unique
        assert str(chain.value("t0", "t1")) == "->"
        assert str(chain.value("t1", "t0")) == "<-"

    def test_longer_chain_stays_ambiguous_but_sound(self):
        # A serialized chain's bus trace admits many minimal explanations
        # (any later task is a temporally possible receiver), so the exact
        # learner keeps several incomparable hypotheses; their LUB still
        # certifies the true chain ordering.
        result = learn_exact(serial_chain_trace(4, 3))
        assert len(result.functions) > 1
        for left in result.functions:
            for right in result.functions:
                if left != right:
                    assert not left.leq(right)
        lub = result.lub()
        for a, b in (("t0", "t1"), ("t1", "t2"), ("t2", "t3")):
            assert str(lub.value(a, b)) == "->"


class TestFailureModes:
    def test_unexplainable_message_empties_space(self):
        # The only candidate pair is consumed by the first message; the
        # second identical-window message cannot be explained.
        trace = build_trace(
            ("a", "b"),
            [
                (
                    [("a", 0.0, 1.0), ("b", 3.0, 4.0)],
                    [("m1", 1.1, 1.3), ("m2", 1.5, 1.7)],
                )
            ],
        )
        with pytest.raises(EmptyHypothesisSpaceError):
            learn_exact(trace)

    def test_hypothesis_cap(self):
        trace = paper_figure2_trace()
        with pytest.raises(LearningError, match="exceeded"):
            learn_exact(trace, max_hypotheses=2)

    def test_result_functions_sorted_by_weight(self, paper_exact_result):
        weights = [f.weight() for f in paper_exact_result.functions]
        assert weights == sorted(weights)
