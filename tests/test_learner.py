"""Unit tests for the learn_dependencies facade."""

import pytest

from repro.core.batch import BoundedLearner, ExactLearner
from repro.core.learner import learn_dependencies, make_learner
from repro.trace.synthetic import paper_figure2_trace


class TestFacade:
    def test_default_is_exact(self):
        result = learn_dependencies(paper_figure2_trace())
        assert result.algorithm == "exact"
        assert len(result.functions) == 5

    def test_bound_selects_heuristic(self):
        result = learn_dependencies(paper_figure2_trace(), bound=2)
        assert result.algorithm == "heuristic"
        assert result.bound == 2

    def test_max_hypotheses_forwarded(self):
        from repro.errors import LearningError

        with pytest.raises(LearningError):
            learn_dependencies(paper_figure2_trace(), max_hypotheses=1)

    def test_make_learner_types(self):
        assert isinstance(make_learner(("a",)), ExactLearner)
        assert isinstance(make_learner(("a",), bound=4), BoundedLearner)

    def test_tolerance_forwarded(self):
        # A huge tolerance makes every executed task a candidate for every
        # message; learning still succeeds and is more ambiguous.
        trace = paper_figure2_trace()
        strict = learn_dependencies(trace, bound=1)
        loose = learn_dependencies(trace, bound=1, tolerance=100.0)
        assert strict.unique.leq(loose.unique)
        assert strict.unique != loose.unique
