"""Unit tests for alternative weight functions (ablation support)."""

import pytest

from repro.core import lattice
from repro.core.batch import learn_bounded
from repro.core.matching import matches_trace
from repro.core.weights import (
    NAMED_DISTANCES,
    entry_count,
    is_monotone,
    linear_distance,
    square_distance,
)
from repro.trace.synthetic import paper_figure2_trace


class TestDistanceFunctions:
    def test_square_is_papers(self):
        for value in lattice.ALL_VALUES:
            assert square_distance(value) == lattice.distance(value)

    def test_linear_values(self):
        assert linear_distance(lattice.PARALLEL) == 0
        assert linear_distance(lattice.DETERMINES) == 1
        assert linear_distance(lattice.MAY_DETERMINE) == 2
        assert linear_distance(lattice.MAY_MUTUAL) == 3

    def test_entry_count_values(self):
        assert entry_count(lattice.PARALLEL) == 0
        for value in lattice.ALL_VALUES:
            if value is not lattice.PARALLEL:
                assert entry_count(value) == 1

    def test_square_and_linear_monotone(self):
        assert is_monotone(square_distance)
        assert is_monotone(linear_distance)

    def test_entry_count_not_strictly_monotone(self):
        # count collapses all non-parallel values: not strictly monotone,
        # which is exactly why it is the degenerate ablation point.
        assert not is_monotone(entry_count)

    def test_registry(self):
        assert set(NAMED_DISTANCES) == {"square", "linear", "count"}


class TestLearnerWithAlternativeWeights:
    @pytest.mark.parametrize("name", sorted(NAMED_DISTANCES))
    def test_soundness_any_weight(self, name):
        trace = paper_figure2_trace()
        result = learn_bounded(trace, 3, distance=NAMED_DISTANCES[name])
        for function in result.functions:
            assert matches_trace(function, trace)

    @pytest.mark.parametrize("name", sorted(NAMED_DISTANCES))
    def test_lemma_any_weight(self, name):
        trace = paper_figure2_trace()
        distance = NAMED_DISTANCES[name]
        reference = learn_bounded(trace, 1, distance=distance).unique
        for bound in (2, 4, 8):
            bounded = learn_bounded(trace, bound, distance=distance)
            assert bounded.lub() == reference

    def test_weight_choice_changes_merge_order(self):
        # Different weights can merge different pairs first; the final
        # LUB agrees (Lemma) but intermediate structure may differ.
        trace = paper_figure2_trace()
        square = learn_bounded(trace, 3, distance=square_distance)
        count = learn_bounded(trace, 3, distance=entry_count)
        assert square.lub() == count.lub()
