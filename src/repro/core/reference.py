"""The string-frozenset reference kernel (differential baseline).

This module preserves, verbatim in behavior, the pair-set representation
the learners used before the interned bitmask kernel
(:mod:`repro.core.interning`) replaced it: hypotheses as
``frozenset[tuple[str, str]]``, weights evaluated through
:func:`pair_value`, and the bounded heuristic's working list operating
on those frozensets. It exists for three reasons:

* the **property tests** pin the bitmask kernel against it — on
  randomized traces both kernels must produce identical hypothesis
  pools, weights and final dependency graphs;
* the **throughput benchmarks** measure the kernel speedup against it
  on the same machine (the acceptance bar for the rewrite);
* the weight helpers (:func:`set_weight`, :func:`flip_delta`, ...) are
  the readable, by-the-paper statement of Definition 8 that the kernel's
  term tables are checked against.

Nothing in the production paths imports this module; it is test and
benchmark surface only.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Iterable, Sequence

from repro.core import lattice
from repro.core.base import IncrementalLearner
from repro.core.candidates import candidate_pairs
from repro.core.hypothesis import Hypothesis, Pair
from repro.core.result import LearningResult
from repro.core.stats import CoExecutionStats
from repro.core.weights import DistanceFunction, square_distance
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.trace.period import Period
from repro.trace.trace import Trace

_PoolKey = tuple[frozenset, frozenset]


def pair_value(
    pairs: frozenset[Pair], a: str, b: str, stats: CoExecutionStats
) -> lattice.DepValue:
    """Dependency value of ``(a, b)`` for a raw pair set (O(1))."""
    forward = (a, b) in pairs
    backward = (b, a) in pairs
    if not forward and not backward:
        return lattice.PARALLEL
    certain = stats.always_implies(a, b)
    value = lattice.PARALLEL
    if forward:
        value = lattice.DETERMINES if certain else lattice.MAY_DETERMINE
    if backward:
        back = lattice.DEPENDS if certain else lattice.MAY_DEPEND
        value = lattice.lub(value, back)
    return value


def extension_delta(
    pairs: frozenset[Pair],
    pair: Pair,
    stats: CoExecutionStats,
    distance: DistanceFunction = lattice.distance,
) -> int:
    """Weight change from adding *pair* to *pairs*."""
    if pair in pairs:
        return 0
    s, r = pair
    extended = pairs | {pair}
    return (
        distance(pair_value(extended, s, r, stats))
        - distance(pair_value(pairs, s, r, stats))
        + distance(pair_value(extended, r, s, stats))
        - distance(pair_value(pairs, r, s, stats))
    )


def union_weight(
    base_pairs: frozenset[Pair],
    base_weight: int,
    other_pairs: frozenset[Pair],
    stats: CoExecutionStats,
    distance: DistanceFunction = lattice.distance,
) -> int:
    """Weight of ``base ∪ other`` given the weight of ``base``."""
    new_pairs = other_pairs - base_pairs
    if not new_pairs:
        return base_weight
    union = base_pairs | new_pairs
    touched: set[Pair] = set()
    for a, b in new_pairs:
        touched.add((a, b))
        touched.add((b, a))
    weight = base_weight
    for a, b in touched:
        weight += distance(pair_value(union, a, b, stats))
        weight -= distance(pair_value(base_pairs, a, b, stats))
    return weight


def set_weight(
    pairs: frozenset[Pair],
    stats: CoExecutionStats,
    distance: DistanceFunction = lattice.distance,
) -> int:
    """Weight of a pair set from scratch (plain Definition 8)."""
    touched: set[Pair] = set()
    for a, b in pairs:
        touched.add((a, b))
        touched.add((b, a))
    return sum(distance(pair_value(pairs, a, b, stats)) for a, b in touched)


def flip_delta(
    pairs: frozenset[Pair],
    s: str,
    r: str,
    distance: DistanceFunction = lattice.distance,
) -> int:
    """Weight change when ``always_implies(s, r)`` flips certain → uncertain.

    Only the weight term of the ordered pair ``(s, r)`` is affected, and
    only if the pair set touches it. The flipped term's old and new values
    follow directly from which memberships contribute to it — the
    statistics need not be consulted at all (that is the point: by the
    time the delta is applied the old verdict is gone from the stats).
    """
    forward = (s, r) in pairs
    backward = (r, s) in pairs
    if forward and backward:
        return distance(lattice.MAY_MUTUAL) - distance(lattice.MUTUAL)
    if forward:
        return distance(lattice.MAY_DETERMINE) - distance(lattice.DETERMINES)
    if backward:
        return distance(lattice.MAY_DEPEND) - distance(lattice.DEPENDS)
    return 0


class ReferenceBoundedLearner(IncrementalLearner):
    """The pre-kernel bounded heuristic, kept as a differential baseline.

    Same algorithm, parameters and output as
    :class:`~repro.core.batch.BoundedLearner`; the working list holds
    :class:`~repro.core.hypothesis.Hypothesis` objects and every hot-loop
    operation goes through string-tuple frozensets.
    """

    def __init__(
        self,
        tasks: Iterable[str],
        bound: int,
        tolerance: float = 0.0,
        distance: DistanceFunction = lattice.distance,
        incremental_weights: bool = True,
    ):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        super().__init__(tasks, tolerance)
        self.bound = bound
        self.distance = distance
        self._incremental = incremental_weights
        self._prime_memo = incremental_weights and (
            distance is lattice.distance or distance is square_distance
        )
        self._hypotheses: list[Hypothesis] = [Hypothesis.most_specific()]
        self._weights: dict[frozenset, int] = {frozenset(): 0}
        self._merges = 0
        self._sequence = itertools.count()

    def _save_run_state(self) -> object:
        return (self._messages, self._peak, self._merges)

    def _restore_run_state(self, state: object) -> None:
        self._messages, self._peak, self._merges = state

    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ) -> list[tuple[Hypothesis, int]]:
        counters = self._counters
        entries = self._refresh_weights(dirty)
        now = time.perf_counter()
        counters.refresh_seconds += now - mark
        mark = now
        history: list[Sequence[Pair]] = []
        for message in period.messages:
            pairs = candidate_pairs(period, message, self.tolerance)
            if not pairs:
                raise EmptyHypothesisSpaceError(self._periods)
            counters.observe_candidates(len(pairs))
            history.append(pairs)
            entries = self._process_message(entries, pairs, history)
            self._messages += 1
            self._peak = max(self._peak, len(entries))
        counters.process_seconds += time.perf_counter() - mark
        return entries

    def _finish_period(
        self, pending: list[tuple[Hypothesis, int]], dirty: frozenset[tuple[str, str]]
    ) -> None:
        by_pairs: dict[frozenset, Hypothesis] = {}
        weights: dict[frozenset, int] = {}
        for hypothesis, weight in pending:
            by_pairs[hypothesis.pairs] = hypothesis.end_period()
            weights[hypothesis.pairs] = weight
        self._hypotheses = list(by_pairs.values())
        if self._incremental:
            self._weights = weights
        if self._prime_memo:
            version = self.stats.version
            for hypothesis in self._hypotheses:
                hypothesis.prime_weight(version, weights[hypothesis.pairs])

    def _refresh_weights(self, dirty: frozenset[Pair]) -> list[tuple[Hypothesis, int]]:
        counters = self._counters
        entries: list[tuple[Hypothesis, int]] = []
        for hypothesis in self._hypotheses:
            carried = (
                self._weights.get(hypothesis.pairs)
                if self._incremental
                else None
            )
            if carried is None:
                weight = set_weight(hypothesis.pairs, self.stats, self.distance)
                counters.weight_refresh_scratch += 1
                counters.weight_scratch_calls += 1
            else:
                weight = carried
                if dirty:
                    pairs = hypothesis.pairs
                    for s, r in dirty:
                        weight += flip_delta(pairs, s, r, self.distance)
                counters.weight_refresh_incremental += 1
            entries.append((hypothesis, weight))
        return entries

    def _process_message(
        self,
        entries: list[tuple[Hypothesis, int]],
        pairs: Sequence[Pair],
        history: Sequence[Sequence[Pair]],
    ) -> list[tuple[Hypothesis, int]]:
        pool: dict[_PoolKey, tuple[Hypothesis, int]] = {}
        heap: list[tuple[int, int, _PoolKey]] = []

        def insert(hypothesis: Hypothesis, weight: int) -> None:
            key = (hypothesis.pairs, hypothesis.period_pairs)
            if key in pool:
                return
            pool[key] = (hypothesis, weight)
            heapq.heappush(heap, (weight, next(self._sequence), key))
            while len(pool) > self.bound:
                first = self._pop_lightest(pool, heap)
                second = self._pop_lightest(pool, heap)
                merged = first[0].merge(second[0])
                merged_weight = union_weight(
                    first[0].pairs,
                    first[1],
                    second[0].pairs,
                    self.stats,
                    self.distance,
                )
                self._merges += 1
                merged_key = (merged.pairs, merged.period_pairs)
                if merged_key not in pool:
                    pool[merged_key] = (merged, merged_weight)
                    heapq.heappush(
                        heap, (merged_weight, next(self._sequence), merged_key)
                    )

        for hypothesis, weight in entries:
            feasible = [p for p in pairs if hypothesis.can_extend(p)]
            if feasible:
                for pair in feasible:
                    child = hypothesis.extend(pair)
                    child_weight = weight + extension_delta(
                        hypothesis.pairs, pair, self.stats, self.distance
                    )
                    insert(child, child_weight)
            else:
                repaired = self._reassign_period(hypothesis, history)
                self._counters.reassignments += 1
                if repaired is not None:
                    self._counters.weight_scratch_calls += 1
                    insert(
                        repaired,
                        set_weight(repaired.pairs, self.stats, self.distance),
                    )
        if not pool:
            raise EmptyHypothesisSpaceError(self._periods)
        return list(pool.values())

    @staticmethod
    def _reassign_period(
        hypothesis: Hypothesis, history: Sequence[Sequence[Pair]]
    ) -> Hypothesis | None:
        options = sorted(
            (
                sorted(candidates, key=lambda p: p not in hypothesis.pairs),
                index,
            )
            for index, candidates in enumerate(history)
        )
        options.sort(key=lambda item: len(item[0]))
        assignment: list[Pair] = []
        used: set[Pair] = set()

        def backtrack(position: int) -> bool:
            if position == len(options):
                return True
            for pair in options[position][0]:
                if pair in used:
                    continue
                used.add(pair)
                assignment.append(pair)
                if backtrack(position + 1):
                    return True
                used.discard(pair)
                assignment.pop()
            return False

        if not backtrack(0):
            return None
        chosen = frozenset(assignment)
        current = frozenset(history[-1])
        return Hypothesis(hypothesis.pairs | chosen | current, chosen)

    @staticmethod
    def _pop_lightest(
        pool: dict[_PoolKey, tuple[Hypothesis, int]],
        heap: list[tuple[int, int, _PoolKey]],
    ) -> tuple[Hypothesis, int]:
        while True:
            _weight, _seq, key = heapq.heappop(heap)
            entry = pool.pop(key, None)
            if entry is not None:
                return entry

    def result(self) -> LearningResult:
        ordered = sorted(
            self._hypotheses,
            key=lambda h: (h.weight(self.stats), sorted(h.pairs)),
        )
        return LearningResult(
            functions=[h.to_function(self.stats) for h in ordered],
            hypotheses=ordered,
            stats=self.stats,
            algorithm="heuristic",
            bound=self.bound,
            periods=self._periods,
            messages=self._messages,
            peak_hypotheses=self._peak,
            elapsed_seconds=self._elapsed,
            merge_count=self._merges,
            hot_loop=self._counters.copy(),
        )


def _remove_redundant(pair_sets: Iterable[frozenset[Pair]]) -> list[frozenset[Pair]]:
    """Keep only minimal pair sets under inclusion (string form)."""
    unique = set(pair_sets)
    by_size = sorted(unique, key=len)
    minimal: list[frozenset[Pair]] = []
    for candidate in by_size:
        if not any(kept < candidate for kept in minimal):
            minimal.append(candidate)
    return minimal


class ReferenceExactLearner(IncrementalLearner):
    """The pre-kernel exact learner, kept as a differential baseline."""

    def __init__(
        self,
        tasks: Iterable[str],
        tolerance: float = 0.0,
        max_hypotheses: int = 2_000_000,
    ):
        super().__init__(tasks, tolerance)
        self.max_hypotheses = max_hypotheses
        self._hypotheses: list[Hypothesis] = [Hypothesis.most_specific()]

    def _save_run_state(self) -> object:
        return (self._messages, self._peak)

    def _restore_run_state(self, state: object) -> None:
        self._messages, self._peak = state

    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ) -> list[Hypothesis]:
        counters = self._counters
        current = self._hypotheses
        for message in period.messages:
            pairs = candidate_pairs(period, message, self.tolerance)
            counters.observe_candidates(len(pairs))
            next_generation: dict[tuple[frozenset, frozenset], Hypothesis] = {}
            for hypothesis in current:
                for pair in pairs:
                    if not hypothesis.can_extend(pair):
                        continue
                    extended = hypothesis.extend(pair)
                    next_generation[extended.pairs, extended.period_pairs] = extended
            if not next_generation:
                raise EmptyHypothesisSpaceError(self._periods, len(pairs))
            if len(next_generation) > self.max_hypotheses:
                raise LearningError(
                    f"exact learner exceeded {self.max_hypotheses} hypotheses "
                    f"in period {self._periods}; use the bounded heuristic"
                )
            current = list(next_generation.values())
            self._messages += 1
            self._peak = max(self._peak, len(current))
        counters.process_seconds += time.perf_counter() - mark
        return current

    def _finish_period(self, pending: list[Hypothesis], dirty: frozenset[tuple[str, str]]) -> None:
        minimal = _remove_redundant(h.pairs for h in pending)
        self._hypotheses = [Hypothesis(pairs) for pairs in minimal]

    def result(self) -> LearningResult:
        ordered = sorted(
            self._hypotheses,
            key=lambda h: (h.weight(self.stats), sorted(h.pairs)),
        )
        return LearningResult(
            functions=[h.to_function(self.stats) for h in ordered],
            hypotheses=ordered,
            stats=self.stats,
            algorithm="exact",
            bound=None,
            periods=self._periods,
            messages=self._messages,
            peak_hypotheses=self._peak,
            elapsed_seconds=self._elapsed,
            hot_loop=self._counters.copy(),
        )


def learn_bounded_reference(
    trace: Trace,
    bound: int,
    tolerance: float = 0.0,
    distance: DistanceFunction = lattice.distance,
) -> LearningResult:
    """Run the reference (string-kernel) bounded heuristic over a trace."""
    learner = ReferenceBoundedLearner(trace.tasks, bound, tolerance, distance)
    learner.feed_trace(trace)
    return learner.result()


def learn_exact_reference(
    trace: Trace,
    tolerance: float = 0.0,
    max_hypotheses: int = 2_000_000,
) -> LearningResult:
    """Run the reference (string-kernel) exact algorithm over a trace."""
    learner = ReferenceExactLearner(trace.tasks, tolerance, max_hypotheses)
    learner.feed_trace(trace)
    return learner.result()


__all__ = [
    "pair_value",
    "extension_delta",
    "union_weight",
    "set_weight",
    "flip_delta",
    "ReferenceBoundedLearner",
    "ReferenceExactLearner",
    "learn_bounded_reference",
    "learn_exact_reference",
]
