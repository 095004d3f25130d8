"""The mask kernel: the paper's exact and bounded learners.

Both learners keep their hypothesis pool as pair-index bitmasks over one
:class:`~repro.core.interning.TaskTable` (see
:class:`~repro.core.base.MaskedLearner`) and run every per-message step
as bulk bitwise operations over ``uint64`` mask columns (multi-word for
> 64 pairs).

**The exact algorithm** (paper Section 3.1) starts from ``{d⊥}`` and,
per message in bus order, extends every hypothesis with every feasible
sender-receiver assumption (temporally possible and not already used by
another message of the same period); hypotheses with no feasible
extension die. At the end of the period the per-period assumptions are
dropped, equal hypotheses unified, and strict generalizations of another
survivor deleted. The set grows exponentially in the worst case
(Theorem 1: the problem is NP-hard). Feasibility of every (hypothesis,
candidate) cell is one bulk test over packed period-mask columns, and
the redundancy elimination runs as block subset comparisons.

**The bounded heuristic** (Section 3.2) replaces the set with a
weight-ordered working list of at most ``bound`` hypotheses. Whenever an
extension pushes the list one past the bound, the two lightest
hypotheses are replaced by their least upper bound (pair-set union).
Weight is Definition 8: the sum over ordered task pairs of the square
distance of the pair's dependency value from the lattice bottom, so
merging the lightest pair sacrifices the least specificity. The
heuristic is sound (Theorem 2) but conservative; the paper's Lemma (the
LUB of the output equals the bound-1 output) and Theorem 4 (on
convergence it coincides with the exact result) are checked by
``repro.theory.theorems`` and experiment E4.

Implementation notes for the bounded learner:

* **Incremental weights.** Extending a hypothesis by one pair changes at
  most two dependency-function entries (the pair and its mirror), so a
  child's weight is its parent's plus an O(1) delta, and a merge adds
  one delta per pair the second parent contributes. Across periods only
  an ``always_implies`` flip can change a carried weight, and
  :meth:`CoExecutionStats.add_period` reports exactly the flipped
  (*dirty*) pairs, so the per-period refresh applies one O(1) delta per
  dirty pair. That makes the paper's ``O(m b^2 + m b t^2)`` bound
  reachable in Python; the
  :class:`~repro.core.instrumentation.HotLoopCounters` on the result
  attest it (no from-scratch refreshes on periods without dirty pairs).
* **Compact pair interning.** Real traces touch a small fraction of the
  ``t^2`` pair bits (the GM workload: ~130 of 324). Candidate bits are
  re-interned into a dense compact index space, first-seen append-only,
  so in-flight masks fit one or two machine words. Iteration stays in
  *canonical* bit order (ascending pair index, which is lexicographic
  pair order), so exploration, dedup and merge order reproduce the
  string reference oracle (:mod:`repro.core.reference`) bit for bit.
* **Combined single-int keys.** An in-flight hypothesis is one int,
  ``(mask << S) | period_mask`` over compact bits, so extension and the
  LUB merge are each a single ``|``.
* **Sorted-list pool.** The pool is a dict plus a list sorted by
  priority ``-(weight << SEQ_BITS) - seq`` (lightest last), so popping
  the lightest entry is O(1) and ties break by insertion order. Weights
  are pure functions of the mask under fixed statistics, which licenses
  the overwrite-dedup ``pool[key] = weight``. Weights must therefore be
  integers: every distance in :mod:`repro.core.weights` is.
* **Valid per-period assignments.** A merged hypothesis inherits the
  first parent's per-period assumptions, which stay a legal distinct
  assignment inside the union pair set. If a later message finds every
  candidate claimed, the whole period's assignment is recomputed by
  backtracking over the period's candidate history, preferring pairs
  the hypothesis already assumed (:meth:`BoundedLearner._reassign_period`).
  Both rules keep every kept hypothesis matching every processed
  instance, which is what Theorem 2 requires.
"""

from __future__ import annotations

import time
from bisect import insort
from typing import Iterable, Sequence

import numpy as np

from repro.core import lattice
from repro.core.base import MaskedLearner
from repro.core.candidates import candidate_pairs
from repro.core.hypothesis import Hypothesis
from repro.core.instrumentation import hot_loop
from repro.core.interning import WeightKernel
from repro.core.result import LearningResult
from repro.core.weights import DistanceFunction, square_distance
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.trace.period import Period
from repro.trace.trace import Trace

#: Bits reserved for the insertion sequence in packed pool priorities.
SEQ_BITS = 32

#: One carried hypothesis: ``(pair mask, period mask, weight)``.
_Entry = tuple[int, int, int]


# The frozen benchmark (perfbench/layers.py) is the only caller.
def resolve_kernel(kernel: str = "auto") -> str:
    """The mask kernel's name: ``"batch"`` for ``"auto"`` or ``"batch"``."""
    if kernel not in ("auto", "batch"):
        raise ValueError(f"unknown kernel {kernel!r}: choose from auto, batch")
    return "batch"


# ---------------------------------------------------------------------------
# Mask-column helpers

@hot_loop
def pack_masks(masks: Sequence[int], words: int):
    """Pack int bitmasks into a ``(len(masks), words)`` uint64 column array.

    Little-endian word order: bit ``i`` of a mask lands in word
    ``i >> 6``, bit position ``i & 63``.
    """
    nbytes = words * 8
    buffer = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words)


@hot_loop
def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """Keep only minimal pair masks under inclusion (scalar form).

    With shared statistics, pair-set inclusion coincides with the pointwise
    dependency-function order, so deleting strict supersets is exactly the
    paper's redundancy elimination. On masks, ``kept ⊂ candidate`` is the
    subset test ``kept & candidate == kept`` (strictness is free: the
    inputs are deduplicated first).
    """
    unique = set(masks)
    by_size = sorted(unique, key=lambda mask: mask.bit_count())
    minimal: list[int] = []
    for candidate in by_size:
        if not any(kept & candidate == kept for kept in minimal):
            minimal.append(candidate)
    return minimal


@hot_loop
def remove_redundant_masks(masks: Iterable[int]) -> list[int]:
    """Keep only minimal pair masks under inclusion — block subset tests.

    Same contract and output order as :func:`_minimal_masks`; the
    quadratic inner ``kept ⊆ candidate`` scan runs as one vectorized
    comparison per candidate. Testing against *all* earlier masks (not
    only kept minimal ones) is equivalent by transitivity of inclusion.
    """
    unique = set(masks)
    by_size = sorted(unique, key=lambda mask: mask.bit_count())
    if len(by_size) <= 2:
        return _minimal_masks(by_size)
    width = max(mask.bit_length() for mask in by_size)
    words = max(1, (width + 63) >> 6)
    packed = pack_masks(by_size, words)
    minimal: list[int] = []
    for position, candidate in enumerate(by_size):
        if position:
            earlier = packed[:position]
            row = packed[position]
            if bool(((earlier & row) == earlier).all(axis=1).any()):
                continue
        minimal.append(candidate)
    return minimal


# ---------------------------------------------------------------------------
# Bounded heuristic learner

class BoundedLearner(MaskedLearner):
    """Incremental heuristic learner with a hypothesis bound.

    Parameters
    ----------
    tasks:
        The task universe ``T``.
    bound:
        Maximum number of hypotheses kept (paper's ``b``); must be >= 1.
    tolerance:
        Timing tolerance passed to candidate computation.
    distance:
        Per-value weight contribution (paper Definition 7 by default);
        see :mod:`repro.core.weights` for alternatives and the
        monotonicity requirement. Must return integers.
    incremental_weights:
        When True (the default), carried-over hypothesis weights are
        refreshed per period by dirty-pair deltas instead of from-scratch
        Definition 8 evaluation. The False setting re-derives every
        weight each period — it exists as the differential-testing and
        benchmarking baseline and learns bit-identical results.
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
        # The default distance is what Hypothesis.weight reports, so only
        # then may carried weights be primed into its memo.
        self._prime_memo = incremental_weights and (
            distance is lattice.distance or distance is square_distance
        )
        #: Carried Definition 8 weight per surviving pair mask. The empty
        #: hypothesis weighs 0 under any statistics and distance.
        self._weights: dict[int, int] = {0: 0}
        self._merges = 0
        #: Term table of the current statistics; (re)built lazily on the
        #: first absorb and maintained by dirty-index flips afterwards.
        self._kernel: WeightKernel | None = None
        self._kernel_version = -1
        #: canonical bit value -> compact index (first-seen, append-only)
        self._compact_of: dict[int, int] = {}
        #: compact index -> canonical bit value / canonical pair index
        self._canonical_bit: list[int] = []
        self._canonical_index: list[int] = []
        self._words = 1        # uint64 words per field
        self._field = 64       # compact field width == mask shift
        self._generation_cache: dict[tuple[int, ...], tuple] = {}
        self._term_epoch: object = None

    # -- run state (the base class owns the all-or-nothing envelope) ----

    def _save_run_state(self) -> object:
        return (self._messages, self._peak, self._merges)

    def _restore_run_state(self, state: object) -> None:
        self._messages, self._peak, self._merges = state
        # The rolled-back period's flips were undone in _absorb, so the
        # kernel again matches the statistics content — resync the version
        # marker (remove_period bumped it) so the next feed keeps the
        # incremental flip path instead of rebuilding the table.
        self._kernel_version = self.stats.version

    # -- compact pair interning ----------------------------------------

    @hot_loop
    def _intern_bits(self, bits: Sequence[int]) -> bool:
        """Extend the compact table; True when the word layout grew."""
        compact_of = self._compact_of
        for bit in bits:
            if bit not in compact_of:
                compact_of[bit] = len(self._canonical_bit)
                self._canonical_bit.append(bit)
                self._canonical_index.append(bit.bit_length() - 1)
        need = max(1, (len(self._canonical_bit) + 63) >> 6)
        if need != self._words:
            self._words = need
            self._field = 64 * need
            return True
        return False

    @hot_loop
    def _intern_mask_bits(self, mask: int) -> None:
        """Intern every set bit of a canonical mask (checkpoint restores
        and shard merges carry masks whose bits never went through a
        candidate set)."""
        compact_of = self._compact_of
        while mask:
            low = mask & -mask
            mask ^= low
            if low not in compact_of:
                compact_of[low] = len(self._canonical_bit)
                self._canonical_bit.append(low)
                self._canonical_index.append(low.bit_length() - 1)

    @hot_loop
    def _encode_mask(self, mask: int) -> int:
        """Canonical mask -> compact mask (bits must be interned)."""
        compact_of = self._compact_of
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << compact_of[low]
        return out

    @hot_loop
    def _decode_compact(self, compact: int) -> int:
        """Compact mask -> canonical mask."""
        canonical = self._canonical_bit
        out = 0
        while compact:
            low = compact & -compact
            compact ^= low
            out |= canonical[low.bit_length() - 1]
        return out

    # -- term tables in compact space ----------------------------------

    @hot_loop
    def _refresh_terms(self) -> None:
        """Rebuild compact-indexed branch tables for the inline merge delta.

        Terms change only on a kernel rebuild (new object) or a flip
        (always paired with a statistics version bump, which is strictly
        monotone — so ``(id, version)`` cannot collide); the epoch also
        carries the compact layout, because interning a pair whose
        mirror arrives later changes that pair's mirror slot.
        """
        kernel = self._kernel
        epoch = (
            id(kernel),
            self.stats.version,
            self._field,
            len(self._canonical_bit),
        )
        if self._term_epoch == epoch:
            return
        self._term_epoch = epoch
        term_f = kernel._term_f
        term_b = kernel._term_b
        term_fb = kernel._term_fb
        mirror = self.table.mirror_index
        compact_of = self._compact_of
        field = self._field
        # Inline merge-delta branches for one newly-acquired compact bit i
        # with mirror mi: both new -> fb[i]; mirror already in the base ->
        # both ordered terms step to mutual; mirror absent -> two singles.
        branch_both = []
        branch_mutual = []
        branch_single = []
        mirror_compact = []  # compact mirror index; `field` == never set
        for canonical_index in self._canonical_index:
            mirror_index = mirror[canonical_index]
            branch_both.append(term_fb[canonical_index])
            branch_mutual.append(
                term_fb[canonical_index]
                - term_b[canonical_index]
                + term_fb[mirror_index]
                - term_f[mirror_index]
            )
            branch_single.append(term_f[canonical_index] + term_b[mirror_index])
            compact_mirror = compact_of.get(1 << mirror_index)
            mirror_compact.append(
                field if compact_mirror is None else compact_mirror
            )
        self._branch_both = branch_both
        self._branch_mutual = branch_mutual
        self._branch_single = branch_single
        self._mirror_compact = mirror_compact
        term_f_np = np.asarray(term_f)
        if term_f_np.dtype.kind != "i":
            raise LearningError(
                "the mask kernel requires an integer-valued distance function"
            )
        self._term_f_np = term_f_np.astype(np.int64)
        self._term_b_np = np.asarray(term_b, dtype=np.int64)
        self._term_fb_np = np.asarray(term_fb, dtype=np.int64)
        self._generation_cache.clear()

    def _generation_arrays(self, bits: tuple[int, ...]) -> tuple:
        """Cached per-candidate index/delta arrays for one bits tuple."""
        entry = self._generation_cache.get(bits)
        if entry is None:
            words = self._words
            field = self._field
            compacts = [self._compact_of[bit] for bit in bits]
            canonical = np.asarray(
                [self._canonical_index[c] for c in compacts], dtype=np.int64
            )
            mirror = np.asarray(self.table.mirror_index, dtype=np.int64)[
                canonical
            ]
            compact = np.asarray(compacts, dtype=np.int64)
            word = words + (compact >> 6)
            shift = (compact & 63).astype(np.uint64)
            period_word = compact >> 6
            mirror_c = np.asarray(
                [self._mirror_compact[c] for c in compacts], dtype=np.int64
            )
            seen = (mirror_c < field).astype(np.uint64)
            mirror_safe = np.where(mirror_c < field, mirror_c, 0)
            mirror_word = words + (mirror_safe >> 6)
            mirror_shift = (mirror_safe & 63).astype(np.uint64)
            delta_new = self._term_f_np[canonical] + self._term_b_np[mirror]
            delta_mutual = (
                self._term_fb_np[canonical]
                - self._term_b_np[canonical]
                + self._term_fb_np[mirror]
                - self._term_f_np[mirror]
            )
            extension = [(1 << (field + c)) | (1 << c) for c in compacts]
            entry = (
                word,
                shift,
                period_word,
                mirror_word,
                mirror_shift,
                seen,
                delta_new,
                delta_mutual,
                extension,
            )
            self._generation_cache[bits] = entry
        return entry

    # -- the per-period step -------------------------------------------

    @hot_loop
    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ) -> list[_Entry]:
        counters = self._counters
        table = self.table
        dirty_indices = table.indices_of(dirty)
        version = self.stats.version
        if self._kernel is None or self._kernel_version != version - 1:
            # Fresh or drifted statistics (construction, checkpoint
            # restore, shard merge): rebuild the term table outright. The
            # post-add statistics already carry this period's flips.
            self._kernel = WeightKernel(table, self.stats, self.distance)
        elif dirty_indices:
            self._kernel.flip(dirty_indices)
        self._kernel_version = version
        try:
            entries = self._refresh_weights(dirty_indices)
            now = time.perf_counter()
            counters.refresh_seconds += now - mark
            mark = now
            history: list[tuple[int, ...]] = []
            centries: list[tuple[int, int]] | None = None
            for message in period.messages:
                pairs = candidate_pairs(period, message, self.tolerance)
                if not pairs:
                    raise EmptyHypothesisSpaceError(self._periods)
                counters.observe_candidates(len(pairs))
                bits = table.bits_of(pairs)
                field_before = self._field
                grew = self._intern_bits(bits)
                if centries is None:
                    # First message: the carried masks may hold bits that
                    # never crossed a candidate set (checkpoint restore),
                    # so intern them before fixing this message's layout.
                    for mask, _period_mask, _weight in entries:
                        self._intern_mask_bits(mask)
                    need = max(1, (len(self._canonical_bit) + 63) >> 6)
                    if need != self._words:
                        self._words = need
                        self._field = 64 * need
                        grew = True
                    field = self._field
                    centries = [
                        (
                            (self._encode_mask(mask) << field)
                            | self._encode_mask(period_mask),
                            weight,
                        )
                        for mask, period_mask, weight in entries
                    ]
                elif grew:
                    counters.batch_relayouts += 1
                    field = self._field
                    low = (1 << field_before) - 1
                    centries = [
                        (
                            ((key >> field_before) << field) | (key & low),
                            weight,
                        )
                        for key, weight in centries
                    ]
                self._refresh_terms()
                history.append(bits)
                centries = self._process_combined(centries, bits, history)
                self._messages += 1
                self._peak = max(self._peak, len(centries))
            counters.process_seconds += time.perf_counter() - mark
            if centries is None:
                # Message-free period: the refreshed entries carry through.
                return entries
            field = self._field
            low = (1 << field) - 1
            return [
                (
                    self._decode_compact(key >> field),
                    self._decode_compact(key & low),
                    weight,
                )
                for key, weight in centries
            ]
        except Exception:
            # Keep the term table consistent with the statistics rollback
            # the feed envelope is about to perform.
            self._kernel.unflip(dirty_indices)
            raise

    @hot_loop
    def _refresh_weights(self, dirty_indices: Sequence[int]) -> list[_Entry]:
        """Bring carried hypothesis weights up to date with the new period.

        A carried weight is stale only in the terms of dirty indices the
        mask touches, each a constant-time delta. From-scratch evaluation
        remains as the fallback for masks without a carried weight (after
        a checkpoint resume) and as the whole refresh when incremental
        maintenance is disabled.
        """
        counters = self._counters
        kernel = self._kernel
        assert kernel is not None
        flip_delta = kernel.flip_delta
        weights = self._weights if self._incremental else None
        entries: list[_Entry] = []
        for mask in self._masks:
            carried = weights.get(mask) if weights is not None else None
            if carried is None:
                weight = kernel.set_weight(mask)
                counters.weight_refresh_scratch += 1
                counters.weight_scratch_calls += 1
            else:
                weight = carried
                for index in dirty_indices:
                    weight += flip_delta(mask, index)
                counters.weight_refresh_incremental += 1
            entries.append((mask, 0, weight))
        return entries

    @hot_loop
    def _process_combined(
        self,
        centries: list[tuple[int, int]],
        bits: tuple[int, ...],
        history: Sequence[tuple[int, ...]],
    ) -> list[tuple[int, int]]:
        """One generalization step: extend every hypothesis, keep <= bound.

        Child generation is vectorized over the whole pool × candidate
        matrix; the bound cascade consumes the rows in canonical order
        through the sorted-list pool, merging the two lightest entries
        whenever the pool exceeds the bound.
        """
        counters = self._counters
        count = len(centries)
        words = self._words
        field = self._field
        nbytes = 16 * words
        keys = [entry[0] for entry in centries]
        weights = [entry[1] for entry in centries]
        (
            word,
            shift,
            period_word,
            mirror_word,
            mirror_shift,
            seen,
            delta_new,
            delta_mutual,
            extension,
        ) = self._generation_arrays(bits)
        columns = np.frombuffer(
            b"".join(key.to_bytes(nbytes, "little") for key in keys),
            dtype="<u8",
        ).reshape(count, 2 * words)
        present = (columns[:, word] >> shift) & 1
        mirrored = (columns[:, mirror_word] >> mirror_shift) & seen & 1
        feasible = ((columns[:, period_word] >> shift) & 1) == 0
        delta = np.where(
            present == 1, 0, np.where(mirrored == 1, delta_mutual, delta_new)
        )
        child_weights = (
            np.asarray(weights, dtype=np.int64)[:, None] + delta
        ).tolist()
        feasible_rows = feasible.tolist()
        counters.batch_messages += 1
        counters.batch_children += int(feasible.sum())

        bound = self.bound
        kernel = self._kernel
        pool: dict[int, int] = {}
        order: list[tuple[int, int]] = []  # ascending priority; lightest last
        pool_pop = pool.pop
        order_pop = order.pop
        branch_both = self._branch_both
        branch_mutual = self._branch_mutual
        branch_single = self._branch_single
        mirror_compact = self._mirror_compact
        merges = 0
        sequence = 0
        size = 0
        for row in range(count):
            key_base = keys[row]
            row_feasible = feasible_rows[row]
            row_weights = child_weights[row]
            any_feasible = False
            for column, ok in enumerate(row_feasible):
                if not ok:
                    continue
                any_feasible = True
                key = key_base | extension[column]
                weight = row_weights[column]
                pool[key] = weight
                if len(pool) == size:
                    continue
                size += 1
                sequence += 1
                insort(order, (-(weight << SEQ_BITS) - sequence, key))
                while size > bound:
                    _priority, first = order_pop()
                    first_weight = pool_pop(first)
                    _priority, second = order_pop()
                    pool_pop(second)
                    size -= 2
                    merged = first | second
                    merges += 1
                    if merged == first:
                        merged_weight = first_weight
                    else:
                        acquired = (second & ~first) >> field
                        if acquired:
                            base_mask = first >> field
                            delta_sum = 0
                            remaining = acquired
                            while remaining:
                                low = remaining & -remaining
                                remaining ^= low
                                i = low.bit_length() - 1
                                mi = mirror_compact[i]
                                if (acquired >> mi) & 1:
                                    delta_sum += branch_both[i]
                                elif (base_mask >> mi) & 1:
                                    delta_sum += branch_mutual[i]
                                else:
                                    delta_sum += branch_single[i]
                            merged_weight = first_weight + delta_sum
                        else:
                            merged_weight = first_weight
                    pool[merged] = merged_weight
                    if len(pool) != size:
                        size += 1
                        sequence += 1
                        insort(
                            order,
                            (-(merged_weight << SEQ_BITS) - sequence, merged),
                        )
            if not any_feasible:
                # Merged-lineage corner case: the inherited assignment
                # claims every candidate of this message. The repair runs
                # in canonical space: the backtracking sorts candidate
                # *bit values*, and compact values would explore a
                # different order.
                canonical_mask = self._decode_compact(key_base >> field)
                repaired = self._reassign_period(canonical_mask, history)
                counters.reassignments += 1
                if repaired is not None:
                    repaired_mask, repaired_period = repaired
                    counters.weight_scratch_calls += 1
                    repaired_weight = kernel.set_weight(repaired_mask)
                    key = (
                        self._encode_mask(repaired_mask) << field
                    ) | self._encode_mask(repaired_period)
                    pool[key] = repaired_weight
                    if len(pool) != size:
                        size += 1
                        sequence += 1
                        insort(
                            order,
                            (-(repaired_weight << SEQ_BITS) - sequence, key),
                        )
                        while size > bound:
                            _priority, first = order_pop()
                            first_weight = pool_pop(first)
                            _priority, second = order_pop()
                            pool_pop(second)
                            size -= 2
                            merged = first | second
                            merges += 1
                            if merged == first:
                                merged_weight = first_weight
                            else:
                                base_mask = self._decode_compact(first >> field)
                                other_mask = self._decode_compact(
                                    second >> field
                                )
                                merged_weight = first_weight + (
                                    kernel.union_delta(base_mask, other_mask)
                                )
                            pool[merged] = merged_weight
                            if len(pool) != size:
                                size += 1
                                sequence += 1
                                insort(
                                    order,
                                    (
                                        -(merged_weight << SEQ_BITS)
                                        - sequence,
                                        merged,
                                    ),
                                )
        self._merges += merges
        if not pool:
            raise EmptyHypothesisSpaceError(self._periods)
        return list(pool.items())

    @staticmethod
    @hot_loop
    def _reassign_period(
        mask: int, history: Sequence[Sequence[int]]
    ) -> tuple[int, int] | None:
        """Find a fresh distinct assignment of the period's messages.

        Candidate bits already assumed by the hypothesis are preferred so
        the repair generalizes as little as possible. Returns the repaired
        ``(mask, period_mask)`` or None when no assignment exists (the
        pool's other lineages may still survive). Bit order is index
        order is lexicographic pair order, so the backtracking explores
        assignments exactly as the string reference does.
        """
        options = sorted(
            (
                sorted(bits, key=lambda bit: not mask & bit),
                index,
            )
            for index, bits in enumerate(history)
        )
        # Most-constrained message first.
        options.sort(key=lambda item: len(item[0]))
        used = 0

        def backtrack(position: int) -> bool:
            nonlocal used
            if position == len(options):
                return True
            for bit in options[position][0]:
                if used & bit:
                    continue
                used |= bit
                if backtrack(position + 1):
                    return True
                used &= ~bit
            return False

        if not backtrack(0):
            return None
        # Also generalize by the current message's full candidate set (the
        # last history entry): an unbounded run would have spawned one
        # extension per candidate, and their LUB contributes all of them.
        # Keeping that contribution preserves the paper's Lemma — the LUB
        # of the bounded output stays equal to the bound-1 hypothesis.
        current = 0
        for bit in history[-1]:
            current |= bit
        return mask | used | current, used

    @hot_loop
    def _finish_period(self, pending: list[_Entry], dirty: frozenset[tuple[str, str]]) -> None:
        # Drop assumptions and unify equal pair sets. Unlike the exact
        # algorithm, the heuristic keeps dominated hypotheses: deleting a
        # strict generalization can remove pairs from the working list's
        # union that the bound-1 run retains, which would falsify the
        # paper's Lemma (⊔D*(b) = d*(1)). The union of kept pair sets is
        # invariant under extension, merging and equality-unification —
        # redundancy deletion is the only operation that could break it.
        by_mask: dict[int, int] = {}
        for mask, _period_mask, weight in pending:
            by_mask[mask] = weight
        self._masks = list(by_mask)
        self._decoded = None
        if self._incremental:
            self._weights = by_mask

    # Boundary code: primes decoded Hypothesis objects, not the mask pool.
    # repro-lint: ignore[RL002]
    def _prime_decoded(self, decoded: list[Hypothesis]) -> None:
        # Decoding happens at the boundary (result(), checkpoints,
        # sharding); seed the Hypothesis.weight memo with the carried
        # Definition 8 weights so the result sort never recomputes them.
        if not self._prime_memo:
            return
        version = self.stats.version
        weights = self._weights
        for hypothesis, mask in zip(decoded, self._masks):
            weight = weights.get(mask)
            if weight is not None:
                hypothesis.prime_weight(version, weight)

    def result(self) -> LearningResult:
        """The current hypothesis list as a result object."""
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


# ---------------------------------------------------------------------------
# Exact learner

class ExactLearner(MaskedLearner):
    """Incremental exact learner over a fixed task universe.

    Feed periods one at a time with :meth:`feed` (all-or-nothing, see
    :class:`~repro.core.base.IncrementalLearner`); read the current
    most-specific set at any point with :meth:`result`.

    Parameters
    ----------
    tasks:
        The task universe ``T``.
    tolerance:
        Timing tolerance passed to candidate computation.
    max_hypotheses:
        Safety valve: abort with :class:`~repro.errors.LearningError` if the
        working set exceeds this size (the exact algorithm is exponential;
        runaway inputs are better stopped than swapped to death).
    """

    def __init__(
        self,
        tasks: Iterable[str],
        tolerance: float = 0.0,
        max_hypotheses: int = 2_000_000,
    ):
        super().__init__(tasks, tolerance)
        self.max_hypotheses = max_hypotheses

    def _save_run_state(self) -> object:
        return (self._messages, self._peak)

    def _restore_run_state(self, state: object) -> None:
        self._messages, self._peak = state

    @hot_loop
    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ) -> Sequence[tuple[int, int]]:
        counters = self._counters
        table = self.table
        pair_count = table.task_count * table.task_count
        words = max(1, (pair_count + 63) >> 6)
        current: Sequence[tuple[int, int]] = [
            (mask, 0) for mask in self._masks
        ]
        for message in period.messages:
            pairs = candidate_pairs(period, message, self.tolerance)
            counters.observe_candidates(len(pairs))
            bits = table.bits_of(pairs)
            index = np.fromiter(
                (bit.bit_length() - 1 for bit in bits),
                dtype=np.int64,
                count=len(bits),
            )
            shift = (index & 63).astype(np.uint64)
            period_masks = pack_masks(
                [period_mask for _mask, period_mask in current], words
            )
            feasible = (
                ((period_masks[:, index >> 6] >> shift) & 1) == 0
            ).tolist()
            counters.batch_messages += 1
            next_generation: dict[tuple[int, int], None] = {}
            for (mask, period_mask), row in zip(current, feasible):
                for bit, ok in zip(bits, row):
                    if ok:
                        next_generation[mask | bit, period_mask | bit] = None
            counters.batch_children += len(next_generation)
            if not next_generation:
                raise EmptyHypothesisSpaceError(self._periods, len(pairs))
            if len(next_generation) > self.max_hypotheses:
                raise LearningError(
                    f"exact learner exceeded {self.max_hypotheses} hypotheses "
                    f"in period {self._periods}; use the bounded heuristic"
                )
            current = list(next_generation)
            self._messages += 1
            self._peak = max(self._peak, len(current))
        counters.process_seconds += time.perf_counter() - mark
        return current

    def _finish_period(
        self,
        pending: Sequence[tuple[int, int]],
        dirty: frozenset[tuple[str, str]],
    ) -> None:
        # Drop assumptions, unify, remove redundant.
        self._masks = remove_redundant_masks(
            mask for mask, _period_mask in pending
        )
        self._decoded = None

    def result(self) -> LearningResult:
        """The current most-specific hypothesis set as a result object."""
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


# ---------------------------------------------------------------------------
# Whole-trace drivers

def learn_bounded(
    trace: Trace,
    bound: int,
    tolerance: float = 0.0,
    distance: DistanceFunction = lattice.distance,
) -> LearningResult:
    """Run the bounded heuristic over a complete trace."""
    learner = BoundedLearner(trace.tasks, bound, tolerance, distance)
    learner.feed_trace(trace)
    return learner.result()


def learn_exact(
    trace: Trace,
    tolerance: float = 0.0,
    max_hypotheses: int = 2_000_000,
) -> LearningResult:
    """Run the exact algorithm over a complete trace."""
    learner = ExactLearner(trace.tasks, tolerance, max_hypotheses)
    learner.feed_trace(trace)
    return learner.result()


__all__ = [
    "SEQ_BITS",
    "resolve_kernel",
    "pack_masks",
    "remove_redundant_masks",
    "BoundedLearner",
    "ExactLearner",
    "learn_bounded",
    "learn_exact",
]
