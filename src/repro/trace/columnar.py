"""Columnar period views: parallel arrays instead of event objects.

The object representation — one :class:`~repro.trace.events.Event` per
observation, one :class:`~repro.trace.period.Period` per instance — is
what the learners consume, but it is hopeless as a *storage* layout: a
multi-GB candump log explodes into tens of gigabytes of Python objects.
This module is the columnar counterpart: a trace's events live in three
parallel fixed-width arrays

* ``times`` — float64 timestamps,
* ``kinds`` — uint8 kind codes (see :data:`KIND_BY_CODE`),
* ``subjects`` — uint32 interned subject ids (see :func:`encode_subject`),

plus a ``offsets`` uint64 array of per-period event ranges: period ``j``
owns events ``offsets[j]:offsets[j+1]``. :class:`ColumnarPeriods` wraps
those arrays as a lazy ``Sequence[Period]`` — indexing materializes one
:class:`Period` (running its usual model-of-computation validation),
slicing returns an O(1) zero-copy view, and iteration touches one period
at a time, so a learner's peak memory is bounded by the largest single
period no matter how long the trace is.

Boundary invariant (lint rule RL006): the raw column buffers — the
``*_view`` accessors below, the subject id encoding, and ``mmap``-backed
buffers in :mod:`repro.trace.store` — never leak outside
``repro.trace.columnar`` and ``repro.trace.store``. Everything else in
the codebase consumes :class:`Period` objects through the lazy sequence
API, which is what keeps the storage layout free to change (and is why
bit-for-bit model identity with the object path is trivial: both paths
feed the learner identical ``Period`` values).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.events import Event, EventKind
from repro.trace.period import Period
from repro.trace.trace import Trace

#: Kind code -> EventKind, in event sort-rank order (starts and rises
#: before falls and ends at equal timestamps). Position in this tuple IS
#: the on-disk uint8 code — append-only, never reorder.
KIND_BY_CODE: tuple[EventKind, ...] = (
    EventKind.TASK_START,
    EventKind.MSG_RISE,
    EventKind.MSG_FALL,
    EventKind.TASK_END,
)

#: EventKind -> uint8 kind code (inverse of :data:`KIND_BY_CODE`).
CODE_BY_KIND: dict[EventKind, int] = {
    kind: code for code, kind in enumerate(KIND_BY_CODE)
}

#: High bit of a uint32 subject id: set for auto-numbered message labels
#: (``m1``, ``m2``, ...), whose number is carried in the low 31 bits
#: instead of an interning-table entry. candump adapters label message
#: occurrences with a global counter, so interning them verbatim would
#: grow the subject table with the trace; tagging keeps the table bounded
#: by the task universe plus any custom labels.
AUTO_LABEL_BIT = 1 << 31
AUTO_LABEL_MAX = AUTO_LABEL_BIT - 1


def encode_subject(
    label: str, table: list[str], index_of: dict[str, int]
) -> int:
    """Intern *label* into a uint32 subject id.

    ``m<decimal>`` labels are tagged numerically (no table entry); every
    other label is appended to *table* on first sight. *table* and
    *index_of* must be kept in sync by the caller (both are mutated).
    """
    if label[0] == "m":
        digits = label[1:]
        if digits.isdigit() and digits[0] != "0" or digits == "0":
            number = int(digits)
            if number <= AUTO_LABEL_MAX:
                return AUTO_LABEL_BIT | number
    code = index_of.get(label)
    if code is None:
        code = len(table)
        if code >= AUTO_LABEL_BIT:
            raise TraceError("subject interning table overflow (2^31 labels)")
        index_of[label] = code
        table.append(label)
    return code


def decode_subject(code: int, table: Sequence[str]) -> str:
    """Inverse of :func:`encode_subject`."""
    if code & AUTO_LABEL_BIT:
        return f"m{code & AUTO_LABEL_MAX}"
    return table[code]


class LazyPeriods(Sequence):
    """Marker base for lazy period sequences (zero-copy slices).

    :class:`~repro.core.shardexec.ShardRuntime` keeps instances of this
    type intact instead of materializing shards into tuples, so slicing
    a million-period store into shards stays O(1) and pickling a shard's
    periods ships a ``(store_path, period_range)`` handle — not the
    events — across the process boundary.
    """

    __slots__ = ()


class ColumnarPeriods(LazyPeriods):
    """A lazy ``Sequence[Period]`` over parallel event arrays.

    Parameters
    ----------
    times, kinds, subjects:
        Parallel per-event buffers (any object with ``__getitem__`` over
        ints/slices and ``__len__`` — ``array.array`` in memory,
        ``memoryview`` casts over ``mmap`` in the store).
    offsets:
        Per-period event ranges: period ``j`` of the *full* column set
        owns events ``offsets[j]:offsets[j+1]``; length = periods + 1.
    subject_table:
        Interned subject labels (see :func:`encode_subject`).
    start, stop:
        The window of full-column periods this view exposes.
    first_index:
        Global :attr:`Period.index` of the window's first period.
    owner:
        Optional object kept alive for the buffers' lifetime (the
        store's ``mmap``).
    """

    __slots__ = (
        "_times", "_kinds", "_subjects", "_offsets", "_table",
        "_start", "_stop", "_first_index", "_owner",
    )

    def __init__(
        self,
        times,
        kinds,
        subjects,
        offsets,
        subject_table: Sequence[str],
        *,
        start: int = 0,
        stop: int | None = None,
        first_index: int | None = None,
        owner: object = None,
    ) -> None:
        self._times = times
        self._kinds = kinds
        self._subjects = subjects
        self._offsets = offsets
        self._table = tuple(subject_table)
        count = len(offsets) - 1
        if not 0 <= start <= count:
            raise TraceError(f"period window start {start} out of range")
        self._start = start
        self._stop = count if stop is None else stop
        if not start <= self._stop <= count:
            raise TraceError(f"period window stop {self._stop} out of range")
        self._first_index = start if first_index is None else first_index
        self._owner = owner

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_periods(cls, periods: Sequence[Period]) -> "ColumnarPeriods":
        """Encode materialized periods into columns (inverse of indexing)."""
        times = array("d")
        kinds = array("B")
        subjects = array("I")
        offsets = array("Q", [0])
        table: list[str] = []
        index_of: dict[str, int] = {}
        for period in periods:
            for event in period.events:
                times.append(event.time)
                kinds.append(CODE_BY_KIND[event.kind])
                subjects.append(encode_subject(event.subject, table, index_of))
            offsets.append(len(times))
        first = periods[0].index if len(periods) else 0
        return cls(times, kinds, subjects, offsets, table, first_index=first)

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarPeriods":
        return cls.from_periods(trace.periods)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._stop - self._start

    def period_at(self, position: int) -> Period:
        """Materialize the period at window *position* (0-based)."""
        j = self._start + position
        lo = self._offsets[j]
        hi = self._offsets[j + 1]
        times = self._times
        kinds = self._kinds
        subjects = self._subjects
        table = self._table
        events = [
            Event(
                times[k],
                KIND_BY_CODE[kinds[k]],
                decode_subject(subjects[k], table),
            )
            for k in range(lo, hi)
        ]
        return Period(events, index=self._first_index + position)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if step != 1:
                return tuple(
                    self.period_at(i) for i in range(start, stop, step)
                )
            return self._sliced(start, max(start, stop))
        index = item
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"period index {item} out of range")
        return self.period_at(index)

    def _sliced(self, start: int, stop: int) -> "ColumnarPeriods":
        """A zero-copy sub-window; overridden by the store's range type."""
        return ColumnarPeriods(
            self._times, self._kinds, self._subjects, self._offsets,
            self._table,
            start=self._start + start,
            stop=self._start + stop,
            first_index=self._first_index + start,
            owner=self._owner,
        )

    def __iter__(self) -> Iterator[Period]:
        for position in range(len(self)):
            yield self.period_at(position)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(periods={len(self)}, "
            f"events={self.event_count}, first_index={self._first_index})"
        )

    # ------------------------------------------------------------------
    # Window facts (no materialization)
    # ------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Raw events in the window, from the offsets alone."""
        return self._offsets[self._stop] - self._offsets[self._start]

    @property
    def first_index(self) -> int:
        return self._first_index

    @property
    def subject_table(self) -> tuple[str, ...]:
        return self._table

    def message_count(self) -> int:
        """Message occurrences in the window (counted on the kind column)."""
        lo = self._offsets[self._start]
        hi = self._offsets[self._stop]
        rise = CODE_BY_KIND[EventKind.MSG_RISE]
        kinds = self._kinds
        if hi - lo > 1024:
            chunk = np.frombuffer(
                bytes(memoryview(kinds)[lo:hi]), dtype=np.uint8
            )
            return int((chunk == rise).sum())
        return sum(1 for k in range(lo, hi) if kinds[k] == rise)

    # ------------------------------------------------------------------
    # Raw column access — RL006: these names stay inside the boundary
    # ------------------------------------------------------------------

    def times_view(self):
        lo = self._offsets[self._start]
        return self._times[lo:self._offsets[self._stop]]

    def kinds_view(self):
        lo = self._offsets[self._start]
        return self._kinds[lo:self._offsets[self._stop]]

    def subjects_view(self):
        lo = self._offsets[self._start]
        return self._subjects[lo:self._offsets[self._stop]]

    def offsets_view(self):
        return self._offsets[self._start:self._stop + 1]

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    def to_trace(self, tasks: Iterable[str]) -> "LazyTrace":
        """Wrap this view as a lazy trace over *tasks*."""
        return LazyTrace(tasks, self)


class LazyTrace(Trace):
    """A :class:`Trace` over a lazy period sequence.

    Skips ``Trace.__init__``'s eager walk over every period (which would
    materialize the whole store): each period still runs its full
    model-of-computation validation, but only when materialized. When
    the aggregate facts are known up front (the store header records
    them) they are served O(1) instead of by iteration.
    """

    __slots__ = ("_message_count", "_event_count", "_observed")

    def __init__(
        self,
        tasks: Iterable[str],
        periods: Sequence[Period],
        *,
        message_count: int | None = None,
        event_count: int | None = None,
        observed_tasks: Iterable[str] | None = None,
    ) -> None:
        task_tuple = tuple(tasks)
        if len(set(task_tuple)) != len(task_tuple):
            raise TraceError("duplicate task names in trace universe")
        self._tasks = task_tuple
        self._periods = periods
        self._message_count = message_count
        self._event_count = event_count
        observed = (
            None if observed_tasks is None else frozenset(observed_tasks)
        )
        if observed is not None:
            unknown = observed - set(task_tuple)
            if unknown:
                raise TraceError(
                    "trace executes tasks outside the declared universe: "
                    f"{sorted(unknown)}"
                )
        self._observed = observed

    @property
    def periods(self) -> Sequence[Period]:  # type: ignore[override]
        return self._periods

    def message_count(self) -> int:
        if self._message_count is not None:
            return self._message_count
        return super().message_count()

    def event_count(self) -> int:
        if self._event_count is not None:
            return self._event_count
        return super().event_count()

    def observed_tasks(self) -> frozenset[str]:
        if self._observed is not None:
            return self._observed
        return super().observed_tasks()

    def subtrace(self, count: int) -> "LazyTrace":
        return LazyTrace(self._tasks, self._periods[:count])


def segment_offsets(times, period_length: float) -> tuple[int, array]:
    """Per-period offsets of a time-ordered timestamp array.

    Events are assigned to period ``floor(time / period_length)``, the
    same rule as :meth:`Trace.from_events` — including its interior-gap
    semantics: buckets between the first and last observed bucket that
    received no events become *empty* periods (leading/trailing
    emptiness is still dropped, since the observed range defines the
    window). Returns ``(first_bucket, offsets)`` where ``offsets`` has
    one entry per period boundary (length = periods + 1).

    The input must be non-decreasing — the columnar path segments a log
    in recording order without materializing events, so out-of-order
    timestamps cannot be bucketed and raise
    :class:`~repro.errors.TraceError`.
    """
    if period_length <= 0:
        raise TraceError("period_length must be positive")
    if len(times) == 0:
        return 0, array("Q", [0])
    stamps = np.asarray(times, dtype=np.float64)
    if stamps.size > 1 and bool((np.diff(stamps) < 0).any()):
        raise TraceError(
            "columnar segmentation requires time-ordered events"
        )
    buckets = np.floor_divide(stamps, float(period_length)).astype(np.int64)
    first = int(buckets[0])
    last = int(buckets[-1])
    counts = np.bincount(buckets - first, minlength=last - first + 1)
    offsets = array("Q", [0])
    offsets.frombytes(np.cumsum(counts).astype(np.uint64).tobytes())
    return first, offsets


def trace_from_arrays(
    tasks: Iterable[str],
    times,
    kinds,
    subjects,
    subject_table: Sequence[str],
    period_length: float,
) -> LazyTrace:
    """Segment parallel event arrays into a lazy trace — no Event objects.

    The columnar twin of :meth:`Trace.from_events`: the period
    boundaries come from :func:`segment_offsets` over the timestamp
    array alone, and the resulting trace materializes periods only as
    they are consumed.
    """
    _first, offsets = segment_offsets(times, period_length)
    periods = ColumnarPeriods(times, kinds, subjects, offsets, subject_table)
    return LazyTrace(tasks, periods)


__all__ = [
    "AUTO_LABEL_BIT",
    "AUTO_LABEL_MAX",
    "CODE_BY_KIND",
    "KIND_BY_CODE",
    "ColumnarPeriods",
    "LazyPeriods",
    "LazyTrace",
    "decode_subject",
    "encode_subject",
    "segment_offsets",
    "trace_from_arrays",
]
