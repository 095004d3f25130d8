"""Shared plumbing for the benchmark: paths, statistics, spans, ledger.

Nothing here imports the program under test; :func:`bootstrap` puts the
checkout's ``src`` directory on ``sys.path`` once the caller has decided
to run a workload.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for generated logs, stores and spool files; it sits
#: inside the checkout and is removed when a run ends.
WORK_ROOT = BENCH_DIR / "_work"
#: Where each traced run leaves its spans, one file per workload.
SPANS_DIR = BENCH_DIR / "_spans"


class SourceMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"no program sources at {SRC}/repro; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def work_dir(tag: str):
    """A fresh scratch directory under :data:`WORK_ROOT`, removed on exit.

    ``TMPDIR`` points into it while it exists, so temporary files made
    by the program (and by the daemons it spawns) stay in the checkout.
    """
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    saved = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(path)
    import tempfile

    tempfile.tempdir = None
    try:
        yield path
    finally:
        if saved is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the steadiness rule takes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q2, q1, q3, spread


# -- process facts -----------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def children_peak_mb() -> float:
    """Largest peak RSS among reaped child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- outcome ledger ----------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations and names every failure.

    An operation is a call into the program (a learn, an ingest, a
    daemon op) or a correctness check on its output. A failed check, an
    op that raised, and an op slower than its timeout all count as
    failed; none of them stops the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(id, parent, name, start, end, thread)``; the parent is
    the innermost open span on the same thread. Spans are kept in memory
    and written out by :meth:`dump` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, start, end,
                     threading.current_thread().name)
                )

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a spanned call until :meth:`unwrap_all`."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end, _ in self.spans if n == name)

    def dump(self, workload: str) -> None:
        """Write the spans to ``SPANS_DIR/<workload>.json``."""
        SPANS_DIR.mkdir(exist_ok=True)
        rows = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e, "thread": t}
            for i, p, n, s, e, t in self.spans
        ]
        (SPANS_DIR / f"{workload}.json").write_text(
            json.dumps(rows) + "\n", encoding="utf-8"
        )


def timed(call):
    """``(seconds, result)`` of one call, timed with ``perf_counter``."""
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


# -- reference-speed clock ---------------------------------------------------

#: Iterations of the calibration loop.
CALIBRATION_LOOPS = 200_000
#: Seconds the calibration loop takes on the reference host, by definition.
REFERENCE_SECONDS = 0.01


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_LOOPS):
        total += index & 7
    return time.perf_counter() - started


class Clock:
    """Times units of work in reference seconds.

    The hosts this benchmark runs on share their CPUs, and a fixed
    pure-Python loop runs up to a third slower or faster from one
    minute to the next, so raw wall times of one program spread as
    wide as the regressions the benchmark must catch. Each unit of work
    is therefore timed between two readings of the calibration loop
    (median of five loops each) and scaled by ``REFERENCE_SECONDS``
    over their mean: the result is the unit's wall time on a host where
    the loop takes exactly ``REFERENCE_SECONDS``. Readings are taken
    only between units, while the program is idle. Raw seconds are kept
    too, for the human-readable lines.
    """

    def __init__(self) -> None:
        self._last = self._reading()

    @staticmethod
    def _reading() -> float:
        return statistics.median(calibration_loop() for _ in range(5))

    def measure(self, call):
        """``(reference seconds, raw seconds, result)`` of one call."""
        raw, result = timed(call)
        reading = self._reading()
        scale = REFERENCE_SECONDS / ((self._last + reading) / 2)
        self._last = reading
        return raw * scale, raw, result


def median_setup(setup, teardown, repeats: int) -> tuple[float, float]:
    """Median reference and raw seconds of *repeats* set-ups.

    The last set-up is kept; *teardown* releases each earlier one
    outside the timed region.
    """
    clock = Clock()
    scaled, raw = [], []
    for index in range(repeats):
        if index:
            teardown()
        reference, seconds, _ = clock.measure(setup)
        scaled.append(reference)
        raw.append(seconds)
    return median(scaled), median(raw)
