"""The repository's benchmark: four workloads, one command.

Run one workload::

    python3 perfbench/run.py --workload e2-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans; ``--trace
1`` is the separate traced run that reports the per-layer metrics and
the tracing overhead (traced pass wall time over an untraced pass of the
same work). Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed / attempted`` is the run's error
rate: a correctness check that does not hold, an op that raised and an
op slower than its timeout each count as one failed op.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``e2-sweep``: the GM case study (18 tasks, 27 periods) learned with
  ``learn_dependencies`` at each paper bound, in process.
* ``store-shard``: GM simulated for 500 periods and written as a text
  log; ``ingest_to_store`` to ``.rts``, then ``run_pipeline`` (validate
  and learn) from the store at bound 4 with 2 shard workers.
* ``session-stream``: a ``repro serve`` daemon; 2 connections each
  stream 8 sessions one after another, one period per append, a query
  every 10 appends.
* ``session-churn``: the same daemon at ``--max-live 4``; each
  connection round-robins its 8 sessions one append at a time, so
  every open resumes a spooled checkpoint and evicts another session.

Only e2-sweep and store-shard are in ``BENCHMARK.json``. The two
session workloads run on request (``--workload``, ``--selfcheck``) but
are not steady enough to gate on the 2-CPU hosts this runs on: over
ten seeds, session-stream's spread (IQR / median) of ``learn_s``
ranged from 0.06 to 0.31, with single runs 40-70% slower than the
median, and session-churn's from 0.08 to 0.25, its round time
following the disk's rename latency rather than the CPU. The service,
framing, checkpoint and eviction layers are still measured per layer
on both gated workloads, through the layer probes.

End-to-end metrics, on every workload:

* ``learn_s``: wall seconds to turn the workload's whole input into
  models. e2-sweep: the sum over the bounds of each bound's median
  learn. store-shard: the median of ingest plus pipeline learn.
  Session workloads: the median wall time of one round, in which all
  16 sessions are opened, streamed, queried and closed. Every timing
  is in reference seconds (see ``harness.Clock``): wall seconds scaled
  to a host on which a fixed calibration loop takes 10 ms, because the
  shared CPUs this runs on drift by a third within minutes. Raw
  seconds are printed in the human-readable lines.
* ``peak_rss_mb``: the peak resident set of the process doing the
  work. store-shard adds the largest shard worker; session workloads
  read the daemon's ``VmHWM``.
* ``setup_s``: the median of five set-ups: generating the inputs
  from the seed plus the program's own start-up (a warm-up learn, or
  starting the daemon and connecting).

``--selfcheck N`` runs each named workload N times in fresh processes
and prints each metric's median, quartiles and spread (IQR / median)
with the host's facts. With ``--trace 0`` it uses N seeds and fails
when an end-to-end metric spreads wider than its bound in
``BENCHMARK.json``; with ``--trace 1`` it repeats one seed and fails
when an exact counter differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback

import harness
import inputs
import layers
from learn_workloads import E2Sweep, StoreShard
from service_workloads import SessionChurn, SessionStream

#: ``(name, unit)`` of every end-to-end metric.
END_TO_END = (("learn_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_REPEATS = 5
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {
    cls.name: cls for cls in (E2Sweep, StoreShard, SessionStream, SessionChurn)
}


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    """One run of one workload; returns the result object."""
    ledger = harness.Ledger()
    workload = WORKLOADS[name]()
    say(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}, "
        f"size {size}")
    with harness.work_dir(name) as work:
        try:
            setup_s, setup_raw = harness.median_setup(
                lambda: workload.setup(seed, inputs.SIZES[size], work),
                workload.close,
                SETUP_REPEATS,
            )
            say(f"setup: {setup_s:.4f} reference s ({setup_raw:.4f} s raw)")
            if trace:
                values = workload.traced(ledger, say)
                units = layers.UNITS
            else:
                values = workload.measure(seconds, ledger, say)
                values["setup_s"] = setup_s
                units = dict(END_TO_END)
        finally:
            workload.close()
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{name} did not report {missing}")
    for reason in ledger.failures:
        say(f"FAILED: {reason}")
    say(f"error rate: {ledger.failed}/{ledger.attempted}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def selfcheck(names, runs: int, seconds: float, trace: bool, size: str,
              first_seed: int) -> int:
    """Repeat runs in fresh processes and judge their spread."""
    import numpy

    say(f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, {platform.machine()}")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    status = 0
    for name in names:
        results, walls = [], []
        for index in range(runs):
            seed = first_seed if trace else first_seed + index
            command = [
                sys.executable, __file__, "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--size", size,
            ]
            started = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=900)
            walls.append(time.perf_counter() - started)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                say(f"{name} seed {seed}: exit {done.returncode}\n"
                    f"{done.stderr}")
                return 1
            results.append(json.loads(lines[-1]))
        if not all(r["correct"] for r in results):
            say(f"{name}: a run reported incorrect output")
            status = 1
        say(f"{name}: {runs} runs, longest {max(walls):.1f} s")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            if trace and metric in layers.EXACT_COUNTS:
                if len(set(values)) != 1:
                    say(f"  {metric}: NOT EXACT across runs: {values}")
                    status = 1
                continue
            if runs < 2:
                continue
            mid, q1, q3, spread = harness.quartile_spread(values)
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = "ok" if spread <= bound else "TOO NOISY"
                if spread > bound:
                    status = 1
            say(f"  {metric:<28} median {mid:.6g} {unit}  q1 {q1:.6g}  "
                f"q3 {q3:.6g}  spread {spread:.3f}"
                + (f"  bound {bound}  {verdict}" if verdict else ""))
            if bound is not None:
                say("    runs: " + " ".join(f"{value:.4g}" for value in values))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES),
                        default="full")
    parser.add_argument("--selfcheck", type=int, metavar="N", default=0)
    args = parser.parse_args(argv)
    try:
        harness.bootstrap()
    except harness.SourceMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.selfcheck:
        gated = [w["name"] for w in BENCHMARK["workloads"]]
        return selfcheck(args.workload or gated, args.selfcheck,
                         args.seconds, bool(args.trace), args.size, args.seed)
    if not args.workload or len(args.workload) != 1:
        parser.error("name exactly one --workload")
    try:
        result = run_workload(args.workload[0], args.seed, args.seconds,
                              bool(args.trace), args.size)
    except Exception:  # noqa: BLE001 - reported; no result line printed
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
