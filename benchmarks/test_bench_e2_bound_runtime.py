"""E2 — the Section 3.4 runtime table (bound vs seconds) + exact reference.

The paper's table, measured on a 2007 Pentium M::

    Bound  Run time (s)      Bound  Run time (s)
    1      0.220             64     5.899
    4      0.471             100    12.608
    16     1.202             120    16.294
    32     2.573             150    19.048

and an exact-algorithm run of 630.997 s that returned a single function
equal to the heuristic LUB (any bound).

We regenerate the same sweep on the GM-scale workload (18 tasks, 27
periods, one CAN bus). Absolute seconds are machine- and substrate-
specific; the asserted *shape* is the paper's: runtime grows monotonically
with the bound, and every bound's LUB equals the bound-1 hypothesis
(Lemma). The paper's exact run is out of reach for the full workload in
pure Python (the hypothesis set explodes long before convergence — the
learner's safety cap triggers), so the exact-vs-heuristic equality is
checked on a reduced workload here and exhaustively in E4.
"""

import os

import pytest

from repro.bench.harness import measure, phase_speedup
from repro.bench.reporting import format_hot_loop, format_table, shape_check
from repro.core.batch import BoundedLearner, learn_bounded, learn_exact
from repro.errors import LearningError

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

PAPER_BOUNDS = (1, 4, 16, 32, 64, 100, 120, 150)
PAPER_SECONDS = (0.220, 0.471, 1.202, 2.573, 5.899, 12.608, 16.294, 19.048)
if SMOKE:
    PAPER_BOUNDS = PAPER_BOUNDS[:3]
    PAPER_SECONDS = PAPER_SECONDS[:3]


def test_e2_bound_runtime_table(benchmark, gm):
    results = {}
    measurements = []
    for bound in PAPER_BOUNDS:
        measurement = measure(
            f"bound={bound}", lambda b=bound: learn_bounded(gm.trace, b)
        )
        measurements.append(measurement)
        results[bound] = measurement.value
    # pytest-benchmark records the smallest paper bound as the hot loop.
    benchmark(learn_bounded, gm.trace, 1)

    ours = [m.seconds for m in measurements]
    rows = [
        [bound, paper, measured]
        for bound, paper, measured in zip(PAPER_BOUNDS, PAPER_SECONDS, ours)
    ]
    print()
    print(
        format_table(
            ["bound", "paper (s)", "measured (s)"],
            rows,
            title="[E2] heuristic runtime vs bound "
            f"({gm.trace.message_count()} messages, "
            f"{len(gm.trace)} periods, {len(gm.trace.tasks)} tasks)",
        )
    )

    # Shape assertions: monotone growth, as in the paper's table. Tiny
    # timer jitter at the small end is tolerated by comparing endpoints
    # and the sorted-order distance. At smoke scale only the endpoints
    # are meaningfully apart.
    growth_floor = 1 if SMOKE else 5
    assert ours[-1] > ours[0] * growth_floor, (
        "runtime must grow substantially with bound"
    )
    assert shape_check(sorted(ours), "nondecreasing")
    out_of_order = sum(1 for a, b in zip(ours, ours[1:]) if a > b)
    assert out_of_order <= 1, f"sweep not monotone: {ours}"

    # Lemma across the sweep: every bound's LUB equals the bound-1 result.
    reference = results[1].unique
    for bound in PAPER_BOUNDS[1:]:
        assert results[bound].lub() == reference, f"Lemma violated at {bound}"
    print("\n[E2] LUB(bound=b) == bound-1 hypothesis for all paper bounds: OK")


def test_e2_incremental_weight_refresh_speedup(benchmark):
    """The per-period weight refresh is incremental (dirty-pair deltas).

    The seed implementation re-derived every carried hypothesis's
    Definition 8 weight from scratch each period — paying the ``t^2``
    term ``b`` times per period. The refresh now applies one O(1) delta
    per dirty pair; this driver attests, at t >= 20 tasks:

    * learned output (hypothesis pair sets, LUB, merge count) identical
      to the from-scratch baseline (the seed algorithm, kept as
      ``incremental_weights=False``);
    * zero from-scratch weight recomputes in the refresh, including on
      periods with no dirty pairs (the counters prove it);
    * >= 2x per-period speedup of the refresh phase (measured ~10-100x).

    A branchy topology is used so task-execution sets vary across periods:
    that is what produces dirty pairs mid-run (and clean periods late in
    the run), exercising both refresh paths.
    """
    from repro.sim.simulator import Simulator, SimulatorConfig
    from repro.systems.random_gen import profiled_design

    task_count, periods, bound = (20, 10, 16) if SMOKE else (22, 20, 32)
    design = profiled_design("branchy", task_count, seed=5)
    trace = Simulator(
        design, SimulatorConfig(period_length=60.0 + 8.0 * task_count), seed=5
    ).run(periods).trace

    def run(incremental: bool):
        learner = BoundedLearner(
            trace.tasks, bound, incremental_weights=incremental
        )
        learner.feed_trace(trace)
        return learner.result()

    baseline = run(False)
    improved = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)

    # Learned output must be bit-for-bit identical to the seed algorithm.
    assert [h.pairs for h in improved.hypotheses] == [
        h.pairs for h in baseline.hypotheses
    ]
    assert improved.lub() == baseline.lub()
    assert improved.merge_count == baseline.merge_count

    counters = improved.hot_loop
    assert counters.weight_refresh_scratch == 0, (
        "incremental run must never recompute a carried weight from scratch"
    )
    assert counters.weight_refresh_incremental > 0
    assert counters.clean_periods > 0, (
        "workload must exercise periods with no dirty pairs"
    )

    refresh = phase_speedup(
        f"per-period weight refresh (t={task_count}, b={bound})",
        baseline,
        improved,
        "refresh",
    )
    total = baseline.elapsed_seconds / max(improved.elapsed_seconds, 1e-12)
    print()
    print(f"[E2] {refresh}")
    print(f"[E2] end-to-end learning: {total:.2f}x")
    print(format_hot_loop(counters, title="[E2] incremental run hot loop"))
    assert refresh.factor >= 2.0, str(refresh)


def test_e2_exact_infeasible_on_full_workload(benchmark, gm):
    """The paper's exact run took 630.997 s in 2007 C code; our Python
    substrate hits the hypothesis-set explosion well before convergence
    (documented substitution in DESIGN.md)."""

    def blows_the_cap() -> bool:
        try:
            learn_exact(gm.trace.subtrace(2), max_hypotheses=20_000)
        except LearningError:
            return True
        return False

    exploded = benchmark.pedantic(blows_the_cap, rounds=1, iterations=1)
    assert exploded
    print(
        "\n[E2] exact algorithm exceeds 20k hypotheses within 2 GM "
        "periods — the exponential behavior that motivates the heuristic"
    )


def test_e2_exact_reference_on_reduced_workload(benchmark, simple):
    """The exact-vs-heuristic equality the paper observed, where feasible.

    The reduced workload is the Figure 1 system simulated for 12 periods:
    the exact algorithm completes, and its LUB equals the heuristic's
    bound-1 hypothesis (the paper found the same equality on its GM run,
    'using any arbitrary bound' — Theorem 4 / Lemma).
    """
    exact = benchmark(learn_exact, simple.trace)
    heuristic = learn_bounded(simple.trace, 1)
    assert exact.lub() == heuristic.unique
    print(
        f"\n[E2] exact on reduced workload: {exact.peak_hypotheses} peak "
        f"hypotheses, {len(exact.functions)} most-specific survivors; "
        "exact LUB == heuristic bound-1: OK"
    )


def test_e2_sharded_learn_sound_at_paper_scale(benchmark, gm):
    """Shard-parallel learning on the GM workload: the merged model is
    sound relative to the sequential LUB (Theorem 2 survives sharding).

    ``REPRO_BENCH_WORKERS`` selects the fan-out (CI smoke runs this once
    with 2); the merged result must sit at or above the sequential LUB in
    the lattice, and its statistics must equal the sequential run's.
    """
    from repro.core.learner import learn_dependencies

    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    bound = PAPER_BOUNDS[-1] if SMOKE else 16
    sequential = learn_bounded(gm.trace, bound)
    merged = benchmark.pedantic(
        learn_dependencies,
        args=(gm.trace,),
        kwargs={"bound": bound, "workers": workers},
        rounds=1,
        iterations=1,
    )
    assert sequential.lub().leq(merged.lub())
    assert merged.workers == workers
    assert merged.stats.period_count == sequential.stats.period_count
    loss = merged.lub().weight() - sequential.lub().weight()
    print(
        f"\n[E2] sharded learn (workers={workers}, bound={bound}): "
        f"specificity loss {loss} weight units vs sequential"
    )
