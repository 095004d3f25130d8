"""E5 — the stated complexity ``O(m b² + m b t²)`` (paper Section 4).

Empirical scaling of the heuristic learner in each parameter while the
others are held fixed:

* messages ``m`` — more periods of the same system;
* bound ``b`` — the Section 3.4 sweep, re-asserted as near-linear-to-
  quadratic growth;
* tasks ``t`` — random layered designs of growing size.

Shape assertions are deliberately loose (Python timers, small inputs):
runtime must grow monotonically in each parameter and must not explode
super-polynomially (doubling the parameter may not square the runtime
more than the bound allows).
"""

from repro.bench.harness import measure
from repro.bench.reporting import format_table
from repro.bench.workloads import gm_workload, scaling_workload
from repro.core.batch import learn_bounded

BOUND = 16


def test_e5_scaling_in_messages(benchmark):
    full = gm_workload()
    rows = []
    seconds = []
    for periods in (4, 8, 16, 27):
        trace = full.trace.subtrace(periods)
        measurement = measure(
            f"m={trace.message_count()}",
            lambda t=trace: learn_bounded(t, BOUND),
        )
        counters = measurement.value.hot_loop
        # The asymptotic win made measurable: dirty pairs concentrate in
        # the early periods and the incremental refresh never falls back
        # to a from-scratch Definition 8 evaluation.
        assert counters.weight_refresh_scratch == 0
        rows.append(
            [
                periods,
                trace.message_count(),
                measurement.seconds,
                counters.dirty_pairs,
                counters.clean_periods,
            ]
        )
        seconds.append(measurement.seconds)
    benchmark(learn_bounded, full.trace.subtrace(4), BOUND)
    print()
    print(format_table(
        ["periods", "messages m", "seconds", "dirty pairs", "clean periods"],
        rows,
        title="[E5] runtime vs message count (b=16)"))
    # Dirty pairs are one-way flips: growing the trace can only add a
    # bounded number, so longer runs are dominated by clean periods.
    assert rows[-1][4] > rows[0][4]
    assert seconds[-1] > seconds[0]
    # Near-linear in m: quadrupling messages must not cost more than ~12x.
    ratio = seconds[-1] / max(seconds[0], 1e-9)
    messages_ratio = rows[-1][1] / rows[0][1]
    assert ratio < messages_ratio * 4


def test_e5_scaling_in_bound(benchmark):
    trace = gm_workload().trace.subtrace(8)
    rows = []
    seconds = []
    for bound in (4, 8, 16, 32, 64):
        measurement = measure(
            f"b={bound}", lambda b=bound: learn_bounded(trace, b)
        )
        rows.append([bound, measurement.seconds])
        seconds.append(measurement.seconds)
    benchmark(learn_bounded, trace, 4)
    print()
    print(format_table(["bound b", "seconds"], rows,
                       title="[E5] runtime vs bound (8 periods)"))
    assert seconds == sorted(seconds) or seconds[-1] > seconds[0]
    # At most quadratic in b: 16x bound increase < ~600x runtime.
    assert seconds[-1] / max(seconds[0], 1e-9) < 600


def test_e5_scaling_in_tasks(benchmark):
    rows = []
    seconds = []
    for task_count in (6, 10, 14, 18):
        workload = scaling_workload(task_count, periods=6)
        measurement = measure(
            f"t={task_count}",
            lambda w=workload: learn_bounded(w.trace, BOUND),
        )
        counters = measurement.value.hot_loop
        rows.append(
            [
                task_count,
                workload.trace.message_count(),
                measurement.seconds,
                round(counters.mean_candidates, 1),
                counters.candidates_max,
            ]
        )
        seconds.append(measurement.seconds)
    benchmark(learn_bounded, scaling_workload(6, periods=6).trace, BOUND)
    print()
    print(format_table(
        ["tasks t", "messages", "seconds", "mean |A_m|", "max |A_m|"],
        rows,
        title="[E5] runtime vs task count (b=16, 6 periods)"))
    assert seconds[-1] > seconds[0]


def test_e5_scaling_across_topologies(benchmark):
    """Extra dimension: topology shape at fixed size (t=10, b=16)."""
    from repro.sim.simulator import Simulator, SimulatorConfig
    from repro.systems.random_gen import TOPOLOGY_PROFILES, profiled_design
    from repro.trace.validate import ambiguity_report

    rows = []
    for profile in sorted(TOPOLOGY_PROFILES):
        design = profiled_design(profile, 10, seed=3)
        trace = Simulator(
            design, SimulatorConfig(period_length=180.0), seed=3
        ).run(8).trace
        measurement = measure(
            profile, lambda t=trace: learn_bounded(t, BOUND)
        )
        ambiguity = ambiguity_report(trace)
        rows.append(
            [
                profile,
                trace.message_count(),
                round(ambiguity.mean_candidates, 1),
                measurement.seconds,
            ]
        )
    small = profiled_design("chain", 10, seed=3)
    from repro.sim.simulator import simulate_trace

    benchmark(
        learn_bounded,
        simulate_trace(small, 8, SimulatorConfig(period_length=180.0), seed=3),
        BOUND,
    )
    print()
    print(
        format_table(
            ["topology", "messages", "mean |A_m|", "seconds"],
            rows,
            title="[E5] runtime vs topology (t=10, b=16, 8 periods)",
        )
    )
    assert len(rows) == 4
