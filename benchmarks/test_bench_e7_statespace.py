"""E7 — state-space reduction for model checking (paper Section 3.4).

"The additional dependencies discovered from the execution trace help to
reduce the state space that needs to be analyzed with other methods. One
such method could be model checking by means of reachability analysis."

Regenerated here: reachable-state counts of a period's interleaving
semantics with and without the learned dependency function, on the GM
core subsystem and on growing random designs. The informed space must be
smaller; the reduction factor must grow with system size.
"""

from repro.analysis.reachability import compare_state_spaces
from repro.bench.reporting import format_table
from repro.bench.workloads import scaling_workload
from repro.core.batch import learn_bounded

GM_CORE = ("S", "A", "L", "N", "B", "M", "O", "H", "P", "Q")


def test_e7_gm_core_reduction(benchmark, gm):
    lub = learn_bounded(gm.trace, 16).lub()
    report = benchmark(
        compare_state_spaces, gm.design, lub, GM_CORE
    )
    print(
        f"\n[E7] GM core ({len(GM_CORE)} tasks): "
        f"pessimistic {report.pessimistic.state_count} states -> "
        f"informed {report.informed.state_count} states "
        f"({report.reduction_factor:.1f}x reduction)"
    )
    assert not report.pessimistic.truncated
    assert report.reduction_factor > 5.0


def test_e7_reduction_grows_with_system_size(benchmark):
    rows = []
    factors = []
    for task_count in (6, 8, 10):
        workload = scaling_workload(task_count, periods=8)
        lub = learn_bounded(workload.trace, 8).lub()
        report = compare_state_spaces(workload.design, lub)
        rows.append(
            [
                task_count,
                report.pessimistic.state_count,
                report.informed.state_count,
                round(report.reduction_factor, 1),
            ]
        )
        factors.append(report.reduction_factor)
    small = scaling_workload(6, periods=8)
    small_lub = learn_bounded(small.trace, 8).lub()
    benchmark(compare_state_spaces, small.design, small_lub)
    print()
    print(
        format_table(
            ["tasks", "pessimistic states", "informed states", "factor"],
            rows,
            title="[E7] state-space reduction vs system size",
        )
    )
    assert all(factor > 1.0 for factor in factors)
    assert factors[-1] > factors[0]
