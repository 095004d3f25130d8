"""E6 — end-to-end latency tightening (paper Section 3.4).

"One path that was examined in this case study was the critical path
including task Q. Our learning algorithm introduces an implicit dependency
between task Q and O, which is less pessimistic when calculating the
end-to-end path latency in the way of excluding the possible preemption
from higher priority task O during the execution of task Q."

Regenerated here: the critical path into Q is analyzed twice — under the
all-independent pessimistic assumption and under the learned model. The
informed bound must be strictly tighter, with O explicitly among the
preemptors excluded for Q.
"""

from repro.analysis.latency import compare_path_latency, response_time
from repro.bench.reporting import format_table
from repro.core.batch import learn_bounded

CRITICAL_PATH = ["O", "P", "Q"]


def test_e6_q_critical_path(benchmark, gm):
    lub = learn_bounded(gm.trace, 16).lub()
    comparison = benchmark(
        compare_path_latency, gm.design, CRITICAL_PATH, lub
    )
    print("\n[E6] critical path through Q, pessimistic analysis:")
    print(comparison.pessimistic.breakdown())
    print("\n[E6] with learned dependencies:")
    print(comparison.informed.breakdown())
    print(
        f"\n[E6] improvement: {comparison.improvement:.2f} "
        f"({comparison.improvement_ratio:.1%})"
    )
    assert comparison.informed.latency < comparison.pessimistic.latency
    q_term = comparison.informed.task_terms[-1]
    assert "O" in q_term.excluded_tasks, "O must be excluded from Q's preemptors"


def test_e6_per_task_response_times(benchmark, gm):
    lub = learn_bounded(gm.trace, 16).lub()

    def table():
        rows = []
        for task in gm.design.task_names:
            pessimistic = response_time(gm.design, task)
            informed = response_time(gm.design, task, lub)
            rows.append(
                [
                    task,
                    pessimistic.response_time,
                    informed.response_time,
                    pessimistic.response_time - informed.response_time,
                ]
            )
        return rows

    rows = benchmark(table)
    print()
    print(
        format_table(
            ["task", "pessimistic R", "informed R", "gain"],
            rows,
            title="[E6] worst-case response times",
        )
    )
    # Informed analysis is never worse, and strictly better somewhere.
    assert all(row[2] <= row[1] for row in rows)
    assert any(row[3] > 0 for row in rows)


def test_e6_q_specific_exclusion(benchmark, gm):
    """The paper's exact claim, as a point query."""
    lub = learn_bounded(gm.trace, 16).lub()
    report = benchmark(response_time, gm.design, "Q", lub)
    assert "O" in report.excluded_tasks
    o_wcet = gm.design.task("O").wcet
    pessimistic = response_time(gm.design, "Q")
    assert pessimistic.response_time - report.response_time >= o_wcet
