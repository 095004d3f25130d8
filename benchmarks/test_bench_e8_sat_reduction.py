"""E8 — Theorem 1: NP-hardness, demonstrated constructively.

The paper proves that finding the most-specific hypothesis set is NP-hard
by a SAT transformation (details in their technical report). This
benchmark exercises our executable counterpart: Minimum Hitting Set and
3-SAT instances embedded into traces, solved by the exact learner, and
the exponential growth of its hypothesis set as instances grow.
"""

from repro.bench.harness import measure
from repro.bench.reporting import format_table
from repro.core.batch import learn_exact
from repro.theory.sat_reduction import (
    CnfFormula,
    brute_force_minimal_hitting_sets,
    check_assignment,
    minimal_hitting_sets_via_learning,
    solve_sat_via_learning,
    trace_from_clauses,
)


def pairwise_clauses(item_count):
    """All 2-subsets of n items: minimum hitting sets have n-1 elements."""
    items = [f"x{i}" for i in range(item_count)]
    return [
        [items[i], items[j]]
        for i in range(item_count)
        for j in range(i + 1, item_count)
    ]


def test_e8_hitting_sets_agree_with_brute_force(benchmark):
    clauses = pairwise_clauses(4)
    learned = benchmark(minimal_hitting_sets_via_learning, clauses)
    assert learned == brute_force_minimal_hitting_sets(clauses)
    print(f"\n[E8] pairwise clauses over 4 items: {len(learned)} minimal "
          "hitting sets, matching brute force")


def disjoint_pair_clauses(pair_count):
    """k disjoint 2-clauses: exactly 2^k minimal hitting sets."""
    return [[f"a{i}", f"b{i}"] for i in range(pair_count)]


def test_e8_exponential_growth_of_hypothesis_set(benchmark):
    rows = []
    survivor_counts = []
    for pair_count in (2, 3, 4, 5, 6):
        clauses = disjoint_pair_clauses(pair_count)
        trace = trace_from_clauses(clauses)
        measurement = measure(
            f"k={pair_count}", lambda t=trace: learn_exact(t)
        )
        result = measurement.value
        rows.append(
            [
                pair_count,
                len(clauses),
                result.peak_hypotheses,
                len(result.functions),
                measurement.seconds,
            ]
        )
        survivor_counts.append(len(result.functions))
    benchmark(learn_exact, trace_from_clauses(disjoint_pair_clauses(3)))
    print()
    print(
        format_table(
            ["pairs k", "clauses", "peak hypotheses", "survivors", "seconds"],
            rows,
            title="[E8] exact learner growth on disjoint-pair hitting sets",
        )
    )
    # Exactly 2^k minimal hitting sets survive — the exponential output
    # size that makes any exact most-specific-set algorithm exponential
    # (Theorem 1's practical face).
    assert survivor_counts == [2 ** k for k in (2, 3, 4, 5, 6)]


def test_e8_sat_solving_via_learner(benchmark):
    formula = CnfFormula(
        clauses=(
            (("a", True), ("b", True), ("c", True)),
            (("a", False), ("b", False)),
            (("b", True), ("c", False)),
            (("a", True), ("c", True)),
        )
    )
    assignment = benchmark(solve_sat_via_learning, formula)
    assert assignment is not None
    assert check_assignment(formula, assignment)
    print(f"\n[E8] satisfying assignment via exact learner: {assignment}")

    unsat = CnfFormula(clauses=((("x", True),), (("x", False),)))
    assert solve_sat_via_learning(unsat) is None
    print("[E8] unsatisfiable instance correctly reported: OK")
