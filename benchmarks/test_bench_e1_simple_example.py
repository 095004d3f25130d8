"""E1 — Figures 1, 2, 4 and the Section 3.3 tables.

Regenerates the paper's worked example: the exact algorithm on the
Figure 2 trace must produce the published intermediate set (3 hypotheses
after period 1), the five survivors (``d81 … d85``), and ``dLUB``
(Figure 4). The benchmark measures the exact learner on this trace.

Run with ``-s`` to see the regenerated tables.
"""

from repro.core.batch import ExactLearner, learn_exact
from repro.core.learner import learn_dependencies


def test_e1_exact_learning_paper_trace(benchmark, paper_trace):
    result = benchmark(learn_exact, paper_trace)

    assert len(result.functions) == 5
    lub = result.lub()
    # Figure 4 / dLUB, entry by entry.
    expected = {
        ("t1", "t2"): "->?",
        ("t1", "t3"): "->?",
        ("t1", "t4"): "->",
        ("t2", "t1"): "<-",
        ("t2", "t4"): "->",
        ("t3", "t1"): "<-",
        ("t3", "t4"): "->",
        ("t4", "t1"): "<-",
        ("t4", "t2"): "<-?",
        ("t4", "t3"): "<-?",
        ("t2", "t3"): "||",
        ("t3", "t2"): "||",
    }
    for (a, b), value in expected.items():
        assert str(lub.value(a, b)) == value, (a, b)

    print("\n[E1] most specific hypotheses after period 3 "
          f"({len(result.functions)}, matching the paper's d81..d85):")
    for index, function in enumerate(result.functions, start=81):
        print(f"\nd{index}:")
        print(function.to_table())
    print("\ndLUB (paper Figure 4):")
    print(lub.to_table())


def test_e1_intermediate_period1_set(benchmark, paper_trace):
    def one_period():
        learner = ExactLearner(paper_trace.tasks)
        learner.feed(paper_trace[0])
        return learner.result()

    result = benchmark(one_period)
    assert len(result.functions) == 3  # the paper's d21, d22, d23
    print("\n[E1] hypotheses after period 1 (paper d21, d22, d23):")
    for function in result.functions:
        print()
        print(function.to_table())


def test_e1_convergence_needs_more_periods(benchmark, paper_trace):
    """The paper notes the example does not converge in 3 periods."""
    result = benchmark(learn_dependencies, paper_trace)
    assert not result.converged
    print(
        f"\n[E1] converged: {result.converged} "
        f"({len(result.functions)} hypotheses remain; more periods needed)"
    )
