"""E3 — Figure 5: the GM case-study dependency graph and its properties.

The paper translates the learner's textual output into the Figure 5
dependency graph and reads properties off it:

* tasks A and B are disjunction nodes (known in advance, confirmed);
* tasks H, P and Q are conjunction nodes (learned);
* no matter which mode A chooses, L must execute (``d(A, L) = →``);
* no matter which mode B chooses, M must execute (``d(B, M) = →``);
* an implicit data dependency between Q and O arises from the
  infrastructure (CAN/OSEK) interaction.

The real controller is proprietary; our GM-like design reproduces the
same published structure (DESIGN.md, substitutions). The benchmark learns
the 27-period trace, regenerates the graph (DOT + classification summary)
and proves every published property. A process-mining baseline is scored
on the same trace for contrast.
"""

from repro.analysis.classify import classify_all, summarize
from repro.analysis.compare import edge_recovery
from repro.analysis.graph import DependencyGraph
from repro.analysis.properties import (
    prove_all,
    proved_fraction,
    published_case_study_properties,
)
from repro.baselines.direct_follows import mine_dependencies
from repro.core.batch import learn_bounded

LEARN_BOUND = 16


def published_properties():
    return published_case_study_properties()


def test_e3_learn_and_prove_published_properties(benchmark, gm):
    result = benchmark(learn_bounded, gm.trace, LEARN_BOUND)
    lub = result.lub()

    verdicts = prove_all(lub, published_properties())
    print("\n[E3] published case-study properties:")
    for verdict in verdicts:
        print(f"  {verdict}")
    assert proved_fraction(verdicts) == 1.0

    graph = DependencyGraph(lub)
    print(
        f"\n[E3] dependency graph: {graph.edge_count()} forward arrows, "
        f"{graph.edge_count(certain_only=True)} certain"
    )
    print("\n[E3] node classification:")
    print(summarize(lub))


def test_e3_graph_dot_export(benchmark, gm):
    lub = learn_bounded(gm.trace, LEARN_BOUND).lub()
    dot = benchmark(lambda: DependencyGraph(lub).to_dot("gm"))
    assert '"O" -> "Q"' in dot
    assert "style=solid" in dot and "style=dashed" in dot


def test_e3_recall_of_real_bus_flows(benchmark, gm):
    """Every real sender-receiver flow must be recovered (recall = 1)."""
    lub = learn_bounded(gm.trace, LEARN_BOUND).lub()
    recovery = benchmark(edge_recovery, lub, gm.run.logger.true_pairs())
    print(f"\n[E3] learner vs true bus flows: {recovery}")
    assert recovery.recall == 1.0


def test_e3_baseline_comparison(benchmark, gm):
    """Direct-follows mining misses flows the message-guided learner finds."""
    mined = benchmark(mine_dependencies, gm.trace)
    truth = gm.run.logger.true_pairs()
    baseline = edge_recovery(mined, truth)
    learner = edge_recovery(
        learn_bounded(gm.trace, LEARN_BOUND).lub(), truth
    )
    print(f"\n[E3] direct-follows baseline: {baseline}")
    print(f"[E3] message-guided learner : {learner}")
    assert learner.recall >= baseline.recall
    kinds = classify_all(mined)
    # The baseline cannot see message evidence; it is not required to find
    # the published conjunction structure.
    assert learner.recall == 1.0
