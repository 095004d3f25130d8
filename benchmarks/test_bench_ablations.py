"""Ablations of the design choices DESIGN.md §6 calls out.

Not a paper artifact — these quantify the sensitivity of the reproduction
to its implementation choices, on the GM workload:

* **weight function**: the paper's square distance vs linear distance vs
  entry count, as the heuristic's merge-ordering criterion;
* **candidate tolerance**: how timing slack inflates the feasible pair
  universe (and with it runtime and model density);
* **merge pressure**: hypotheses merged per message as the bound shrinks.
"""

from repro.bench.harness import measure
from repro.bench.reporting import format_table
from repro.core.batch import learn_bounded
from repro.core.matching import matches_trace
from repro.core.weights import NAMED_DISTANCES
from repro.theory.theorems import feasible_pair_universe

BOUND = 16


def test_ablation_weight_functions(benchmark, gm):
    rows = []
    results = {}
    for name, distance in sorted(NAMED_DISTANCES.items()):
        measurement = measure(
            name, lambda d=distance: learn_bounded(gm.trace, BOUND, distance=d)
        )
        result = measurement.value
        results[name] = result
        lub = result.lub()
        rows.append(
            [
                name,
                measurement.seconds,
                result.merge_count,
                lub.weight(),
                lub.entry_count(),
            ]
        )
    benchmark(
        learn_bounded, gm.trace, BOUND
    )
    print()
    print(
        format_table(
            ["weight fn", "seconds", "merges", "LUB weight", "LUB entries"],
            rows,
            title="[ablation] merge-ordering weight function (GM, b=16)",
        )
    )
    # All weight functions produce sound results with the same LUB: the
    # ordering criterion affects intermediate structure, not the Lemma.
    reference = learn_bounded(gm.trace, 1).unique
    for name, result in results.items():
        assert result.lub() == reference, name
        assert matches_trace(result.functions[0], gm.trace)


def test_ablation_candidate_tolerance(benchmark, gm):
    rows = []
    sizes = []
    for tolerance in (0.0, 0.1, 0.5, 2.0):
        universe = len(feasible_pair_universe(gm.trace, tolerance))
        measurement = measure(
            f"tol={tolerance}",
            lambda t=tolerance: learn_bounded(gm.trace, BOUND, tolerance=t),
        )
        lub = measurement.value.lub()
        rows.append(
            [tolerance, universe, measurement.seconds, lub.entry_count()]
        )
        sizes.append(universe)
    benchmark(learn_bounded, gm.trace, BOUND, 0.0)
    print()
    print(
        format_table(
            ["tolerance", "pair universe", "seconds", "LUB entries"],
            rows,
            title="[ablation] timing tolerance vs ambiguity (GM, b=16)",
        )
    )
    assert sizes == sorted(sizes), "tolerance must only widen the universe"


def test_ablation_merge_pressure(benchmark, gm):
    rows = []
    merges = []
    for bound in (1, 8, 64):
        result = learn_bounded(gm.trace, bound)
        rows.append(
            [bound, result.merge_count, result.peak_hypotheses]
        )
        merges.append(result.merge_count)
    benchmark(learn_bounded, gm.trace, 8)
    print()
    print(
        format_table(
            ["bound", "merges", "peak hypotheses"],
            rows,
            title="[ablation] merge pressure vs bound (GM)",
        )
    )
    assert merges == sorted(merges)


def test_ablation_property_stability_across_seeds(benchmark):
    """E3's published properties must not depend on the simulation seed."""
    from repro.analysis.properties import (
        proved_fraction,
        prove_all,
        published_case_study_properties,
    )
    from repro.analysis.sensitivity import stability
    from repro.sim.simulator import Simulator, SimulatorConfig
    from repro.systems.gm import gm_case_study_design

    design = gm_case_study_design()
    traces = [
        Simulator(design, SimulatorConfig(period_length=100.0), seed=seed)
        .run(20)
        .trace
        for seed in (7, 11, 13)
    ]
    rows = []
    for seed, trace in zip((7, 11, 13), traces):
        lub = learn_bounded(trace, BOUND).lub()
        verdicts = prove_all(lub, published_case_study_properties())
        rows.append([seed, f"{proved_fraction(verdicts):.0%}"])
        assert proved_fraction(verdicts) == 1.0, f"seed {seed}"
    report = stability(traces, bound=BOUND)
    benchmark(learn_bounded, traces[0], BOUND)
    print()
    print(
        format_table(
            ["seed", "published properties proved"],
            rows,
            title="[ablation] E3 property stability across seeds",
        )
    )
    print(
        f"[ablation] certain-fact robustness across seeds: "
        f"{report.robustness_ratio:.0%} "
        f"({len(report.robust_facts())}/{len(report.facts)})"
    )
