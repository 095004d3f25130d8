"""Stability analysis: which learned facts survive environment variation?

The paper's footnote 3 warns that a deterministic execution environment
makes the learned model *more specific* than the design — some certain
arrows are artifacts of one particular schedule. The practical antidote
is re-characterization: learn from several independently seeded runs (or
log sessions) and keep only the facts that persist.

:func:`stability` learns one model per trace and reports, for every
ordered task pair, in how many runs each certain arrow appeared:

* facts at stability 1.0 are *robust* — good candidates for real design
  truths or genuinely pinned environment behavior;
* facts below 1.0 are schedule artifacts; treating them as system
  properties would be unsound across deployments.

The intersection model (GLB across runs' LUBs would be too strict — a
pair missing anywhere drops to ‖, which is exactly what we want for
certainty) is available as :func:`robust_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.depfunc import DependencyFunction
from repro.core.batch import learn_bounded
from repro.core.lattice import DETERMINES
from repro.errors import AnalysisError
from repro.trace.trace import Trace


@dataclass(frozen=True)
class FactStability:
    """One certain forward arrow's persistence across runs."""

    source: str
    target: str
    appearances: int
    runs: int

    @property
    def stability(self) -> float:
        return self.appearances / self.runs

    @property
    def robust(self) -> bool:
        return self.appearances == self.runs

    def __str__(self) -> str:
        return (
            f"d({self.source}, {self.target}) = ->: "
            f"{self.appearances}/{self.runs} runs"
        )


@dataclass
class StabilityReport:
    """Certain-arrow stability across a set of independently learned runs."""

    facts: list[FactStability]
    runs: int

    def robust_facts(self) -> list[FactStability]:
        return [fact for fact in self.facts if fact.robust]

    def fragile_facts(self) -> list[FactStability]:
        return [fact for fact in self.facts if not fact.robust]

    @property
    def robustness_ratio(self) -> float:
        if not self.facts:
            return 1.0
        return len(self.robust_facts()) / len(self.facts)

    def summary(self) -> str:
        lines = [
            f"{len(self.facts)} certain facts across {self.runs} runs: "
            f"{len(self.robust_facts())} robust "
            f"({self.robustness_ratio:.0%})"
        ]
        fragile = self.fragile_facts()
        if fragile:
            lines.append("fragile (schedule-dependent) facts:")
            lines.extend(f"  {fact}" for fact in fragile)
        return "\n".join(lines)


def stability(
    traces: Sequence[Trace], bound: int = 16, tolerance: float = 0.0
) -> StabilityReport:
    """Learn each trace independently and score certain-arrow persistence."""
    if not traces:
        raise AnalysisError("stability analysis needs at least one trace")
    universe = set(traces[0].tasks)
    for trace in traces[1:]:
        if set(trace.tasks) != universe:
            raise AnalysisError("traces cover different task universes")
    counts: dict[tuple[str, str], int] = {}
    for trace in traces:
        model = learn_bounded(trace, bound, tolerance).lub()
        for a, b, value in model.nonparallel_pairs():
            if value is DETERMINES:
                counts[a, b] = counts.get((a, b), 0) + 1
    facts = [
        FactStability(a, b, appearances, len(traces))
        for (a, b), appearances in counts.items()
    ]
    facts.sort(key=lambda fact: (-fact.appearances, fact.source, fact.target))
    return StabilityReport(facts=facts, runs=len(traces))


def robust_model(
    traces: Sequence[Trace], bound: int = 16, tolerance: float = 0.0
) -> DependencyFunction:
    """The model containing only run-invariant certain arrows.

    Probable arrows are kept when present in *any* run (they claim less);
    certain arrows must appear in *every* run, otherwise they degrade to
    the LUB of their per-run values (typically ``→?``).
    """
    if not traces:
        raise AnalysisError("robust model needs at least one trace")
    models = [
        learn_bounded(trace, bound, tolerance).lub() for trace in traces
    ]
    combined = models[0]
    for model in models[1:]:
        combined = combined.lub(model)
    report = stability(traces, bound, tolerance)
    fragile = {
        (fact.source, fact.target)
        for fact in report.fragile_facts()
    }
    entries = {}
    for a, b, value in combined.nonparallel_pairs():
        if value is DETERMINES and (a, b) in fragile:
            from repro.core.lattice import MAY_DETERMINE

            entries[a, b] = MAY_DETERMINE
        else:
            entries[a, b] = value
    return DependencyFunction(combined.tasks, entries)
