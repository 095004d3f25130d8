"""The system dossier: every analysis over one trace, in one call.

:func:`build_dossier` is the "give me everything" entry point an
integration engineer wants after logging a black box: it learns the
model, classifies nodes, extracts modes, measures trace informativeness,
and — when the design is available — adds coverage, latency comparisons
and the ground-truth agreement. The result renders as one Markdown
document (:meth:`Dossier.to_markdown`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.classify import summarize
from repro.analysis.compare import AgreementReport, compare_functions
from repro.analysis.convergence import LearningCurve, learning_curve
from repro.analysis.coverage import CoverageReport, coverage
from repro.analysis.modes import ModeReport, extract_modes
from repro.analysis.pathfinder import (
    CriticalPathComparison,
    compare_critical_paths,
)
from repro.core.batch import learn_bounded
from repro.core.result import LearningResult
from repro.systems.model import SystemDesign
from repro.systems.semantics import ground_truth_dependencies
from repro.trace.trace import Trace
from repro.trace.validate import AmbiguityReport, ambiguity_report


@dataclass
class Dossier:
    """Everything learned and measured about one system."""

    result: LearningResult
    ambiguity: AmbiguityReport
    modes: ModeReport
    curve: LearningCurve
    coverage: CoverageReport | None = None
    truth_agreement: AgreementReport | None = None
    critical: CriticalPathComparison | None = None

    @property
    def model(self):
        return self.result.lub()

    def to_markdown(self, title: str = "System dossier") -> str:
        model = self.model
        lines = [
            f"# {title}",
            "",
            "## Learning",
            "",
            f"- {self.result.algorithm} algorithm"
            + (
                f", bound {self.result.bound}"
                if self.result.bound is not None
                else ""
            ),
            f"- {self.result.periods} periods, {self.result.messages} "
            "messages",
            f"- converged: {self.result.converged}",
            f"- trace informativeness: {self.ambiguity}",
            "",
            "## Model",
            "",
            "```",
            model.to_table(),
            "```",
            "",
            "## Node classification",
            "",
            "```",
            summarize(model),
            "```",
            "",
            "## Operation modes",
            "",
            "```",
            self.modes.summary(),
            "```",
            "",
            "## Learning curve",
            "",
            "```",
            self.curve.summary(),
            "```",
        ]
        if self.coverage is not None:
            lines += ["", "## Coverage vs design", "", "```",
                      self.coverage.summary(), "```"]
        if self.truth_agreement is not None:
            lines += [
                "",
                "## Agreement with design ground truth",
                "",
                f"- {self.truth_agreement}",
            ]
        if self.critical is not None:
            lines += ["", "## Critical paths", "", "```",
                      self.critical.summary(), "```"]
        lines.append("")
        return "\n".join(lines)


def build_dossier(
    trace: Trace,
    design: SystemDesign | None = None,
    bound: int = 16,
    tolerance: float = 0.0,
    frame_time: float = 0.5,
) -> Dossier:
    """Run the full analysis battery over *trace* (and *design* if given)."""
    result = learn_bounded(trace, bound, tolerance)
    dossier = Dossier(
        result=result,
        ambiguity=ambiguity_report(trace, tolerance),
        modes=extract_modes(trace),
        curve=learning_curve(trace, bound=bound, tolerance=tolerance),
    )
    if design is not None:
        dossier.coverage = coverage(trace, design)
        dossier.truth_agreement = compare_functions(
            result.lub(), ground_truth_dependencies(design)
        )
        dossier.critical = compare_critical_paths(
            design, result.lub(), frame_time=frame_time
        )
    return dossier
