"""Operation-mode extraction from traces (paper Section 3.4).

The paper lists "operation mode of tasks" among the system properties the
learned model helps prove. This module makes modes first-class: a *mode*
is a distinct executed-task signature observed across periods — e.g. the
GM system alternates between "C-branch" and "D-branch" body modes
combined with the chassis activation patterns.

For each mode the module reports frequency, the tasks that distinguish it
from the common core, and (optionally) a per-mode dependency model learned
from just that mode's periods — useful when a disjunction node's branches
behave differently enough that a single global model is too coarse.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.depfunc import DependencyFunction
from repro.core.batch import learn_bounded
from repro.errors import AnalysisError
from repro.trace.trace import Trace


@dataclass(frozen=True)
class Mode:
    """One observed operation mode."""

    signature: frozenset[str]
    period_indices: tuple[int, ...]
    frequency: float

    @property
    def occurrence_count(self) -> int:
        return len(self.period_indices)

    def distinguishing_tasks(self, core: frozenset[str]) -> frozenset[str]:
        """Tasks that run in this mode beyond the always-running core."""
        return self.signature - core

    def __str__(self) -> str:
        return (
            f"mode {{{', '.join(sorted(self.signature))}}}: "
            f"{self.occurrence_count} periods ({self.frequency:.1%})"
        )


@dataclass
class ModeReport:
    """All modes of a trace."""

    modes: list[Mode]
    core: frozenset[str]

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    def dominant(self) -> Mode:
        return max(self.modes, key=lambda m: m.occurrence_count)

    def mode_of(self, period_index: int) -> Mode:
        for mode in self.modes:
            if period_index in mode.period_indices:
                return mode
        raise AnalysisError(f"period {period_index} not in any mode")

    def summary(self) -> str:
        lines = [
            f"{self.mode_count} operation modes; always-running core: "
            f"{{{', '.join(sorted(self.core))}}}"
        ]
        for mode in self.modes:
            extra = sorted(mode.distinguishing_tasks(self.core))
            lines.append(f"  {mode} — adds {extra}")
        return "\n".join(lines)


def extract_modes(trace: Trace) -> ModeReport:
    """Cluster the trace's periods by executed-task signature."""
    if len(trace) == 0:
        raise AnalysisError("cannot extract modes from an empty trace")
    by_signature: dict[frozenset[str], list[int]] = {}
    for period in trace.periods:
        by_signature.setdefault(period.executed_tasks, []).append(period.index)
    total = len(trace)
    modes = [
        Mode(
            signature=signature,
            period_indices=tuple(indices),
            frequency=len(indices) / total,
        )
        for signature, indices in by_signature.items()
    ]
    modes.sort(key=lambda m: (-m.occurrence_count, sorted(m.signature)))
    core = frozenset.intersection(*by_signature.keys())
    return ModeReport(modes=modes, core=core)


def per_mode_models(
    trace: Trace,
    bound: int = 8,
    min_periods: int = 2,
) -> dict[frozenset[str], DependencyFunction]:
    """Learn a dependency model per mode (modes with enough periods).

    Each mode's model is learned only from that mode's periods, so
    conditional structure inside a mode becomes certain within it — e.g.
    the C-branch mode's model has ``d(A, C) = →`` where the global model
    only has ``→?``.
    """
    report = extract_modes(trace)
    models: dict[frozenset[str], DependencyFunction] = {}
    for mode in report.modes:
        if mode.occurrence_count < min_periods:
            continue
        periods = [trace[index] for index in mode.period_indices]
        sub_trace = Trace(trace.tasks, [
            # Re-index so Trace's period indices stay consecutive.
            type(periods[0])(period.events, index=i)
            for i, period in enumerate(periods)
        ])
        result = learn_bounded(sub_trace, bound)
        models[mode.signature] = result.lub()
    return models
