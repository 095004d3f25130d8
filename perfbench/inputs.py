"""Workload inputs, generated from the benchmark's ``--seed``.

The program receives only what these functions build: simulated traces
of the paper's designs and text logs written from them. The same seed
always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's Section 3.4 bounds (E2).
PAPER_BOUNDS = (1, 4, 16, 32, 64, 100, 120, 150)
#: Periods of the paper's GM case study.
GM_PERIODS = 27


@dataclass(frozen=True)
class Size:
    """How much input a workload gets; ``full`` is the benchmarked size."""

    bounds: tuple[int, ...]
    store_periods: int
    sessions_per_connection: int
    session_periods: int
    probe_periods: int


SIZES = {
    "full": Size(
        bounds=PAPER_BOUNDS,
        store_periods=500,
        sessions_per_connection=8,
        session_periods=50,
        probe_periods=120,
    ),
    # Seconds, not minutes: for the benchmark's own tests.
    "smoke": Size(
        bounds=(1, 4, 16),
        store_periods=24,
        sessions_per_connection=2,
        session_periods=12,
        probe_periods=12,
    ),
}


def gm_trace(seed: int, periods: int):
    """The GM case study (18 tasks, one CAN bus) simulated for *periods*."""
    from repro.sim.simulator import Simulator, SimulatorConfig
    from repro.systems.gm import gm_case_study_design

    design = gm_case_study_design()
    config = SimulatorConfig(period_length=100.0)
    return Simulator(design, config, seed=seed).run(periods).trace


def session_traces(seed: int, count: int, periods: int):
    """One simulated trace of the paper's four-task design per session."""
    from repro.sim.simulator import Simulator, SimulatorConfig
    from repro.systems.examples import simple_four_task_design

    design = simple_four_task_design()
    config = SimulatorConfig(period_length=50.0)
    return [
        Simulator(design, config, seed=seed * 1000 + index).run(periods).trace
        for index in range(count)
    ]
