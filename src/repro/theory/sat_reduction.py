"""NP-hardness construction (paper Theorem 1), made executable.

Theorem 1 states that finding the set of most-specific hypotheses is
NP-hard (the paper proves it from SAT; the proof lives in their technical
report). This module exhibits the hardness constructively in the reverse,
checkable direction: arbitrary instances of two NP-complete problems are
*embedded into traces*, such that the exact learner's surviving minimal
pair sets solve them. A polynomial most-specific-set algorithm would
therefore solve Minimum Hitting Set and 3-SAT in polynomial time.

Embedding: one ground-set item = one receiver task; one *clause* = one
period in which a sender task ``src`` runs, emits a single message, and
exactly the clause's items run afterwards. The message's temporal
candidates are then ``{(src, item) | item in clause}``, so a hypothesis
survives the trace iff its pair set hits every clause — and the exact
learner's minimal survivors are exactly the *minimal hitting sets*.

3-SAT reduces onto this via the standard encoding: for each variable a
2-clause ``{x, ¬x}`` forces one polarity to be picked; the formula is
satisfiable iff the minimum hitting set has exactly one element per
variable (no variable needs both polarities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.batch import learn_exact
from repro.trace.synthetic import build_trace

Clause = frozenset[str]

#: Name of the designated sender task in generated traces.
SENDER = "src"


def trace_from_clauses(clauses: Sequence[Iterable[str]]):
    """Build a trace whose minimal surviving pair sets are the minimal
    hitting sets of *clauses*.

    Items may be any non-empty strings other than ``"src"``.
    """
    families = [frozenset(clause) for clause in clauses]
    if not families or any(not clause for clause in families):
        raise ValueError("need at least one non-empty clause")
    items = sorted(set().union(*families))
    if SENDER in items:
        raise ValueError(f"item name {SENDER!r} is reserved for the sender")
    tasks = [SENDER] + items
    periods = []
    for clause in families:
        task_specs = [(SENDER, 0.0, 1.0)]
        # All clause items start strictly after the message falls; items
        # outside the clause do not run this period.
        for offset, item in enumerate(sorted(clause)):
            start = 2.0 + 0.1 * offset
            task_specs.append((item, start, start + 0.5 + 0.1 * offset))
        message_specs = [("m", 1.2, 1.6)]
        periods.append((task_specs, message_specs))
    return build_trace(tasks, periods)


def minimal_hitting_sets_via_learning(
    clauses: Sequence[Iterable[str]],
) -> list[frozenset[str]]:
    """All minimal hitting sets of *clauses*, computed by the exact learner."""
    trace = trace_from_clauses(clauses)
    result = learn_exact(trace)
    hitting_sets = []
    for hypothesis in result.hypotheses:
        items = frozenset(receiver for sender, receiver in hypothesis.pairs)
        hitting_sets.append(items)
    return sorted(hitting_sets, key=lambda s: (len(s), sorted(s)))


def brute_force_minimal_hitting_sets(
    clauses: Sequence[Iterable[str]],
) -> list[frozenset[str]]:
    """Reference implementation by subset enumeration (small inputs only)."""
    import itertools

    families = [frozenset(clause) for clause in clauses]
    items = sorted(set().union(*families))
    minimal: list[frozenset[str]] = []
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            candidate = frozenset(combo)
            if any(found <= candidate for found in minimal):
                continue
            if all(candidate & clause for clause in families):
                minimal.append(candidate)
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


# ----------------------------------------------------------------------
# 3-SAT on top of hitting sets
# ----------------------------------------------------------------------

Literal = tuple[str, bool]  # (variable, polarity)


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over named variables."""

    clauses: tuple[tuple[Literal, ...], ...]

    @property
    def variables(self) -> tuple[str, ...]:
        names = sorted({var for clause in self.clauses for var, _ in clause})
        return tuple(names)

    @staticmethod
    def literal_item(literal: Literal) -> str:
        variable, polarity = literal
        return f"{variable}+" if polarity else f"{variable}-"


def formula_to_clause_family(formula: CnfFormula) -> list[frozenset[str]]:
    """The hitting-set family encoding *formula* (see module docstring)."""
    family: list[frozenset[str]] = []
    for variable in formula.variables:
        family.append(
            frozenset(
                {
                    CnfFormula.literal_item((variable, True)),
                    CnfFormula.literal_item((variable, False)),
                }
            )
        )
    for clause in formula.clauses:
        family.append(
            frozenset(CnfFormula.literal_item(lit) for lit in clause)
        )
    return family


def solve_sat_via_learning(formula: CnfFormula) -> dict[str, bool] | None:
    """Satisfying assignment extracted from the exact learner, or None.

    Exponential, as Theorem 1 demands of any exact approach; intended for
    small demonstration formulas.
    """
    family = formula_to_clause_family(formula)
    variables = formula.variables
    for hitting_set in minimal_hitting_sets_via_learning(family):
        if len(hitting_set) != len(variables):
            continue
        assignment: dict[str, bool] = {}
        consistent = True
        for item in hitting_set:
            variable, polarity = item[:-1], item.endswith("+")
            if variable in assignment:
                consistent = False
                break
            assignment[variable] = polarity
        if consistent and len(assignment) == len(variables):
            return assignment
    return None


def check_assignment(formula: CnfFormula, assignment: dict[str, bool]) -> bool:
    """Does *assignment* satisfy *formula*?"""
    return all(
        any(assignment[var] == polarity for var, polarity in clause)
        for clause in formula.clauses
    )
