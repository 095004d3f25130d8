"""RL002 — hot-loop purity in the mask kernel.

The PR-3 bitmask kernel is fast because its hot loops touch nothing but
ints: no string pair sets, no mask decoding, no per-iteration string
formatting. That property is marked in source with the
``@hot_loop`` decorator (:func:`repro.core.instrumentation.hot_loop`)
and enforced here in two parts:

**Coverage** — in the kernel modules (``repro.core.interning``,
``batch``, ``sharded``) every module-level function or method that contains a ``for``/``while`` statement (including in nested
defs) must either carry ``@hot_loop`` or a per-line suppression; the
suppression is the explicit record that a loop is boundary code
(decode, coordination) rather than kernel code.

**Purity** — inside any ``@hot_loop`` function, in any module:

* calls that decode masks back to strings (``pairs_of``,
  ``sorted_pairs_of``, ``to_pairs``, ``as_strings``, ``decode``) are
  flagged anywhere in the function;
* f-strings and ``set``/``frozenset`` construction (string pair sets)
  are flagged when they execute *inside* a loop. ``raise`` statements
  are exempt: error paths may allocate, they fire once.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import (
    ModuleContext,
    Rule,
    call_name,
    decorator_names,
    register,
    top_level_functions,
    walk_scoped,
)

#: Modules whose statement loops must be @hot_loop-marked (or waived).
KERNEL_MODULES = frozenset(
    {
        "repro.core.interning",
        "repro.core.batch",
        "repro.core.sharded",
    }
)

MARKER = "hot_loop"

#: Calls that decode the interned representation back into strings.
DECODE_NAMES = frozenset(
    {"pairs_of", "sorted_pairs_of", "to_pairs", "as_strings", "decode"}
)


def _contains_statement_loop(func: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.For, ast.AsyncFor, ast.While))
        for node in ast.walk(func)
    )


@register
class HotLoopRule(Rule):
    code = "RL002"
    name = "hot-loop-purity"
    invariant = (
        "kernel hot loops operate on interned ints only: no mask "
        "decoding, no string pair-set construction, no f-string "
        "allocation per iteration"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        in_kernel = ctx.module in KERNEL_MODULES
        for func in top_level_functions(ctx.tree):
            marked = MARKER in decorator_names(func)
            if in_kernel and not marked and _contains_statement_loop(func):
                yield ctx.finding(
                    self,
                    func,
                    f"kernel function '{func.name}' contains loops but is "
                    "not marked @hot_loop; mark it, or suppress if it is "
                    "boundary code",
                )
            if marked:
                yield from self._check_purity(ctx, func)

    def _check_purity(
        self,
        ctx: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, in_loop: bool) -> None:
            if isinstance(node, ast.Call):
                name = call_name(node.func)
                if name in DECODE_NAMES:
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"'{name}' decodes masks to strings inside "
                            f"@hot_loop '{func.name}'; decode at the "
                            "boundary instead",
                        )
                    )
                elif (
                    in_loop
                    and isinstance(node.func, ast.Name)
                    and name in {"set", "frozenset"}
                ):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"{name}(...) construction inside a loop of "
                            f"@hot_loop '{func.name}'; keep the loop on "
                            "interned masks",
                        )
                    )
            elif isinstance(node, ast.Set) and in_loop:
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        "set literal inside a loop of @hot_loop "
                        f"'{func.name}'; keep the loop on interned masks",
                    )
                )
            elif isinstance(node, ast.JoinedStr) and in_loop:
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        "f-string allocation inside a loop of @hot_loop "
                        f"'{func.name}'; format at the boundary instead",
                    )
                )

        # Error paths (raise statements) may allocate: they fire once.
        walk_scoped(func, False, visit, skip=(ast.Raise,))
        yield from findings


__all__ = ["HotLoopRule", "KERNEL_MODULES", "DECODE_NAMES"]
