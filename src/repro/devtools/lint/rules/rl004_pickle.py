"""RL004 — shard/pickle safety at the process-pool boundary.

Shard-parallel learning (:mod:`repro.core.sharded`) ships work to
``ProcessPoolExecutor`` workers, which pickle the callable and every
argument through the multiprocessing pipe. Lambdas, nested functions
and closures pickle by *reference to a module-level name* — which they
do not have — so they fail at submit time on some platforms and,
worse, only at result time on others. The rule keeps the boundary
statically safe:

* callables submitted via ``pool.submit(f, ...)`` / ``pool.map(f, ...)``
  must be module-level ``def``s or imported names — never lambdas,
  nested defs, or local names bound to lambdas;
* lambdas anywhere else in the submit/map argument list are flagged
  too (they would be pickled as arguments).

A name counts as a pool when it is bound to a ``ProcessPoolExecutor``
by a ``with`` item or an assignment in the same function, when it is a
parameter whose annotation names a pool type (the fault-tolerant
runtime's resubmission helpers receive their pool this way), when it is
assigned from a call to a function in the same module whose *return*
annotation names a pool type (pool-rebuild factories like
``self._new_pool()``), or when the pool is held on an attribute
(``self._pool = ProcessPoolExecutor(...)`` then ``self._pool.submit``).

Names the rule cannot resolve get the benefit of the doubt; the
differential shard tests cover the dynamic rest.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import (
    ModuleContext,
    Rule,
    call_name,
    register,
    top_level_functions,
)

#: Executor types whose ``submit``/``map`` cross a pickle boundary. The
#: bare ``Executor`` type is deliberately included: the shard runtime
#: types its pool abstractly (``ShardRuntime._new_pool`` returns an
#: ``Executor``), and abstract submit sites need the same static safety.
POOL_TYPES = frozenset({"ProcessPoolExecutor", "Executor"})
SUBMIT_METHODS = frozenset({"submit", "map"})


def _is_pool_constructor(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node.func) in POOL_TYPES


def _annotation_names_pool(annotation: ast.AST | None) -> bool:
    """True when the annotation mentions a pool type anywhere — covers
    plain names, dotted names, unions (``ProcessPoolExecutor | None``)
    and string annotations."""
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in POOL_TYPES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in POOL_TYPES:
            return True
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and any(pool in node.value for pool in POOL_TYPES)
        ):
            return True
    return False


def _pool_factories(tree: ast.Module) -> frozenset[str]:
    """Names of functions whose return annotation names a pool type."""
    return frozenset(
        func.name
        for func in top_level_functions(tree)
        if _annotation_names_pool(func.returns)
    )


def _dotted(node: ast.AST) -> str | None:
    """``self._pool`` for an attribute chain of plain names, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@register
class PickleSafetyRule(Rule):
    code = "RL004"
    name = "shard-pickle-safety"
    invariant = (
        "everything crossing the ProcessPoolExecutor shard boundary is "
        "picklable: module-level functions, no lambdas or closures"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        factories = _pool_factories(ctx.tree)
        for func in top_level_functions(ctx.tree):
            yield from self._check_function(ctx, func, factories)

    def _check_function(
        self,
        ctx: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        factories: frozenset[str],
    ) -> Iterator[Finding]:
        def binds_pool(value: ast.AST | None) -> bool:
            """Constructor call or a call to a pool-returning factory."""
            if value is None:
                return False
            return _is_pool_constructor(value) or (
                isinstance(value, ast.Call)
                and call_name(value.func) in factories
            )

        pool_names: set[str] = set()
        pool_attrs: set[str] = set()
        nested_defs: set[str] = set()
        lambda_names: set[str] = set()
        arguments = func.args
        for arg in (
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs
        ):
            if _annotation_names_pool(arg.annotation):
                pool_names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.With):
                for item in node.items:
                    if binds_pool(item.context_expr) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        pool_names.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if binds_pool(node.value):
                            pool_names.add(target.id)
                        elif isinstance(node.value, ast.Lambda):
                            lambda_names.add(target.id)
                    elif isinstance(target, ast.Attribute) and binds_pool(
                        node.value
                    ):
                        attr = _dotted(target)
                        if attr is not None:
                            pool_attrs.add(attr)
            elif isinstance(node, ast.AnnAssign):
                if _annotation_names_pool(node.annotation) or binds_pool(
                    node.value
                ):
                    if isinstance(node.target, ast.Name):
                        pool_names.add(node.target.id)
                    elif isinstance(node.target, ast.Attribute):
                        attr = _dotted(node.target)
                        if attr is not None:
                            pool_attrs.add(attr)
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not func
            ):
                nested_defs.add(node.name)
        if not pool_names and not pool_attrs:
            return
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
            ):
                continue
            receiver = node.func.value
            if isinstance(receiver, ast.Name):
                if receiver.id not in pool_names:
                    continue
            elif isinstance(receiver, ast.Attribute):
                if _dotted(receiver) not in pool_attrs:
                    continue
            else:
                continue
            target = node.args[0] if node.args else None
            if isinstance(target, ast.Lambda):
                yield ctx.finding(
                    self,
                    target,
                    "lambda submitted to a process pool is not picklable; "
                    "use a module-level function",
                )
            elif isinstance(target, ast.Name):
                if target.id in nested_defs:
                    yield ctx.finding(
                        self,
                        target,
                        f"nested function '{target.id}' submitted to a "
                        "process pool is not picklable; hoist it to module "
                        "level",
                    )
                elif target.id in lambda_names:
                    yield ctx.finding(
                        self,
                        target,
                        f"'{target.id}' is bound to a lambda; process-pool "
                        "callables must be module-level functions",
                    )
                # Module-level names and unresolvable bindings (parameters,
                # attributes) get the benefit of the doubt; the dynamic
                # shard tests cover them.
            for extra in list(node.args[1:]) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(extra):
                    if isinstance(sub, ast.Lambda):
                        yield ctx.finding(
                            self,
                            sub,
                            "lambda in a process-pool argument list would "
                            "be pickled; pass data, not code",
                        )


__all__ = ["PickleSafetyRule"]
