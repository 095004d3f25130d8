"""RL008 — asyncio event-loop confinement to the service package.

The session service (:mod:`repro.service`) is the repo's one
event-loop program: a daemon juggling hundreds of live sockets is
exactly what cooperative scheduling is for. Everywhere else the
codebase is deliberately synchronous — learners are pure incremental
state machines, the shard runtime is process-pool based,
and the CLI is a batch program. Letting ``async`` leak into those
layers would fork every API into sync/async twins and make the
learner hot loop's cost model (paper Theorems 2/3) hostage to
scheduler behavior.

Outside ``repro.service`` (and ``repro.devtools`` itself) the rule
flags:

* importing :mod:`asyncio` — by ``import`` or ``from``-import, whole
  or by submodule;
* defining a coroutine (``async def``), including async generators;
* ``async for`` / ``async with`` blocks (unreachable without the
  above, but reported at their own site for better messages).

The service exposes synchronous entry points (``serve_service``, the
client library) so callers above the boundary never touch a loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleContext, Rule, register

#: Modules allowed to run an event loop.
ALLOWED_PREFIXES = (
    "repro.service",
    "repro.devtools",
)


@register
class AsyncConfinementRule(Rule):
    code = "RL008"
    name = "async-confinement"
    invariant = (
        "asyncio and coroutines exist only inside repro.service; every "
        "other layer stays synchronous"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro") and not ctx.module.startswith(
            ALLOWED_PREFIXES
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.applies_to(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "asyncio" or alias.name.startswith(
                        "asyncio."
                    ):
                        yield ctx.finding(
                            self,
                            node,
                            "import of asyncio outside repro.service; use "
                            "the service's synchronous entry points instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "asyncio" or module.startswith("asyncio."):
                    yield ctx.finding(
                        self,
                        node,
                        "import from asyncio outside repro.service; use "
                        "the service's synchronous entry points instead",
                    )
            elif isinstance(node, ast.AsyncFunctionDef):
                yield ctx.finding(
                    self,
                    node,
                    f"coroutine '{node.name}' defined outside repro.service; "
                    "this layer is synchronous by contract",
                )
            elif isinstance(node, (ast.AsyncFor, ast.AsyncWith)):
                construct = (
                    "async for" if isinstance(node, ast.AsyncFor) else "async with"
                )
                yield ctx.finding(
                    self,
                    node,
                    f"'{construct}' outside repro.service; this layer is "
                    "synchronous by contract",
                )


__all__ = ["ALLOWED_PREFIXES", "AsyncConfinementRule"]
