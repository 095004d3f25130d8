"""RL007 — wire-framing confinement to the framing module and the service.

The RPF1 frame format — 4 magic bytes, a big-endian length, a pickled
payload — is an implementation detail of
:mod:`repro.distributed.framing`. Exactly one encoder and one decoder
exist; that is what makes the format versionable (bump one magic
string) and what keeps pickle-over-socket auditable: the only place
untrusted-looking bytes become objects is a module whose docstring
states the trust model.

Outside the framing module (with the ``repro.distributed`` package root
that re-exports it), the session service :mod:`repro.service` — its one
user — and ``repro.devtools`` itself, the rule flags:

* importing :mod:`repro.distributed.framing` — by ``import`` or
  ``from``-import, whole or by name;
* importing the framing primitives (``encode_frame`` / ``decode_frame``
  / ``send_frame`` / ``recv_frame`` / ``FRAME_MAGIC``) from anywhere,
  including re-exports off ``repro.distributed``;
* re-implementing the format: any call that both pickles and speaks to
  a socket in the same module (``pickle.dumps``/``loads`` alongside
  ``socket`` usage) is reported, since that is how a second framing
  layer starts.

Everything above the boundary exchanges ordinary objects with the
service's client API (:class:`repro.service.ServiceClient`) and never
sees a frame.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleContext, Rule, register

#: The module that owns the frame format.
FRAMING_MODULE = "repro.distributed.framing"

#: Names that constitute the framing API; importing one of these
#: anywhere outside the package is a boundary breach even when it comes
#: via the package root's re-exports.
FRAMING_NAMES = frozenset(
    {
        "encode_frame",
        "decode_frame",
        "send_frame",
        "recv_frame",
        "FRAME_MAGIC",
    }
)

#: Modules allowed to frame and unframe bytes: the framing module
#: itself and the package root that re-exports it.
ALLOWED_MODULES = frozenset({"repro.distributed", FRAMING_MODULE})

#: Packages allowed to frame and unframe bytes: the session service
#: speaks RPF1 frames over its own sockets and asyncio transport.
ALLOWED_PREFIXES = (
    "repro.service",
    "repro.devtools",
)


@register
class WireFramingRule(Rule):
    code = "RL007"
    name = "wire-framing-confinement"
    invariant = (
        "wire framing (length-prefixed pickle over sockets) exists only "
        "in repro.distributed.framing and repro.service; everything above "
        "exchanges objects"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return (
            ctx.module.startswith("repro")
            and ctx.module not in ALLOWED_MODULES
            and not ctx.module.startswith(ALLOWED_PREFIXES)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.applies_to(ctx):
            return
        uses_socket = False
        pickle_call: ast.AST | None = None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == FRAMING_MODULE or module.startswith(
                    FRAMING_MODULE + "."
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "import from the framing module outside "
                        "repro.service; exchange objects through the "
                        "service client instead",
                    )
                elif module.startswith("repro"):
                    for alias in node.names:
                        if alias.name in FRAMING_NAMES:
                            yield ctx.finding(
                                self,
                                node,
                                f"'{alias.name}' is wire-framing API; it "
                                "must not be used outside repro.service",
                            )
                if module == "socket" or module.startswith("socket."):
                    uses_socket = True
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == FRAMING_MODULE or alias.name.startswith(
                        FRAMING_MODULE + "."
                    ):
                        yield ctx.finding(
                            self,
                            node,
                            "import of the framing module outside "
                            "repro.service; exchange objects through "
                            "the service client instead",
                        )
                    if alias.name == "socket":
                        uses_socket = True
            elif isinstance(node, ast.Call):
                name = self._dotted_call(node)
                if name in ("pickle.dumps", "pickle.loads") and (
                    pickle_call is None
                ):
                    pickle_call = node
        if uses_socket and pickle_call is not None:
            yield ctx.finding(
                self,
                pickle_call,
                "module pickles and talks to sockets; a second framing "
                "layer must not grow outside repro.distributed.framing",
            )

    @staticmethod
    def _dotted_call(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            return f"{func.value.id}.{func.attr}"
        return None


__all__ = [
    "ALLOWED_MODULES",
    "ALLOWED_PREFIXES",
    "FRAMING_NAMES",
    "WireFramingRule",
]
