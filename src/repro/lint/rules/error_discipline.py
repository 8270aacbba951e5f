"""RPR003 error-discipline.

Two checks:

* everywhere: no bare ``except:`` and no ``except Exception`` /
  ``except BaseException`` — swallowing arbitrary errors hides exactly
  the protocol violations the sanitizer exists to surface;
* in the hypervisor and policy layers (path segments ``core`` or
  ``hypervisor``): ``raise`` statements must raise the typed errors of
  :mod:`repro.errors` (checked against this module's
  ``from repro.errors import ...`` names), so callers can catch precise
  failures. Allowed exceptions: re-raises, raising a bound variable,
  ``NotImplementedError``, and ``AttributeError`` inside ``__getattr__``
  (the lazy-import protocol requires it).
"""

from __future__ import annotations

import ast
from typing import Set

from repro.lint.visitor import FileContext, Rule

#: Path segments whose raise statements must use repro.errors types.
TYPED_SEGMENTS = frozenset({"core", "hypervisor"})

#: Builtins that stay legal in typed-raise scope.
ALWAYS_ALLOWED = frozenset({"NotImplementedError"})

#: Functions in which raising AttributeError is part of a protocol.
ATTR_PROTOCOL_FUNCS = frozenset({"__getattr__", "__getattribute__"})

BROAD_NAMES = frozenset({"Exception", "BaseException"})


class ErrorDisciplineRule(Rule):
    rule_id = "RPR003"
    name = "error-discipline"
    description = (
        "No bare/broad excepts anywhere; core/ and hypervisor/ modules "
        "may only raise the typed errors imported from repro.errors "
        "(plus NotImplementedError and protocol AttributeErrors)."
    )

    def start_file(self, ctx: FileContext) -> None:
        self._typed_scope = any(seg in TYPED_SEGMENTS for seg in ctx.parts)
        self._allowed: Set[str] = set(ALWAYS_ALLOWED)
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "repro.errors"
            ):
                for alias in node.names:
                    self._allowed.add(alias.asname or alias.name)

    # ------------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: FileContext):
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare except swallows every error including sanitizer "
                "traps; catch the specific repro.errors type",
            )
            return
        types = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for exc in types:
            if isinstance(exc, ast.Name) and exc.id in BROAD_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"except {exc.id} is too broad; catch the specific "
                    f"repro.errors type",
                )

    def visit_Raise(self, node: ast.Raise, ctx: FileContext):
        if not self._typed_scope or node.exc is None:
            return
        exc = node.exc
        if isinstance(exc, ast.Call):
            target = exc.func
        else:
            target = exc
        if isinstance(target, ast.Attribute):
            raised = target.attr
        elif isinstance(target, ast.Name):
            if not isinstance(exc, ast.Call):
                return  # re-raising a bound variable: cannot type statically
            raised = target.id
        else:
            return
        if raised in self._allowed:
            return
        if raised == "AttributeError":
            func = ctx.enclosing_function(node)
            if (
                func is not None
                and getattr(func, "name", "") in ATTR_PROTOCOL_FUNCS
            ):
                return
        yield self.finding(
            ctx,
            node,
            f"raise {raised} in hypervisor/policy code; raise a typed "
            f"error from repro.errors so callers can catch precisely",
        )
