"""RPR004 hypercall-validation.

The external interface (paper section 4.2) is the guest-facing attack
surface: ``NUMA_SET_POLICY``, ``NUMA_PAGE_EVENTS``, ``CARREFOUR_CONTROL``
arrive with guest-controlled argument dicts. Every handler (by
convention a ``_hc_*`` method) must validate its arguments — raise
``HypercallError`` or call a ``validate_*``/``require_*`` helper —
before it reads or mutates domain state. This rule walks each handler's
statements in order and flags the first state touch that precedes any
validation.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.lint.visitor import FileContext, Rule

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Handler naming convention for external-interface hypercalls.
HANDLER_PREFIX = "_hc_"

#: Call names (last dotted part) that count as argument validation.
VALIDATOR_PREFIXES = ("validate_", "require_", "check_")

#: The typed error a handler raises on malformed guest arguments.
VALIDATION_ERRORS = frozenset({"HypercallError"})


def _is_validator(stmt: ast.stmt) -> bool:
    """True if this statement performs (or can perform) arg validation."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Raise):
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = getattr(target, "id", getattr(target, "attr", None))
            if name in VALIDATION_ERRORS:
                return True
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name and name.startswith(VALIDATOR_PREFIXES):
                return True
    return False


def _state_touches(stmt: ast.stmt, self_name: str) -> Iterator[ast.AST]:
    """Yield nodes in *stmt* that read/mutate domain state.

    State touches are calls through ``self.<attr>...`` (reaching the
    policy manager's domains, hypervisor, interface) — anything beyond
    pure argument inspection.
    """
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # self.method(...) or self.attr.method(...)
        base = func
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name) and base.id == self_name:
            if isinstance(func, ast.Attribute) and func.attr.startswith(
                VALIDATOR_PREFIXES
            ):
                continue
            yield node


class HypercallValidationRule(Rule):
    rule_id = "RPR004"
    name = "hypercall-validation"
    description = (
        "External-interface handlers (_hc_* methods) must validate "
        "guest-supplied arguments (raise HypercallError or call a "
        "validate_*/require_* helper) before touching domain state."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext):
        yield from self._check_handler(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ):
        yield from self._check_handler(node, ctx)

    # ------------------------------------------------------------------

    def _check_handler(self, node: FuncDef, ctx: FileContext):
        if not node.name.startswith(HANDLER_PREFIX):
            return
        args = node.args.args
        self_name = args[0].arg if args else "self"
        validated = False
        for stmt in node.body:
            if _is_validator(stmt):
                # Validation and state access may share a statement
                # (``dom = self.domain(validate_id(args))``): arguments
                # evaluate before the call, so the validator runs first.
                validated = True
            if validated:
                continue
            for touch in _state_touches(stmt, self_name):
                yield self.finding(
                    ctx,
                    touch,
                    f"handler {node.name} touches domain state before "
                    f"validating guest arguments; validate args first "
                    f"(raise HypercallError on bad input)",
                )
                return
