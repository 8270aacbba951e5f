"""RPR005 migration-protocol.

Paper section 4.1: migrating a page is write-protect → copy → remap →
free the old frame. Remapping (or copying) a page that was never
write-protected races with guest writes — the guest can dirty the old
frame after the copy and the write is lost. This rule tracks, per
function, which p2m objects have had ``write_protect`` called and flags
``remap``/``copy_page``/``copy_frame`` calls on an object with no
preceding (still-active) write-protect in the same function.
"""

from __future__ import annotations

import ast
from typing import Set, Union

from repro.lint.visitor import FileContext, Rule

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Calls that start the protocol (scalar and batch spellings).
PROTECT_CALLS = frozenset({"write_protect", "write_protect_many"})

#: Calls that end write-protection (scalar and batch spellings).
UNPROTECT_CALLS = frozenset({"unprotect", "unprotect_many"})

#: Calls that must only run while the page is write-protected.
GUARDED_CALLS = frozenset({"remap", "copy_page", "copy_frame"})


def _receiver(func: ast.Attribute) -> str:
    """Stable spelling of the object a method is called on."""
    return ast.unparse(func.value)


class MigrationProtocolRule(Rule):
    rule_id = "RPR005"
    name = "migration-protocol"
    description = (
        "Within a function, remap/copy_page/copy_frame on a p2m object "
        "must be preceded by write_protect on the same object (the "
        "paper's write-protect -> copy -> remap migration ordering)."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext):
        yield from self._check_function(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ):
        yield from self._check_function(node, ctx)

    # ------------------------------------------------------------------

    def _check_function(self, node: FuncDef, ctx: FileContext):
        calls = [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and ctx.enclosing_function(n) is node
        ]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        protected: Set[str] = set()
        for call in calls:
            func = call.func
            assert isinstance(func, ast.Attribute)
            base = _receiver(func)
            if func.attr in PROTECT_CALLS:
                protected.add(base)
            elif func.attr in UNPROTECT_CALLS:
                protected.discard(base)
            elif func.attr in GUARDED_CALLS and base not in protected:
                yield self.finding(
                    ctx,
                    call,
                    f"{base}.{func.attr}() without a preceding "
                    f"write_protect on {base}; migration must "
                    f"write-protect before copy/remap",
                )
