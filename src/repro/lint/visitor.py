"""The visitor framework underneath every lint rule.

A :class:`FileContext` wraps one parsed source file with the structural
queries rules keep needing: parent links, enclosing functions,
``TYPE_CHECKING`` detection and per-line suppression comments. A
:class:`Rule` walks the AST once and dispatches nodes to ``visit_<Type>``
methods, collecting :class:`~repro.lint.findings.Finding` objects.

Suppression: a line containing ``# repro-lint: ignore`` silences every
rule on that line; ``# repro-lint: ignore[RPR001, RPR003]`` silences only
the listed rules.
"""

from __future__ import annotations

import abc
import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None for anything else)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target (``np.random.default_rng``)."""
    return dotted_name(node.func)


class FileContext:
    """One source file, parsed, with the queries rules need.

    Args:
        path: display path of the file (used in findings and for
            path-segment scoping by rules).
        source: the file's text.

    Raises:
        SyntaxError: the file does not parse.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._suppressed: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            ids = match.group(1)
            if ids is None:
                self._suppressed[lineno] = None  # suppress every rule
            else:
                self._suppressed[lineno] = {
                    part.strip() for part in ids.split(",") if part.strip()
                }

    # ------------------------------------------------------------------
    # Structure queries

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path segments, used by rules to scope themselves."""
        return tuple(p for p in re.split(r"[\\/]+", self.path) if p)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def parents(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk ancestors from the immediate parent to the module."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing function/lambda definition, if any."""
        for ancestor in self.parents(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return ancestor
        return None

    def in_type_checking(self, node: ast.AST) -> bool:
        """True inside an ``if TYPE_CHECKING:`` block (annotations only)."""
        for ancestor in self.parents(node):
            if isinstance(ancestor, ast.If):
                test = dotted_name(ancestor.test)
                if test is not None and test.split(".")[-1] == "TYPE_CHECKING":
                    return True
        return False

    def is_suppressed(self, lineno: int, rule_id: str) -> bool:
        if lineno not in self._suppressed:
            return False
        ids = self._suppressed[lineno]
        return ids is None or rule_id in ids


class Rule(abc.ABC):
    """One pluggable check.

    Subclasses set :attr:`rule_id`, :attr:`name` and :attr:`description`,
    then implement ``visit_<NodeType>(node, ctx)`` generators yielding
    findings. List the class in :data:`repro.lint.rules.RULES`.
    """

    #: Stable identifier, e.g. ``RPR001``.
    rule_id: str = ""
    #: Human-readable slug, e.g. ``interface-encapsulation``.
    name: str = ""
    #: One-paragraph description shown by ``--list-rules``.
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule scans ``ctx`` at all (default: every file)."""
        return True

    def start_file(self, ctx: FileContext) -> None:
        """Per-file setup hook (collect imports, reset state, ...)."""

    def check(self, ctx: FileContext) -> List[Finding]:
        """Walk the file once, dispatching nodes to ``visit_*`` methods."""
        self.start_file(ctx)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            handler = getattr(self, "visit_" + type(node).__name__, None)
            if handler is None:
                continue
            produced: Optional[Iterable[Finding]] = handler(node, ctx)
            if produced:
                findings.extend(produced)
        return [
            f for f in findings if not ctx.is_suppressed(f.line, self.rule_id)
        ]

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            rule_name=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )
