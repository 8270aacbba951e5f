"""RPR009/RPR010 array-aliasing.

PR 5 fixed a memoized latency matrix that was returned writable: one
caller scribbling on the shared memo would have corrupted every later
epoch's solver start state. These two rules make that class of bug
mechanical:

* **RPR009 array-aliasing-return** — a method returning an
  attribute-held or memoized ndarray hands out a live alias of internal
  state; the sanctioned patterns are ``return self._arr.copy()`` or
  freezing the stored array with ``setflags(write=False)`` before it
  escapes. The same rule catches the *archive alias*: a numpy-built
  local both appended to a ``self`` container (a history, a log) and
  returned — the caller's array IS the archived entry, and writing
  through it rewrites history.
* **RPR010 array-aliasing-param** — a function mutating an ndarray
  parameter in place (``p[...] = x``, ``p.fill(...)``,
  ``np.copyto(p, ...)``) changes caller-visible state; that is only a
  contract when the parameter is named ``out``/``out_*`` (numpy's own
  convention) or the docstring names the parameter and says it is
  mutated/overwritten/filled in place.

Both rules are heuristic by design: they track attributes assigned from
numpy constructors (``np.zeros`` and friends) or annotated ``ndarray``,
and treat ``setflags(write=False)`` — applied to the attribute or to a
local that is then stored into it — as the freeze that silences RPR009.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.project import FuncDef, ProjectContext, ProjectRule
from repro.lint.visitor import dotted_name

#: numpy array constructors (with and without the canonical aliases).
_NUMPY_CTORS = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "zeros",
        "ones",
        "full",
        "empty",
        "arange",
        "linspace",
        "zeros_like",
        "ones_like",
        "full_like",
        "empty_like",
        "eye",
        "identity",
    }
)

#: Attribute names that mark a memoization slot.
_MEMO_RE = re.compile(r"cache|memo", re.IGNORECASE)

#: ndarray methods that mutate the receiver in place.
_INPLACE_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "itemset", "byteswap", "setflags"}
)

#: numpy functions whose first argument is written in place.
_INPLACE_FIRST_ARG = frozenset(
    {"np.copyto", "numpy.copyto", "np.put", "numpy.put", "np.place", "numpy.place"}
)

#: Docstring words that document an in-place contract.
_CONTRACT_RE = re.compile(
    r"in[- ]place|mutat|overwrit|filled|written into", re.IGNORECASE
)


def _is_numpy_ctor(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    name = dotted_name(expr.func)
    if name is None:
        return False
    parts = name.split(".")
    return parts[-1] in _NUMPY_CTORS and (
        len(parts) == 1 or parts[0] in ("np", "numpy")
    )


def _annotation_is_ndarray(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except ValueError:  # pragma: no cover - malformed annotation
        return False
    return "ndarray" in text


class _ClassArrays:
    """Which attributes of one class hold ndarrays, and which are frozen."""

    def __init__(self, cls: ast.ClassDef):
        self.ndarray_attrs: Set[str] = set()
        self.readonly_attrs: Set[str] = set()
        for func in (n for n in cls.body if isinstance(n, FuncDef)):
            frozen_locals = _setflags_frozen_locals(func)
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        if node.value is not None and _is_numpy_ctor(node.value):
                            self.ndarray_attrs.add(attr)
                        if isinstance(node, ast.AnnAssign) and (
                            _annotation_is_ndarray(node.annotation)
                        ):
                            self.ndarray_attrs.add(attr)
                        # ``self.x = frozen_local`` freezes the attribute.
                        if (
                            isinstance(node.value, ast.Name)
                            and node.value.id in frozen_locals
                        ):
                            self.readonly_attrs.add(attr)
                elif isinstance(node, ast.Call):
                    # ``self.x.setflags(write=False)``
                    frozen = _setflags_target(node)
                    if frozen is not None:
                        attr = _self_attr(frozen)
                        if attr is not None:
                            self.readonly_attrs.add(attr)


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _setflags_target(call: ast.Call) -> Optional[ast.expr]:
    """The receiver of a ``setflags(write=False)`` call, if this is one."""
    if not (
        isinstance(call.func, ast.Attribute) and call.func.attr == "setflags"
    ):
        return None
    for kw in call.keywords:
        if kw.arg == "write" and isinstance(kw.value, ast.Constant):
            if kw.value.value is False:
                return call.func.value
    return None


def _setflags_frozen_locals(func: ast.AST) -> Set[str]:
    """Local names frozen with ``name.setflags(write=False)`` in ``func``."""
    frozen: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = _setflags_target(node)
            if isinstance(target, ast.Name):
                frozen.add(target.id)
    return frozen


class ArrayAliasReturnRule(ProjectRule):
    rule_id = "RPR009"
    name = "array-aliasing-return"
    description = (
        "Methods returning attribute-held, memoized, or self-archived "
        "ndarrays without .copy() or setflags(write=False) hand out "
        "writable aliases of internal state (the PR 5 latency-matrix "
        "bug); freeze the stored array or return a copy."
    )

    def check_project(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for mod, ctx in project.iter_contexts():
            for cls in (
                n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)
            ):
                arrays = _ClassArrays(cls)
                for func in (n for n in cls.body if isinstance(n, FuncDef)):
                    findings.extend(
                        self._check_method(func, cls, arrays, ctx.path)
                    )
        return findings

    # ------------------------------------------------------------------

    def _check_method(
        self,
        func: ast.AST,
        cls: ast.ClassDef,
        arrays: _ClassArrays,
        path: str,
    ) -> List[Finding]:
        findings: List[Finding] = []
        archived = self._archived_numpy_locals(func, arrays)
        frozen = _setflags_frozen_locals(func)
        for node in ast.walk(func):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            # return local  (numpy local also archived into a self
            # container: the caller's array IS the history entry)
            if (
                isinstance(value, ast.Name)
                and value.id in archived
                and value.id not in frozen
            ):
                findings.append(
                    self.project_finding(
                        path,
                        node,
                        f"{cls.name}.{func.name} returns ndarray "
                        f"{value.id!r} that it also archives into "
                        f"self.{archived[value.id]} — the caller holds a "
                        f"writable alias of the archived entry; freeze it "
                        f"with setflags(write=False) or archive a copy",
                    )
                )
                continue
            # return self._arr  (tracked ndarray attribute, not frozen)
            attr = _self_attr(value)
            if attr is not None:
                if (
                    attr in arrays.ndarray_attrs
                    and attr not in arrays.readonly_attrs
                ):
                    findings.append(
                        self.project_finding(
                            path,
                            node,
                            f"{cls.name}.{func.name} returns attribute-held "
                            f"ndarray self.{attr} writable; return a .copy() "
                            f"or freeze it with setflags(write=False)",
                        )
                    )
                continue
            # return self._cache[...]  (memoized values)
            if isinstance(value, ast.Subscript):
                attr = _self_attr(value.value)
                if attr is None or not _MEMO_RE.search(attr):
                    continue
                leaky = self._memo_store_leaks(cls, attr)
                if leaky:
                    findings.append(
                        self.project_finding(
                            path,
                            node,
                            f"{cls.name}.{func.name} returns memoized "
                            f"ndarray(s) from self.{attr} writable "
                            f"({', '.join(sorted(leaky))} stored without "
                            f"setflags(write=False)); freeze them before "
                            f"caching or return copies",
                        )
                    )
        return findings

    def _archived_numpy_locals(
        self, func: ast.AST, arrays: _ClassArrays
    ) -> Dict[str, str]:
        """Numpy-built locals stored into a ``self`` container in ``func``.

        A local counts as numpy-built when assigned from a numpy
        constructor or from ``.copy()`` on a tracked ndarray attribute.
        Returns {local name: container attribute} for locals passed to
        ``self.<attr>.append/add/insert`` or subscript-stored into a
        ``self`` attribute.
        """
        numpy_locals: Set[str] = set()
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if _is_numpy_ctor(value):
                numpy_locals.add(target.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "copy"
                and _self_attr(value.func.value) in arrays.ndarray_attrs
            ):
                numpy_locals.add(target.id)
        archived: Dict[str, str] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in ("append", "add", "insert"):
                    attr = _self_attr(node.func.value)
                    if attr is not None:
                        for arg in node.args:
                            if (
                                isinstance(arg, ast.Name)
                                and arg.id in numpy_locals
                            ):
                                archived[arg.id] = attr
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    base = target.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    attr = _self_attr(base)
                    if (
                        attr is not None
                        and isinstance(node.value, ast.Name)
                        and node.value.id in numpy_locals
                    ):
                        archived[node.value.id] = attr
        return archived

    def _memo_store_leaks(self, cls: ast.ClassDef, attr: str) -> Set[str]:
        """ndarray-ish locals stored into ``self.<attr>`` and not frozen.

        Scans the whole class: wherever ``self.<attr>`` (or an item of
        it) is assigned, collect the Name leaves of the stored value
        that were built by numpy constructors in the same function, and
        keep those never frozen there.
        """
        leaky: Set[str] = set()
        for func in (n for n in cls.body if isinstance(n, FuncDef)):
            numpy_locals = {
                t.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_numpy_ctor(node.value)
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            if not numpy_locals:
                continue
            frozen = _setflags_frozen_locals(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                stores_attr = False
                for target in node.targets:
                    base = target
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if _self_attr(base) == attr:
                        stores_attr = True
                if not stores_attr:
                    continue
                for leaf in ast.walk(node.value):
                    if (
                        isinstance(leaf, ast.Name)
                        and leaf.id in numpy_locals
                        and leaf.id not in frozen
                    ):
                        leaky.add(leaf.id)
        return leaky


class ArrayAliasParamRule(ProjectRule):
    rule_id = "RPR010"
    name = "array-aliasing-param"
    description = (
        "Functions mutating an ndarray parameter in place (subscript "
        "stores, .fill()/.sort(), np.copyto) change caller-visible "
        "state; name the parameter out/out_* or document the in-place "
        "contract in the docstring."
    )

    def check_project(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for mod, ctx in project.iter_contexts():
            for func in (
                n for n in ast.walk(ctx.tree) if isinstance(n, FuncDef)
            ):
                findings.extend(self._check_function(func, ctx))
        return findings

    # ------------------------------------------------------------------

    def _params(self, func: ast.AST) -> Dict[str, ast.arg]:
        args = func.args
        params = {}
        for arg in list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        ):
            if arg.arg in ("self", "cls"):
                continue
            params[arg.arg] = arg
        return params

    def _documented(self, func: ast.AST, param: str) -> bool:
        if param == "out" or param.startswith("out_") or param.endswith("_out"):
            return True
        doc = ast.get_docstring(func)
        if not doc:
            return False
        names_param = re.search(rf"\b{re.escape(param)}\b", doc) is not None
        return names_param and bool(_CONTRACT_RE.search(doc))

    def _check_function(self, func: ast.AST, ctx) -> List[Finding]:
        params = self._params(func)
        if not params:
            return []
        # A parameter rebound locally no longer aliases the caller's
        # array; drop rebound names to avoid false positives.
        rebound = {
            t.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        findings: List[Finding] = []
        reported: Set[str] = set()

        def flag(name: str, node: ast.AST, how: str) -> None:
            if name in reported or name in rebound:
                return
            if self._documented(func, name):
                return
            reported.add(name)
            findings.append(
                self.project_finding(
                    ctx.path,
                    node,
                    f"{func.name} mutates parameter {name!r} in place "
                    f"({how}) without an out=-style contract; rename it "
                    f"out/out_* or document the mutation in the docstring",
                )
            )

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name = target.value.id
                        if name in params:
                            flag(name, node, "subscript store")
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _INPLACE_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in params
                ):
                    flag(
                        node.func.value.id,
                        node,
                        f".{node.func.attr}()",
                    )
                    continue
                dotted = dotted_name(node.func)
                if (
                    dotted in _INPLACE_FIRST_ARG
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                ):
                    flag(node.args[0].id, node, f"{dotted}()")
        return findings
