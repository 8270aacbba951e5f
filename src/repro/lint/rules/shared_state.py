"""RPR006 shared-mutable-state.

A module-level dict/list/set written from a function body is per-process
shared state: ``--jobs N`` worker processes each mutate their own copy
(silently diverging from the parent), and the batched multi-run engine
would cross-contaminate runs through it. The experiment pipeline's
original module-level memo dict was exactly this shape; the sanctioned
patterns are objects owned by an instance (a store, a registry object, a
session) handed down explicitly, or import-time-only population.

This rule uses the project symbol table to find every module-level
mutable binding, then reports each write reaching it from any function
body in any analyzed module — same-module bare-name mutations,
``global``-declared rebinds, and cross-module ``mod.STATE[...] = x``
pokes alike. Deliberate globals (the vectorization switch, the rule
registry, the observability session) belong in the committed baseline
or under a ``# repro-lint: ignore[RPR006]`` with a justification.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext, ProjectRule


class SharedMutableStateRule(ProjectRule):
    rule_id = "RPR006"
    name = "shared-mutable-state"
    description = (
        "Module-level mutable objects (dicts, lists, sets) written from "
        "function bodies anywhere in the project are per-process shared "
        "state that poisons --jobs N workers and batched multi-world "
        "engines; own the state in an object handed down explicitly, or "
        "baseline the write with a justification."
    )

    def check_project(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            for write in fn.state_writes:
                owner = write.module_name
                where = (
                    "module-level"
                    if owner == fn.module.name
                    else f"{owner}'s module-level"
                )
                if write.kind == "rebind":
                    message = (
                        f"function {fn.short_name} rebinds {where} name "
                        f"{write.target!r} via 'global'; module globals "
                        f"written at runtime do not survive --jobs N "
                        f"worker boundaries — pass the state in explicitly"
                    )
                else:
                    message = (
                        f"function {fn.short_name} mutates {where} "
                        f"mutable {write.target!r}; shared module state "
                        f"diverges across --jobs N workers — own it in "
                        f"an object handed down explicitly"
                    )
                findings.append(
                    self.project_finding(fn.module.path, write.node, message)
                )
        return findings
