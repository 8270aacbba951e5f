"""RPR007 purity.

``runner.execute_request`` is the process-pool worker target: PR 3's
parallel runner and the planned serving layer both assume that a request
executed in *any* process yields bit-for-bit the parent's serial result,
and the content-addressed store assumes the result is a function of the
request alone (cache-key soundness). Both break the moment anything in
``execute_request``'s call closure reads the wall clock, the process
environment, an unseeded RNG stream, the filesystem (outside the run
store, whose job is I/O), or writes module-level state.

The project pass computes each function's *direct* effects (see
:mod:`repro.lint.project`), walks the call graph from every function
named ``execute_request``, and flags each impure operation reachable
from a root — anchored at the offending line, with the shortest call
chain in the message so the report explains *why* the function is in
the pure zone.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext, ProjectRule

#: The purity roots: every project function with this bare name.
ROOT_NAME = "execute_request"

#: Modules whose *job* is filesystem I/O: the run store keeps its fs
#: effects (they are the sanctioned persistence layer, not hidden state).
FS_SANCTIONED_PREFIXES = ("repro.runstore",)

_KIND_LABEL = {
    "time": "wall-clock read",
    "env": "environment read",
    "rng": "unseeded randomness",
    "fs": "filesystem access",
    "state": "module-state write",
}


def _chain_text(chain) -> str:
    parts = [q.split(".")[-1] for q in chain]
    if len(parts) > 5:
        parts = parts[:2] + ["..."] + parts[-2:]
    return " -> ".join(parts)


class PurityRule(ProjectRule):
    rule_id = "RPR007"
    name = "purity"
    description = (
        "Everything reachable from runner execute_request must be pure: "
        "no wall-clock or environment reads, no unseeded randomness, no "
        "filesystem access outside the run store, no module-state "
        "writes. Impurity there breaks parallel-runner bit-identity and "
        "content-addressed cache-key soundness."
    )

    def check_project(self, project: ProjectContext) -> List[Finding]:
        roots = project.roots_named(ROOT_NAME)
        if not roots:
            return []
        chains = project.reachable_from(roots)
        findings: List[Finding] = []
        for qname in sorted(chains):
            fn = project.functions.get(qname)
            if fn is None:
                continue
            chain = chains[qname]
            sanctioned_fs = fn.module.name.startswith(FS_SANCTIONED_PREFIXES)
            for effect in fn.effects:
                if effect.kind == "fs" and sanctioned_fs:
                    continue
                findings.append(
                    self.project_finding(
                        fn.module.path,
                        effect.node,
                        f"impure {_KIND_LABEL[effect.kind]} in the pure "
                        f"zone: {effect.detail} (reachable via "
                        f"{_chain_text(chain)})",
                    )
                )
            for write in fn.state_writes:
                findings.append(
                    self.project_finding(
                        fn.module.path,
                        write.node,
                        f"impure {_KIND_LABEL['state']} in the pure zone: "
                        f"{fn.short_name} writes module-level "
                        f"{write.target!r} of {write.module_name} "
                        f"(reachable via {_chain_text(chain)})",
                    )
                )
        return findings
