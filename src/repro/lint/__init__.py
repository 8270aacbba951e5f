"""Correctness tooling for the reproduction: static analyzer + sanitizer.

Two halves, both enforcing the paper's invariants:

* a **static analyzer** (``python -m repro.lint``): an AST visitor
  framework with pluggable rules. The shipped rules pin down the paper's
  architecture — policies may only reach the hypervisor through the
  internal interface (section 4.1), hypercall handlers must validate
  their arguments (section 4.2), page migrations must follow the
  write-protect -> copy -> remap protocol, errors must be typed, and
  nothing in the tree may depend on unseeded randomness or wall-clock
  time (run reproducibility);

* a **runtime P2M sanitizer** (:mod:`repro.lint.sanitizer`) that
  instruments the hypervisor page table and the frame allocator during
  tests, raising :class:`repro.errors.SanitizerError` the moment a
  double map, a map of a freed frame or an out-of-order migration step
  happens.

The submodules are imported lazily so that hot hypervisor paths can
import :mod:`repro.lint.sanitizer` without dragging the analyzer in.
"""

_LAZY = {
    "Analyzer": "repro.lint.analyzer",
    "LintReport": "repro.lint.analyzer",
    "Finding": "repro.lint.findings",
    "Rule": "repro.lint.visitor",
    "FileContext": "repro.lint.visitor",
    "all_rules": "repro.lint.registry",
    "get_rules": "repro.lint.registry",
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(name)
    import importlib

    return getattr(importlib.import_module(target), name)


__all__ = sorted(_LAZY)
