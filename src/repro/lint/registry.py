"""Rule lookup over the explicit roster :data:`repro.lint.rules.RULES`."""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

from repro.errors import ReproError
from repro.lint.rules import RULES
from repro.lint.visitor import Rule


def all_rules() -> List[Type[Rule]]:
    """Every shipped rule class, in rule-id order."""
    return list(RULES)


def get_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Type[Rule]]:
    """Resolve a rule subset by id or name.

    Args:
        select: keep only these rules (ids or names); None keeps all.
        ignore: drop these rules (ids or names).

    Raises:
        ReproError: an id/name matches no registered rule.
    """
    rules = all_rules()
    known = {cls.rule_id for cls in rules} | {cls.name for cls in rules}
    for wanted in list(select or []) + list(ignore or []):
        if wanted not in known:
            raise ReproError(f"unknown lint rule {wanted!r}")
    if select:
        chosen = set(select)
        rules = [c for c in rules if c.rule_id in chosen or c.name in chosen]
    if ignore:
        dropped = set(ignore)
        rules = [
            c
            for c in rules
            if c.rule_id not in dropped and c.name not in dropped
        ]
    return rules
