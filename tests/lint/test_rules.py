"""Each lint rule catches its seeded fixture violation and passes the
clean twin."""

import os

import pytest

from repro.lint.analyzer import Analyzer
from repro.lint.registry import all_rules
from repro.lint.rules import RULES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint(relpath, select=None):
    report = Analyzer(select=select).run([os.path.join(FIXTURES, relpath)])
    assert not report.errors, report.errors
    return report.findings


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestInterfaceEncapsulation:
    def test_bad_policy_flagged(self):
        findings = lint("core/policies/bad_policy.py", select=["RPR001"])
        assert findings, "seeded violations not caught"
        lines = {f.line for f in findings}
        # The hypervisor-internal imports, the .allocator/.p2m reaches and
        # the set_entry call must all be flagged.
        messages = " ".join(f.message for f in findings)
        assert "repro.hypervisor.allocator" in messages
        assert ".allocator" in messages
        assert "set_entry" in messages
        assert len(lines) >= 4

    def test_good_policy_clean(self):
        assert lint("core/policies/good_policy.py", select=["RPR001"]) == []

    def test_rule_scoped_to_policy_paths(self):
        # The same constructs outside policies/carrefour paths are legal.
        assert lint("hypervisor/good_migration.py", select=["RPR001"]) == []


class TestDeterminism:
    def test_bad_flagged(self):
        findings = lint("bad_determinism.py", select=["RPR002"])
        messages = " ".join(f.message for f in findings)
        assert "random module" in messages
        assert "wall clock" in messages
        assert "hash()" in messages
        assert "without a seed" in messages
        assert "global random stream" in messages
        # The ImportFrom flavour: `from numpy.random import uniform` binds
        # the global stream just like `np.random.uniform(...)` does.
        assert "from numpy.random import uniform" in messages

    def test_good_clean(self):
        # Includes `from numpy.random import PCG64, default_rng` — the
        # seeded-generator constructors stay importable either way.
        assert lint("good_determinism.py", select=["RPR002"]) == []


class TestErrorDiscipline:
    def test_bad_flagged(self):
        findings = lint("core/bad_errors.py", select=["RPR003"])
        messages = " ".join(f.message for f in findings)
        assert "bare except" in messages
        assert "except Exception" in messages
        assert "except BaseException" in messages
        assert "raise ValueError" in messages

    def test_good_clean(self):
        assert lint("core/good_errors.py", select=["RPR003"]) == []


class TestHypercallValidation:
    def test_bad_flagged(self):
        findings = lint("core/bad_hypercall.py", select=["RPR004"])
        assert len(findings) == 1
        assert "_hc_leaky" in findings[0].message

    def test_good_clean(self):
        assert lint("core/good_hypercall.py", select=["RPR004"]) == []


class TestMigrationProtocol:
    def test_bad_flagged(self):
        findings = lint("hypervisor/bad_migration.py", select=["RPR005"])
        assert len(findings) == 1
        assert "write_protect" in findings[0].message

    def test_good_clean(self):
        assert lint("hypervisor/good_migration.py", select=["RPR005"]) == []


class TestFrameworkBehaviour:
    def test_all_rules_fire_on_fixture_tree(self):
        report = Analyzer().run([FIXTURES])
        assert rule_ids(report.findings) == {
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
        }

    def test_suppression_comment(self, tmp_path):
        src = "import random  # repro-lint: ignore[RPR002]\n"
        path = tmp_path / "suppressed.py"
        path.write_text(src)
        assert Analyzer().run([str(path)]).findings == []
        # A mismatched id does not suppress.
        path.write_text("import random  # repro-lint: ignore[RPR001]\n")
        assert len(Analyzer().run([str(path)]).findings) == 1

    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = Analyzer().run([str(path)])
        assert report.errors and not report.findings
        assert not report.ok

    def test_unknown_rule_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Analyzer(select=["RPR999"])

    def test_select_by_name(self):
        findings = lint("bad_determinism.py", select=["determinism"])
        assert findings and rule_ids(findings) == {"RPR002"}


class TestRuleRoster:
    def test_rule_ids_unique_and_named(self):
        ids = [cls.rule_id for cls in RULES]
        assert len(ids) == len(set(ids))
        names = [cls.name for cls in RULES]
        assert len(names) == len(set(names))
        assert all(cls.rule_id and cls.name for cls in RULES)

    def test_all_rules_sorted_by_id(self):
        ids = [cls.rule_id for cls in all_rules()]
        assert ids == sorted(ids) == sorted(cls.rule_id for cls in RULES)
