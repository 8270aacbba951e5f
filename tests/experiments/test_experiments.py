"""Experiment harness: microbenchmarks fully, figures on app subsets."""

import pytest

from repro.experiments import (
    batching,
    common,
    fig1,
    fig2,
    fig5,
    fig6,
    fig10,
    io_micro,
    registry,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.__main__ import main

#: A small, fast subset covering the three imbalance classes.
SUBSET = ["swaptions", "bodytrack", "ep.D"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    common.clear_cache()
    yield
    common.clear_cache()


class TestMicrobenchExperiments:
    def test_table3_exact(self):
        assert table3.run(verbose=False).max_relative_error() < 0.01

    def test_fig5_totals(self):
        result = fig5.run(verbose=False)
        assert result.totals["native"] == pytest.approx(0.9e-6)
        assert result.totals["guest"] == pytest.approx(10.9e-6)

    def test_io_micro_matches(self):
        assert io_micro.run(verbose=False).matches_paper()


class TestSubsetExperiments:
    def test_fig1_subset(self, capsys):
        result = fig1.run(apps=SUBSET)
        assert set(result.overheads) == set(SUBSET)
        out = capsys.readouterr().out
        assert "Figure 1" in out
        for name in SUBSET:
            assert name in out

    def test_fig2_subset(self):
        result = fig2.run(apps=SUBSET, verbose=False)
        assert set(result.improvements) == set(SUBSET)
        for app in SUBSET:
            assert result.spread(app) >= 0.0

    def test_table1_subset(self):
        result = table1.run(apps=SUBSET, verbose=False)
        assert len(result.rows) == 3
        by_app = {r.app: r for r in result.rows}
        # swaptions: both placements stay imbalanced (one dominant page).
        assert by_app["swaptions"].r4k_imbalance > 1.0

    def test_table2_subset(self):
        result = table2.run(apps=SUBSET, verbose=False)
        assert {r.app for r in result.rows} == set(SUBSET)

    def test_table4_subset(self):
        result = table4.run(apps=SUBSET, verbose=False)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.best_linux
            assert row.best_xen

    def test_fig6_fig10_share_runs(self):
        store = common.default_runner().store
        fig6.run(apps=["swaptions"], verbose=False)
        before = set(store.data)
        fig10.run(apps=["swaptions"], verbose=False)
        # fig10 reuses fig6's Linux runs (the store only grows by Xen sweeps).
        assert before.issubset(set(store.data))

    def test_batching_microbench(self):
        result = batching.run(verbose=False)
        assert result.unbatched_slowdown > 2.0
        assert abs(result.invalidation_share - 0.875) < 0.02


def _resolve_one(request):
    return common.default_runner().resolve([request]).one(request)


class TestRunnersAndCache:
    def test_linux_request_memoised(self):
        runner = common.default_runner()
        request = common.linux_request("swaptions", "first-touch")
        a = runner.resolve([request]).one(request)
        b = runner.resolve([request]).one(request)
        assert a is b
        assert runner.stats.executed == 1

    def test_linux_numa_picks_minimum(self):
        best, label = common.best_linux_numa(_resolve_one, "swaptions")
        for policy, carrefour in common.LINUX_COMBOS:
            other = _resolve_one(common.linux_request("swaptions", policy, carrefour))
            assert best.completion_seconds <= other.completion_seconds + 1e-9
        assert label

    def test_xen_numa_includes_round_1g(self):
        best, label = common.best_xen_numa(_resolve_one, "swaptions")
        assert label in {s.label for s in common.XEN_POLICIES_ALL}

    def test_select_apps_default_is_29(self):
        assert len(common.select_apps(None)) == 29


class TestCli:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 1
        assert main(["run", "fig99"]) == 1

    def test_known_names_registered(self, capsys):
        names = registry.scenario_names()
        for name in ("fig1", "table1", "fig7", "batching", "io_micro"):
            assert name in names
        assert main([]) == 0
        assert ", ".join(names) in capsys.readouterr().out

    def test_cli_runs_subset(self, capsys):
        assert main(["run", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out
