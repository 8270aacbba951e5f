"""Scenario registry, cross-figure reuse, and the pipeline CLI."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import fig2, fig5, fig6, fig7, fig10, registry
from repro.experiments.__main__ import main
from repro.runner import Runner

SUBSET = ["swaptions", "bodytrack", "ep.D"]


class TestRegistry:
    def test_load_all_registers_every_scenario(self):
        registry.load_all()
        names = registry.scenario_names()
        assert list(names) == list(registry.SCENARIO_MODULES)

    def test_io_micro_has_no_short_alias(self):
        assert registry.get_scenario("io_micro").name == "io_micro"
        with pytest.raises(ExperimentError):
            registry.get_scenario("io")

    def test_unknown_scenario_raises(self):
        with pytest.raises(ExperimentError):
            registry.get_scenario("fig99")

    def test_every_scenario_declares_runs_and_assembles(self):
        registry.load_all()
        for scenario in registry.all_scenarios():
            assert callable(scenario.required_runs)
            assert callable(scenario.assemble)
            assert callable(scenario.run)


class TestCrossFigureReuse:
    def test_fig6_includes_every_fig2_run(self):
        fig2_keys = {r.cache_key() for r in fig2.required_runs(SUBSET)}
        fig6_keys = {r.cache_key() for r in fig6.required_runs(SUBSET)}
        assert fig2_keys <= fig6_keys
        assert fig2.SCENARIO.name in fig6.SCENARIO.reuses

    def test_fig10_includes_every_fig7_run(self):
        fig7_keys = {r.cache_key() for r in fig7.required_runs(SUBSET)}
        fig10_keys = {r.cache_key() for r in fig10.required_runs(SUBSET)}
        assert fig7_keys <= fig10_keys
        assert fig7.SCENARIO.name in fig10.SCENARIO.reuses

    def test_shared_runs_execute_once_through_one_runner(self):
        runner = Runner()
        requests = fig2.required_runs(SUBSET) + fig6.required_runs(SUBSET)
        runner.resolve(requests)
        unique = {r.cache_key() for r in requests}
        assert runner.stats.executed == len(unique)
        assert runner.stats.deduplicated == len(requests) - len(unique)


class TestFig5AppRejection:
    def test_run_rejects_app_selection(self):
        with pytest.raises(ExperimentError, match="microbenchmark"):
            fig5.run(apps=["swaptions"], verbose=False)

    def test_required_runs_rejects_app_selection(self):
        with pytest.raises(ExperimentError):
            fig5.SCENARIO.required_runs(["swaptions"])

    def test_none_is_still_accepted(self):
        assert fig5.SCENARIO.required_runs() == []
        assert fig5.run(verbose=False).guest_native_ratio > 1.0


class TestCli:
    def test_list_exits_zero_and_names_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.SCENARIO_MODULES:
            assert name in out
        assert "includes fig2" in out

    def test_run_store_hits_on_second_invocation(self, tmp_path, capsys):
        store = str(tmp_path / "rs")
        argv = [
            "run", "table2",
            "--apps", ",".join(SUBSET),
            "--page-scale", "4096",
            "--quiet", "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first
        assert f"{len(SUBSET)} misses" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert f"{len(SUBSET)} hits" in second
        assert "0 misses" in second
        assert "0 executed" in second

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "fig99", "--quiet"]) == 1
        assert "fig99" in capsys.readouterr().err

    def test_parallel_run_matches_serial(self):
        serial = fig2.run(apps=SUBSET, verbose=False, runner=Runner(jobs=1))
        parallel = fig2.run(apps=SUBSET, verbose=False, runner=Runner(jobs=2))
        assert serial == parallel
