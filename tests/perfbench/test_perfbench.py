"""The perf-benchmark harness: CLI output, determinism, section checks."""

import json

import pytest

from repro.config import SimConfig
from repro.hypervisor import domain as domain_module
from repro.lint import sanitizer as p2m_sanitizer
from repro.core.multirun import run_worlds
from repro.perfbench.bench import (
    MULTI_RUN_WORLDS,
    _multi_run_requests,
    bench_migration,
)
from repro.perfbench.cli import main
from repro.perfbench.worlds import (
    WORLD_PRESETS,
    XLARGE_PAGE_SCALE,
    build_world,
)
from repro.runner import build_world as build_request_world
from repro.sim.engine import CongestionSolver, run_world
from tests.oracles import DictP2MTable


class TestCli:
    def test_writes_valid_bench_json(self, tmp_path):
        rc = main(
            [
                "--label", "pr",
                "--output-dir", str(tmp_path),
                "--repeat", "1",
                "--worlds", "small",
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_pr.json").read_text())
        assert payload["label"] == "pr"
        assert payload["seed"] == SimConfig().rng_seed
        assert "solver_microbench" not in payload
        assert "page_path" not in payload
        small = payload["worlds"]["small"]
        assert small["median_seconds"] > 0
        assert small["iqr_seconds"] >= 0
        assert small["epochs"] > 0
        assert small["epochs_per_second"] > 0

    def test_baseline_delta_printed(self, tmp_path, capsys):
        common = [
            "--output-dir", str(tmp_path),
            "--repeat", "1",
            "--worlds", "small",
        ]
        assert main(["--label", "a", *common]) == 0
        rc = main(
            [
                "--label", "b",
                *common,
                "--baseline", str(tmp_path / "BENCH_a.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "delta vs baseline" in out
        assert "x baseline median" in out

    def test_missing_baseline_skipped(self, tmp_path, capsys):
        rc = main(
            [
                "--label", "c",
                "--output-dir", str(tmp_path),
                "--repeat", "1",
                "--worlds", "small",
                "--baseline", str(tmp_path / "nope.json"),
            ]
        )
        assert rc == 0
        assert "skipping delta" in capsys.readouterr().out


class TestWorlds:
    def test_presets_deterministic(self):
        config = SimConfig()
        first = run_world(build_world("small", config))
        second = run_world(build_world("small", config))
        assert [r.completion_seconds for r in first] == [
            r.completion_seconds for r in second
        ]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown bench preset"):
            build_world("huge", SimConfig())

    def test_xlarge_is_large_at_page_scale_8(self):
        """The page-heavy preset is the large topology with 32x the pages
        (page scale 8 vs the default 256)."""
        assert "xlarge" in WORLD_PRESETS
        config = SimConfig()
        scale_factor = config.page_scale // XLARGE_PAGE_SCALE
        p2m_sanitizer.disable()  # array-path populate; re-armed below
        try:
            large = build_world("large", config)
            xlarge = build_world("xlarge", config)
        finally:
            p2m_sanitizer.enable()
        assert xlarge.machine.config.page_scale == XLARGE_PAGE_SCALE
        large_domains = sorted(
            run.context.domain.memory_pages for run in large.runs
        )
        xlarge_domains = sorted(
            run.context.domain.memory_pages for run in xlarge.runs
        )
        assert len(xlarge_domains) == len(large_domains)
        for small_pages, big_pages in zip(large_domains, xlarge_domains):
            assert big_pages == small_pages * scale_factor


class TestScalarOracleEquivalence:
    def test_small_world_matches_dict_backend(self, monkeypatch):
        """One full world simulated on the array-backed p2m and on the
        dict-of-entries oracle table: identical results (the report-level
        byte-identity check in miniature)."""
        config = SimConfig()
        p2m_sanitizer.disable()  # exercise the real array paths
        try:
            vec = run_world(build_world("small", config))
            with monkeypatch.context() as patch:
                patch.setattr(domain_module, "P2MTable", DictP2MTable)
                world = build_world("small", config)
                assert all(
                    isinstance(run.context.domain.p2m, DictP2MTable)
                    for run in world.runs
                )
                scalar = run_world(world)
        finally:
            p2m_sanitizer.enable()
        assert [r.completion_seconds for r in vec] == [
            r.completion_seconds for r in scalar
        ]
        assert [r.epochs for r in vec] == [r.epochs for r in scalar]


class TestMigrationMicrobench:
    def test_batched_rounds_match_scalar_and_are_faster(self):
        """The dirty-round copy kernel: both spellings must transfer an
        identical image, and the batched one must actually be the fast
        path (generous margin for noisy CI hosts)."""
        stats = bench_migration(
            SimConfig(), repeat=3, pages=1024, rounds=4, dirty_pages=128
        )
        assert stats["results_match"] == 1.0
        assert stats["rounds"] == 4.0
        assert stats["pages_per_transfer"] == 1024.0 + 3 * 128.0
        assert stats["speedup"] >= 2.0

    def test_round_structure_seeded(self):
        """The dirty sets come from the config seed, so two benches do
        byte-for-byte the same work."""
        a = bench_migration(SimConfig(), repeat=1, pages=256, rounds=3)
        b = bench_migration(SimConfig(), repeat=1, pages=256, rounds=3)
        assert a["pages_per_transfer"] == b["pages_per_transfer"]
        assert a["results_match"] == b["results_match"] == 1.0


class TestMultiRunBench:
    @staticmethod
    def _latency_calls(monkeypatch, simulate):
        """Latency-kernel calls (single-world and stacked) ``simulate``
        makes; each is one solver iteration for one world or one group."""
        calls = {"n": 0}
        for name in ("latency_matrix", "latency_matrix_many"):
            original = getattr(CongestionSolver, name)

            def counted(self, rho_c, rho_l, _original=original):
                calls["n"] += 1
                return _original(self, rho_c, rho_l)

            monkeypatch.setattr(CongestionSolver, name, counted)
        results = simulate()
        monkeypatch.undo()
        return calls["n"], results

    def test_batched_sweep_batches_the_solver(self, monkeypatch):
        """The perfbench multi-run sweep (16 worlds x 4 VMs), once,
        untimed: the batched engine reproduces the serial reports byte
        for byte and issues at most a third of the serial path's latency
        solves. A count, not a wall-clock ratio, so the gate neither
        depends on the host nor shrinks with every serial speed-up;
        ``python -m repro.perfbench`` still reports the timed speedup."""
        requests = _multi_run_requests(SimConfig(), MULTI_RUN_WORLDS)
        batched_worlds = [build_request_world(r) for r in requests]
        serial_worlds = [build_request_world(r) for r in requests]
        batched_calls, batched = self._latency_calls(
            monkeypatch, lambda: run_worlds(batched_worlds)
        )
        serial_calls, serial = self._latency_calls(
            monkeypatch, lambda: [run_world(w) for w in serial_worlds]
        )

        def report(groups):
            return json.dumps(
                [[r.to_json() for r in group] for group in groups],
                sort_keys=True,
            )

        assert len(batched) == MULTI_RUN_WORLDS == 16
        assert report(batched) == report(serial)
        assert serial_calls >= 3 * batched_calls
