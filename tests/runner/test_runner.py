"""Runner behaviour: dedup, store hits, and serial/parallel identity."""

from repro import obs
from repro.config import SimConfig
from repro.runner import Runner, execute_request
from repro.runstore import DiskRunStore, MemoryRunStore
from repro.sim.runspec import RunRequest, VmRequest


def _linux(app="swaptions", policy="first-touch"):
    return RunRequest(
        environment="linux",
        vms=(VmRequest(app=app, policy=policy),),
        config=SimConfig(),
    )


def _xen(app="swaptions"):
    return RunRequest(
        environment="xen",
        vms=(VmRequest(app=app, policy="round-1g"),),
        features="Xen+",
        config=SimConfig(),
    )


class TestDedupAndStore:
    def test_duplicates_coalesce(self):
        runner = Runner()
        request = _linux()
        results = runner.resolve([request, request, request])
        assert runner.stats.requested == 3
        assert runner.stats.deduplicated == 2
        assert runner.stats.executed == 1
        assert len(results) == 1

    def test_second_resolve_hits_store(self):
        runner = Runner()
        runner.resolve([_linux()])
        runner.resolve([_linux()])
        assert runner.stats.executed == 1
        assert runner.store.stats().hits >= 1

    def test_shared_store_across_runners(self):
        store = MemoryRunStore()
        Runner(store=store).resolve([_linux()])
        second = Runner(store=store)
        second.resolve([_linux()])
        assert second.stats.executed == 0
        assert store.stats().hits == 1

    def test_two_runners_publish_distinguishable_stats(self):
        # Regression: stats cells used to be registered by bare name, so
        # two runners in one process (a script may hold several)
        # published indistinguishable runner.* cells and every aggregated
        # view double-counted them. Each cell now carries a runner label.
        with obs.session() as sess:
            first = Runner(name="alpha")
            second = Runner(name="beta")
            first.resolve([_linux()])
            second.resolve([_linux(), _linux()])
            assert first.stats.requested == 1
            assert second.stats.requested == 2
            by_scope = {
                cell["labels"]["runner"]: cell["value"]
                for cell in sess.registry.snapshot()
                if cell["name"] == "runner.requested"
            }
        assert by_scope["alpha"] == 1
        assert by_scope["beta"] == 2

    def test_default_scopes_are_distinct(self):
        with obs.session() as sess:
            Runner().resolve([_linux()])
            Runner().resolve([_linux()])
            scopes = [
                cell["labels"]["runner"]
                for cell in sess.registry.snapshot()
                if cell["name"] == "runner.executed"
            ]
        assert len(scopes) == 2
        assert len(set(scopes)) == 2

    def test_summary_has_both_counter_groups(self):
        runner = Runner()
        runner.resolve([_linux()])
        text = runner.summary()
        assert "store:" in text
        assert "runner:" in text


class TestResultSet:
    def test_one_returns_single_result(self):
        runner = Runner()
        request = _linux()
        result = runner.resolve([request]).one(request)
        assert result.app == "swaptions"
        assert result.completion_seconds > 0.0

    def test_lazy_follow_up_resolution(self):
        runner = Runner()
        results = runner.resolve([_linux()])
        follow_up = _xen()
        assert follow_up not in results
        result = results.one(follow_up)  # resolves through the runner
        assert follow_up in results
        assert result.completion_seconds > 0.0
        assert runner.stats.executed == 2

    def test_resolve_merges_into_set(self):
        runner = Runner()
        results = runner.resolve([_linux()])
        results.resolve([_xen()])
        assert len(results) == 2


class TestParallelIdentity:
    REQUESTS = [
        _linux("swaptions", "first-touch"),
        _linux("swaptions", "round-4k"),
        _linux("bodytrack", "first-touch"),
        _xen("swaptions"),
    ]

    def test_parallel_results_bit_identical_to_serial(self):
        serial = Runner(jobs=1)
        parallel = Runner(jobs=2)
        serial_set = serial.resolve(self.REQUESTS)
        parallel_set = parallel.resolve(self.REQUESTS)
        for request in self.REQUESTS:
            assert serial_set.get(request) == parallel_set.get(request)

    def test_parallel_disk_store_round_trip(self, tmp_path):
        store = DiskRunStore(tmp_path / "rs")
        Runner(store=store, jobs=2).resolve(self.REQUESTS)
        # A fresh store instance re-reads everything from disk.
        reread = Runner(store=DiskRunStore(tmp_path / "rs"))
        reread_set = reread.resolve(self.REQUESTS)
        assert reread.stats.executed == 0
        direct = [execute_request(request) for request in self.REQUESTS]
        for request, expected in zip(self.REQUESTS, direct):
            assert reread_set.get(request) == expected


class TestExecuteRequest:
    def test_xen_pair_returns_one_result_per_vm(self):
        halves = ([0, 1, 2, 3], [4, 5, 6, 7])
        request = RunRequest(
            environment="xen",
            vms=tuple(
                VmRequest(
                    app=app,
                    policy=policy,
                    num_vcpus=24,
                    home_nodes=home,
                    pin_pcpus=[c for node in home for c in range(node * 6, node * 6 + 6)],
                )
                for app, policy, home in (
                    ("swaptions", "round-1g", halves[0]),
                    ("bodytrack", "round-4k", halves[1]),
                )
            ),
            features="Xen+",
            config=SimConfig(),
        )
        results = execute_request(request)
        assert [r.app for r in results] == ["swaptions", "bodytrack"]

    def test_deterministic_re_execution(self):
        request = _linux()
        assert execute_request(request) == execute_request(request)


def _cluster(config=None):
    return RunRequest(
        environment="cluster",
        vms=(
            VmRequest(app="streamcluster", num_vcpus=6),
            VmRequest(app="facesim", num_vcpus=6),
        ),
        features="Xen+",
        config=config or SimConfig(page_scale=4096),
    )


class TestClusterExecution:
    def test_first_vm_migrates_to_the_other_host(self):
        results = execute_request(_cluster())
        by_app = {r.app: r for r in results}
        assert set(by_app) == {"streamcluster", "facesim"}
        # The migrated VM finishes on a host-qualified world label and
        # carries the protocol stats.
        migrated = by_app["streamcluster"]
        assert "@h" in migrated.environment
        assert migrated.stats["migration.rounds"] >= 1

    def test_cluster_execution_deterministic(self):
        assert execute_request(_cluster()) == execute_request(_cluster())

    def test_cluster_results_cache_and_replay(self, tmp_path):
        request = _cluster()
        runner = Runner(store=DiskRunStore(str(tmp_path / "rs")))
        first = runner.resolve([request]).get(request)
        runner2 = Runner(store=DiskRunStore(str(tmp_path / "rs")))
        second = runner2.resolve([request]).get(request)
        assert runner2.stats.executed == 0
        assert first == second
