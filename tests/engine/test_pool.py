"""Tests for the multiprocess sweep runner: determinism, worker/serial
equivalence, cache integration, factory pickling fallbacks, and the
failure-containment layer (crashing points, hanging points, retries,
dead and stale workers) and concurrent sweeps on the shared warm pool."""

import os
import sys
import threading
import time

import pytest

from repro.clique.bits import BitString
from repro.clique.errors import CliqueError, SweepPointFailed
from repro.engine import (
    ExecutionSpec,
    RunCache,
    RunSpec,
    aggregate_sweep_metrics,
    derive_seed,
    run_spec,
    run_sweep,
)
from repro.engine.pool import available_cpus, shutdown_pool


def echo_factory(config: dict) -> RunSpec:
    """Module-level (hence picklable) factory: one broadcast round where
    every node learns the config-dependent parity bits of its peers."""
    n = config["n"]
    bit = config["seed"] % 2

    def prog(node):
        node.send_to_all(BitString((node.id + bit) % 2, 1))
        yield
        return sorted((src, msg.value) for src, msg in node.inbox.items())

    def post(result):
        return result.total_message_bits

    return RunSpec(program=prog, n=n, postprocess=post)


def chaos_factory(config: dict) -> RunSpec:
    """Module-level factory with deliberately bad grid points: ``mode``
    selects a healthy run, a crash, or a hang (for timeout tests)."""
    mode = config.get("mode", "ok")
    if mode == "crash":
        raise RuntimeError("injected factory crash")
    if mode == "hang":
        time.sleep(60)

    def prog(node):
        node.send_to_all(BitString(node.id % 2, 1))
        yield
        return len(node.inbox)

    return RunSpec(program=prog, n=config.get("n", 4))


_FLAKY_STATE = {"failures_left": 0}


def flaky_factory(config: dict) -> RunSpec:
    """Fails the first ``failures_left`` calls, then behaves."""
    if _FLAKY_STATE["failures_left"] > 0:
        _FLAKY_STATE["failures_left"] -= 1
        raise RuntimeError("transient failure")
    return chaos_factory(config)


def marker_factory(config: dict) -> RunSpec:
    """Module-level factory whose point with a ``log`` file fails its
    first ``failures`` calls: by ``os._exit(3)`` when ``mode == "die"``,
    by an exception otherwise.  Calls are counted as bytes in the file,
    since a per-process counter does not survive a fork."""
    log = config.get("log")
    if log is not None:
        with open(log, "a") as fh:
            fh.write(".")
        calls = os.path.getsize(log)
        if calls <= config["failures"]:
            if config.get("mode") == "die":
                os._exit(3)
            raise RuntimeError(f"transient failure on call {calls}")
    return chaos_factory(config)


def _refuse_to_load():
    raise RuntimeError("refuses to load")


class Unloadable:
    """Pickles fine, but unpickling it raises (a task no worker can load)."""

    def __reduce__(self):
        return (_refuse_to_load, ())


#: (workers, timeout) pairs: serial in-process, the chunked pool, and
#: the pool's one-task-at-a-time deadline mode at one and two workers.
ATTEMPT_LOOPS = [
    pytest.param(1, None, id="serial"),
    pytest.param(2, None, id="pool"),
    pytest.param(1, 30.0, id="timeout-1-worker"),
    pytest.param(2, 30.0, id="timeout-2-workers"),
]
#: A hard worker death needs a worker: serial ``os._exit`` would end
#: the test process itself.
DEATH_LOOPS = ATTEMPT_LOOPS[1:]
#: (workers, timeout, mode) of a point that never recovers.
PERSISTENT_FAILURES = [(*p.values, "raise") for p in ATTEMPT_LOOPS]
PERSISTENT_FAILURES += [(*p.values, "die") for p in DEATH_LOOPS]
#: What the final error says each mode's last attempt ran into.
FAILURE_REASONS = {
    "raise": "RuntimeError: transient failure on call 3",
    "die": "worker died without a result (exit code 3)",
}


class TestRunSpec:
    def test_n_inferred_from_graph(self):
        from repro.problems import generators as gen

        g = gen.random_graph(7, 0.3, 0)
        assert RunSpec(program=None, node_input=g).resolved_n() == 7

    def test_n_required_otherwise(self):
        with pytest.raises(CliqueError, match="explicit n"):
            RunSpec(program=None).resolved_n()

    def test_n_error_names_the_program_and_input(self):
        def my_prog(node):
            yield

        with pytest.raises(CliqueError, match="my_prog"):
            RunSpec(program=my_prog, node_input=[1, 2]).resolved_n()
        with pytest.raises(CliqueError, match="list"):
            RunSpec(program=my_prog, node_input=[1, 2]).resolved_n()

    def test_run_spec_returns_postprocess_value(self):
        result, value = run_spec(echo_factory({"n": 4, "seed": 0}), execution="fast")
        assert result.rounds == 1
        assert value == result.total_message_bits


class TestDeterminism:
    def test_derive_seed_is_stable(self):
        a = derive_seed(0, 3, {"n": 16})
        assert a == derive_seed(0, 3, {"n": 16})
        assert a != derive_seed(0, 4, {"n": 16})
        assert a != derive_seed(1, 3, {"n": 16})
        assert a != derive_seed(0, 3, {"n": 32})

    def test_configs_get_deterministic_seeds(self):
        configs = [{"n": 4}, {"n": 4}, {"n": 5}]
        first = run_sweep(echo_factory, configs, workers=1)
        second = run_sweep(echo_factory, configs, workers=1)
        assert [o.config for o in first] == [o.config for o in second]
        assert all("seed" in o.config for o in first)
        # Same n, different grid index -> different derived seed.
        assert first[0].config["seed"] != first[1].config["seed"]

    def test_explicit_seeds_are_kept(self):
        outcomes = run_sweep(echo_factory, [{"n": 4, "seed": 99}], workers=1)
        assert outcomes[0].config["seed"] == 99


class TestWorkers:
    CONFIGS = [{"n": n, "seed": s} for n in (4, 6, 8) for s in (0, 1)]

    def test_parallel_equals_serial(self):
        serial = run_sweep(echo_factory, self.CONFIGS, workers=1)
        parallel = run_sweep(echo_factory, self.CONFIGS, workers=3)
        assert len(serial) == len(parallel) == len(self.CONFIGS)
        for a, b in zip(serial, parallel):
            assert a.config == b.config
            assert a.result.outputs == b.result.outputs
            assert a.result.rounds == b.result.rounds
            assert a.value == b.value

    def test_unpicklable_factory_degrades_to_serial(self):
        # A closure can't be pickled by qualified name; the sweep must
        # still complete (serial fallback), not crash.
        def local_factory(config):
            return echo_factory(config)

        with pytest.warns(RuntimeWarning, match="not picklable"):
            outcomes = run_sweep(local_factory, self.CONFIGS[:3], workers=2)
        assert len(outcomes) == 3
        assert all(o.result.rounds == 1 for o in outcomes)

    def test_engine_choice_applies(self):
        ref = run_sweep(echo_factory, self.CONFIGS, workers=1, execution="reference")
        fast = run_sweep(echo_factory, self.CONFIGS, workers=1, execution="fast")
        for a, b in zip(ref, fast):
            assert a.result.outputs == b.result.outputs
            assert a.result.total_message_bits == b.result.total_message_bits


    def test_available_cpus_is_the_affinity_mask(self):
        # Pool sizing and the bench fingerprint go by the cores this
        # process may run on, not by the machine's core count.
        cpus = available_cpus()
        assert cpus >= 1
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))


class TestCacheIntegration:
    def test_second_sweep_is_all_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        configs = [{"n": 4, "seed": 0}, {"n": 6, "seed": 1}]
        first = run_sweep(echo_factory, configs, workers=1, cache=cache)
        assert all(not o.from_cache for o in first)
        assert len(cache) == 2

        second = run_sweep(echo_factory, configs, workers=1, cache=cache)
        assert all(o.from_cache for o in second)
        for a, b in zip(first, second):
            assert a.result.outputs == b.result.outputs
            assert a.value == b.value

    def test_engine_config_partitions_the_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        configs = [{"n": 4, "seed": 0}]
        run_sweep(echo_factory, configs, workers=1, cache=cache, execution="fast")
        run_sweep(echo_factory, configs, workers=1, cache=cache, execution="reference")
        assert len(cache) == 2  # one entry per engine config

    def test_config_change_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(echo_factory, [{"n": 4, "seed": 0}], workers=1, cache=cache)
        outcomes = run_sweep(
            echo_factory, [{"n": 4, "seed": 1}], workers=1, cache=cache
        )
        assert not outcomes[0].from_cache

    def test_fault_plan_partitions_the_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        configs = [{"n": 4, "seed": 0}]
        run_sweep(echo_factory, configs, workers=1, cache=cache)
        outcomes = run_sweep(
            echo_factory,
            configs,
            workers=1,
            cache=cache,
            execution=ExecutionSpec(fault_plan="drop=0.5,seed=1"),
        )
        assert not outcomes[0].from_cache
        assert len(cache) == 2  # one entry per fault-plan config

    def test_failed_points_are_not_cached(self, tmp_path):
        cache = RunCache(tmp_path)
        configs = [{"mode": "ok", "seed": 0}, {"mode": "crash", "seed": 0}]
        outcomes = run_sweep(chaos_factory, configs, workers=1, cache=cache)
        assert [o.failed for o in outcomes] == [False, True]
        assert len(cache) == 1  # only the healthy point landed on disk
        again = run_sweep(chaos_factory, configs, workers=1, cache=cache)
        assert again[0].from_cache
        assert again[1].failed and not again[1].from_cache


class TestFailureContainment:
    CONFIGS = [
        {"mode": "ok", "seed": 0},
        {"mode": "crash", "seed": 0},
        {"mode": "ok", "seed": 1},
    ]

    def test_crashing_point_is_marked_failed(self):
        outcomes = run_sweep(chaos_factory, self.CONFIGS, workers=1)
        assert [o.failed for o in outcomes] == [False, True, False]
        bad = outcomes[1]
        assert bad.result is None
        assert isinstance(bad.error, SweepPointFailed)
        assert bad.error.index == 1
        assert bad.error.config == bad.config
        assert "injected factory crash" in str(bad.error)
        # The healthy points are untouched by their neighbour's failure.
        assert outcomes[0].result.rounds == 1
        assert outcomes[2].result.rounds == 1

    def test_crash_in_pool_mode_does_not_kill_the_sweep(self):
        outcomes = run_sweep(chaos_factory, self.CONFIGS, workers=2)
        assert [o.failed for o in outcomes] == [False, True, False]

    def test_on_error_raise_aborts(self):
        with pytest.raises(SweepPointFailed, match="injected factory crash"):
            run_sweep(chaos_factory, self.CONFIGS, workers=1, on_error="raise")

    def test_hanging_point_is_killed_at_the_timeout(self):
        configs = [
            {"mode": "ok", "seed": 0},
            {"mode": "hang", "seed": 0},
            {"mode": "ok", "seed": 1},
        ]
        start = time.monotonic()
        outcomes = run_sweep(chaos_factory, configs, timeout=2.0)
        elapsed = time.monotonic() - start
        assert elapsed < 30  # nowhere near the 60s sleep
        assert [o.failed for o in outcomes] == [False, True, False]
        assert "timeout" in str(outcomes[1].error)

    def test_retries_recover_a_transient_failure(self):
        _FLAKY_STATE["failures_left"] = 2
        outcomes = run_sweep(
            flaky_factory,
            [{"mode": "ok", "seed": 0}],
            workers=1,
            retries=2,
            retry_backoff=0.0,
        )
        assert not outcomes[0].failed
        assert outcomes[0].result.rounds == 1

    def test_retries_exhausted_still_fails(self):
        _FLAKY_STATE["failures_left"] = 10
        outcomes = run_sweep(
            flaky_factory,
            [{"mode": "ok", "seed": 0}],
            workers=1,
            retries=1,
            retry_backoff=0.0,
        )
        _FLAKY_STATE["failures_left"] = 0
        assert outcomes[0].failed
        assert "2 attempt(s)" in str(outcomes[0].error)

    def test_aggregate_reports_failures_without_raising(self):
        outcomes = run_sweep(
            chaos_factory,
            self.CONFIGS,
            workers=1,
            execution=ExecutionSpec(
                observer={"observer": "metrics", "links": False, "profile": False}
            ),
        )
        summary = aggregate_sweep_metrics(outcomes)
        assert summary["runs"] == 2
        assert summary["failed_points"] == 1
        assert summary["failed_indices"] == [1]

    def test_aggregate_shape_unchanged_without_failures(self):
        outcomes = run_sweep(
            chaos_factory,
            [{"mode": "ok", "seed": 0}],
            workers=1,
            execution=ExecutionSpec(observer=False),
        )
        assert aggregate_sweep_metrics(outcomes) == {"runs": 0}

    def test_parameter_validation(self):
        with pytest.raises(CliqueError, match="on_error"):
            run_sweep(chaos_factory, [], on_error="explode")
        with pytest.raises(CliqueError, match="retries"):
            run_sweep(chaos_factory, [], retries=-1)
        with pytest.raises(CliqueError, match="timeout"):
            run_sweep(chaos_factory, [], timeout=0)
        with pytest.raises(CliqueError, match="retry_backoff"):
            run_sweep(chaos_factory, [], retry_backoff=-0.5)


class TestAttemptLoop:
    """Every path runs one parent-owned attempt loop: the same retries,
    attempt counts and error wording whatever fails and wherever."""

    def grid(self, tmp_path, failures, mode="raise"):
        configs = [{"mode": "ok", "seed": s} for s in range(4)]
        configs[1] = dict(
            mode=mode, seed=1, log=str(tmp_path / "calls"), failures=failures
        )
        return configs

    def calls(self, tmp_path):
        return os.path.getsize(tmp_path / "calls")

    @pytest.mark.parametrize("workers, timeout", DEATH_LOOPS)
    def test_worker_death_is_retried(self, tmp_path, workers, timeout):
        outcomes = run_sweep(
            marker_factory,
            self.grid(tmp_path, failures=1, mode="die"),
            workers=workers,
            timeout=timeout,
            retries=1,
            retry_backoff=0.0,
        )
        assert [o.failed for o in outcomes] == [False] * 4
        assert all(o.result.rounds == 1 for o in outcomes)
        assert self.calls(tmp_path) == 2

    @pytest.mark.parametrize("workers, timeout", ATTEMPT_LOOPS)
    def test_transient_exception_recovers(self, tmp_path, workers, timeout):
        outcomes = run_sweep(
            marker_factory,
            self.grid(tmp_path, failures=2),
            workers=workers,
            timeout=timeout,
            retries=2,
            retry_backoff=0.0,
        )
        assert [o.failed for o in outcomes] == [False] * 4
        assert self.calls(tmp_path) == 3

    @pytest.mark.parametrize("workers, timeout, mode", PERSISTENT_FAILURES)
    def test_persistent_failure_counts_retries_plus_one_attempts(
        self, tmp_path, workers, timeout, mode
    ):
        outcomes = run_sweep(
            marker_factory,
            self.grid(tmp_path, failures=99, mode=mode),
            workers=workers,
            timeout=timeout,
            retries=2,
            retry_backoff=0.0,
        )
        assert [o.failed for o in outcomes] == [False, True, False, False]
        message = str(outcomes[1].error)
        assert message.startswith("sweep point 1 (config ")
        assert message.endswith(f"failed after 3 attempt(s): {FAILURE_REASONS[mode]}")
        assert self.calls(tmp_path) == 3

    def test_unloadable_task_is_charged_like_any_failure(self):
        configs = [{"mode": "ok", "seed": 0}, {"seed": 1, "poison": Unloadable()}]
        outcomes = run_sweep(
            chaos_factory, configs, workers=2, retries=1, retry_backoff=0.0
        )
        assert [o.failed for o in outcomes] == [False, True]
        message = str(outcomes[1].error)
        assert "failed after 2 attempt(s): could not be loaded" in message
        assert "refuses to load" in message

    def test_stale_fork_reloads_without_a_charge(self, tmp_path):
        # Warm workers forked before the factory's module was importable
        # cannot load its tasks; fresh workers can, and retries=0 holds.
        run_sweep(echo_factory, TestWorkers.CONFIGS, workers=2)
        (tmp_path / "late_factory.py").write_text(
            "from tests.engine.test_pool import echo_factory\n\n\n"
            "def late_factory(config):\n"
            "    return echo_factory(config)\n"
        )
        sys.path.insert(0, str(tmp_path))
        try:
            from late_factory import late_factory

            outcomes = run_sweep(late_factory, TestWorkers.CONFIGS, workers=2)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("late_factory", None)
        assert not any(o.failed for o in outcomes)
        serial = run_sweep(echo_factory, TestWorkers.CONFIGS, workers=1)
        assert [o.value for o in outcomes] == [o.value for o in serial]


class TestConcurrentSweeps:
    def test_two_threads_share_the_warm_pool(self):
        configs = [{"n": n, "seed": s} for n in (4, 6, 8) for s in range(6)]

        def summary(outcomes):
            return [(o.config, o.result.outputs, o.value) for o in outcomes]

        serial = summary(run_sweep(echo_factory, configs, workers=1))
        shutdown_pool()  # both threads start on a cold pool
        results = [None, None]

        def sweep(slot):
            results[slot] = summary(run_sweep(echo_factory, configs, workers=2))

        threads = [
            threading.Thread(target=sweep, args=(slot,), daemon=True)
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "sweep hung"
        assert results == [serial, serial]
