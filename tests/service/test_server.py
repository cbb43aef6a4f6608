"""The repro serve daemon: request handling, the resident cache,
concurrency, backpressure and lifecycle."""

import os
import socket
import threading
import time

import pytest

from repro.engine import aggregate_sweep_metrics, catalog_factory, run_sweep
from repro.service import (
    ReproServer,
    ServiceBusy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.protocol import SOCKET_ENV, default_socket_path, raise_for_reply
from repro.service.server import _json_safe


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(
        str(tmp_path / "serve.sock"),
        workers=4,
        queue_size=16,
        cache_root=tmp_path / "cache",
    )
    with srv:
        ServiceClient(srv.socket_path).wait_until_ready()
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.socket_path, timeout=60.0)


class TestProtocol:
    def test_default_socket_path_env_override(self, monkeypatch):
        monkeypatch.setenv(SOCKET_ENV, "/tmp/custom.sock")
        assert default_socket_path() == "/tmp/custom.sock"
        monkeypatch.delenv(SOCKET_ENV)
        assert str(os.getuid()) in default_socket_path()

    def test_raise_for_reply(self):
        assert raise_for_reply({"ok": True, "x": 1}) == {"ok": True, "x": 1}
        with pytest.raises(ServiceBusy):
            raise_for_reply({"ok": False, "error": "busy", "message": "full"})
        with pytest.raises(ServiceError, match="boom"):
            raise_for_reply({"ok": False, "error": "error", "message": "boom"})


class TestRequests:
    def test_ping_and_status(self, server, client):
        pong = client.ping()
        assert pong["pid"] == os.getpid()
        assert pong["version"]
        status = client.status()
        assert status["socket"] == server.socket_path
        assert status["queue_capacity"] == 16
        assert status["workers"] == 4
        assert status["cache"]["entries"] == 0
        assert set(status["counters"]) == {
            "requests",
            "completed",
            "errors",
            "busy_rejections",
            "peak_queue_depth",
            "in_flight",
        }

    def test_run_cold_then_cached(self, server, client):
        cold = client.run("bfs", {"n": 10, "seed": 3})
        assert cold["cached"] is False
        assert cold["rounds"] >= 1
        assert cold["metrics"]["total_bits"] > 0
        warm = client.run("bfs", {"n": 10, "seed": 3})
        assert warm["cached"] is True
        for field in ("rounds", "total_message_bits", "bulk_bits"):
            assert warm[field] == cold[field]
        assert server.cache.stats()["entries"] == 1

    def test_run_on_columnar_engine(self, client):
        config = {"n": 16, "rounds": 2, "seed": 1}
        fast = client.run("fanout", config)
        columnar = client.run("fanout", config, execution="columnar")
        assert columnar["cached"] is False  # engine is part of the key
        assert columnar["rounds"] == fast["rounds"]
        assert columnar["common_output"] == fast["common_output"]

    def test_unknown_engine_is_an_error_and_the_daemon_keeps_serving(self, client):
        with pytest.raises(ServiceError, match="unknown engine 'sharded'"):
            client.run("bfs", {"n": 8, "seed": 0}, execution="sharded")
        assert client.run("bfs", {"n": 8, "seed": 0})["rounds"] >= 1
        assert client.status()["counters"]["errors"] == 1

    @pytest.mark.parametrize(
        "execution, message",
        [
            ({"shards": 2}, r"unknown ExecutionSpec field\(s\) \['shards'\]"),
            (
                {"engine": "columnar", "fault_plan": {"dorp": 0.1}},
                r"unknown FaultPlan field\(s\) \['dorp'\].*did you mean "
                r"'drop_rate'",
            ),
            (
                {"fault_plan": {"drop_rate": "x"}},
                r"FaultPlan.drop_rate must be a real number",
            ),
            ({"fault_plan": {"seed": 1.5}}, r"FaultPlan.seed must be an int"),
            (
                {"observer": {"observer": "metrics", "link": True, "profile": False}},
                r"unknown key 'link' in observer spec.*did you mean "
                r"'links'",
            ),
            ({"observer": "metrics"}, r"observer must be None, False"),
            # No level turns off the one-message-of-<=B-bits invariant.
            (
                {"check": "off"},
                r"check must be one of \('full', 'bandwidth'\), got 'off'",
            ),
        ],
        ids=[
            "removed-shards",
            "fault-plan-typo",
            "rate-type",
            "seed-type",
            "observer-key-typo",
            "observer-alias",
            "check-off",
        ],
    )
    def test_bad_execution_is_an_error_and_the_daemon_keeps_serving(
        self, client, execution, message
    ):
        # Sent raw: the client would reject these before they leave.
        request = {
            "op": "run",
            "algorithm": "fanout",
            "config": {"n": 8, "rounds": 2, "seed": 0},
            "execution": execution,
        }
        with pytest.raises(ServiceError, match=message):
            client.request(request)
        assert client.run("fanout", {"n": 8, "rounds": 2, "seed": 0})["rounds"] == 2
        assert client.status()["counters"]["errors"] == 1

    def test_run_unknown_algorithm_is_an_error(self, client):
        with pytest.raises(ServiceError, match="unknown algorithm"):
            client.run("nope", {"n": 8})

    def test_run_respects_fault_plan(self, client):
        clean = client.run("bfs", {"n": 9, "seed": 0})
        # A zero-rate plan changes the cache key but not the outcome.
        faulty = client.run(
            "bfs",
            {"n": 9, "seed": 0},
            execution={"fault_plan": "drop=0.0,seed=1"},
        )
        assert faulty["cached"] is False
        assert faulty["rounds"] == clean["rounds"]

    def test_run_with_execution_spec(self, client):
        fast = client.run("fanout", {"n": 16, "rounds": 3, "seed": 0})
        columnar = client.run(
            "fanout",
            {"n": 16, "rounds": 3, "seed": 0},
            execution={"engine": "columnar", "check": "bandwidth"},
        )
        assert columnar["cached"] is False  # engine is part of the key
        assert columnar["rounds"] == fast["rounds"]
        assert columnar["common_output"] == fast["common_output"]
        # An explicit spec naming the daemon's default engine shares
        # the cache entry written by the plain request.
        same = client.run(
            "fanout",
            {"n": 16, "rounds": 3, "seed": 0},
            execution={"engine": "fast"},
        )
        assert same["cached"] is True

    def test_run_execution_conflict_is_an_error(self, client):
        # A flat key beside the execution object is a second spelling of
        # the same setting: refused, never merged.
        request = {
            "op": "run",
            "algorithm": "fanout",
            "config": {"n": 8, "seed": 0},
            "execution": {"engine": "columnar"},
            "engine": "fast",
        }
        with pytest.raises(ServiceError, match=r"\['engine'\].*'execution'"):
            client.request(request)

    @pytest.mark.parametrize("key", ["engine", "observer", "fault_plan"])
    def test_flat_execution_keys_are_an_error_and_the_daemon_keeps_serving(
        self, client, key
    ):
        value = {"engine": "fast", "observer": False, "fault_plan": "drop=0.1"}
        request = {
            "op": "run",
            "algorithm": "fanout",
            "config": {"n": 8, "rounds": 2, "seed": 0},
            key: value[key],
        }
        with pytest.raises(ServiceError, match="'execution' object"):
            client.request(request)
        reply = client.run("fanout", {"n": 8, "rounds": 2, "seed": 0})
        assert reply["rounds"] == 2
        assert reply["metrics"]["engine"] == "fast"
        assert client.status()["counters"]["errors"] == 1

    def test_sweep_and_cache_interop(self, client):
        configs = [{"n": n, "seed": 0} for n in (6, 8)]
        first = client.sweep("kds", configs, workers=2)
        assert first["points"] == 2
        assert first["failed"] == 0
        assert first["from_cache"] == 0
        assert len(first["rounds"]) == 2
        assert first["summary"]["runs"] == 2
        second = client.sweep("kds", configs)
        assert second["from_cache"] == 2
        # A remote run for the same point hits the sweep's cache entry.
        run = client.run("kds", {"n": 6, "seed": 0})
        assert run["cached"] is True

    def test_failing_run_is_an_error_and_the_daemon_keeps_serving(self, client):
        # A duplicate plan replays an agreement message into routing's
        # data rounds: a protocol violation inside the run itself.
        with pytest.raises(ServiceError) as err:
            client.run(
                "routing",
                {"n": 8, "seed": 0, "scheme": "direct"},
                execution={"fault_plan": "duplicate=0.05,seed=5"},
            )
        message = str(err.value)
        assert "sweep point 0 (config " in message
        assert "failed after 1 attempt(s): ProtocolViolation: route: node 4" in message
        assert client.run("bfs", {"n": 8, "seed": 0})["rounds"] >= 1
        assert client.status()["counters"]["errors"] == 1

    def test_sweep_rejects_bad_configs(self, client):
        with pytest.raises(ServiceError, match="non-empty"):
            client.sweep("kds", [])

    def test_shutdown_request_stops_the_server(self, server, client):
        reply = client.shutdown()
        assert reply["stopping"] is True
        assert server._stop.wait(timeout=5.0)


class TestConcurrency:
    def test_sustains_eight_concurrent_requests(self, server, client):
        """The acceptance bar: >= 8 in-flight requests all complete and
        the queue depth never exceeds its bound."""
        results = [None] * 8
        errors = []

        def one(index):
            try:
                results[index] = ServiceClient(server.socket_path).run(
                    "bfs", {"n": 8, "seed": index}
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(r is not None and r["rounds"] >= 1 for r in results)
        status = client.status()
        assert status["counters"]["completed"] >= 8
        assert status["counters"]["peak_queue_depth"] <= 16

    def test_concurrent_sweeps_share_the_warm_pool(self, client):
        configs = [{"n": n, "seed": s} for n in (8, 12, 16) for s in range(6)]
        serial = run_sweep(
            catalog_factory,
            [dict(c, algorithm="bfs") for c in configs],
            workers=1,
        )
        replies = [None, None]

        def sweep(slot):
            replies[slot] = client.sweep("bfs", configs, workers=2, cache=False)

        threads = [
            threading.Thread(target=sweep, args=(slot,), daemon=True)
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "sweep hung"
        for reply in replies:
            assert reply["failed"] == 0 and reply["from_cache"] == 0
            assert reply["rounds"] == [o.result.rounds for o in serial]
            assert reply["summary"] == _json_safe(aggregate_sweep_metrics(serial))

    def test_backpressure_rejects_when_queue_is_full(self, tmp_path):
        """With one worker and a one-slot queue: request A occupies the
        worker, B fills the queue, C must get an immediate busy reply."""
        srv = ReproServer(
            str(tmp_path / "bp.sock"),
            workers=1,
            queue_size=1,
            cache_root=tmp_path / "cache",
        )
        with srv:
            client = ServiceClient(srv.socket_path, timeout=30.0)
            client.wait_until_ready()
            background = []

            def sleeper():
                background.append(client.sleep(1.5))

            def in_flight() -> int:
                with srv._lock:
                    return srv._counters["in_flight"]

            first = threading.Thread(target=sleeper)
            first.start()
            deadline = time.monotonic() + 5.0
            # Wait until A is off the queue and inside the worker.  The
            # in_flight gauge only rises after the worker dequeues, so
            # there is no window where A could still be about to enqueue.
            while not (in_flight() >= 1 and srv._queue.qsize() == 0):
                assert time.monotonic() < deadline, "A never reached a worker"
                time.sleep(0.02)
            second = threading.Thread(target=sleeper)
            second.start()
            while srv._queue.qsize() < 1:
                assert time.monotonic() < deadline, "B never reached the queue"
                time.sleep(0.02)
            with pytest.raises(ServiceBusy, match="queue is full"):
                client.sleep(0.1)
            first.join(timeout=30)
            second.join(timeout=30)
            assert len(background) == 2  # queued work still completed
            assert client.status()["counters"]["busy_rejections"] == 1


class TestLifecycle:
    def test_live_socket_is_not_displaced(self, server, tmp_path):
        clash = ReproServer(server.socket_path, cache_root=tmp_path / "c2")
        with pytest.raises(ServiceError, match="already listening"):
            clash.start()
        # The original daemon is untouched.
        assert ServiceClient(server.socket_path).ping()["pid"] == os.getpid()

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(path)
        leftover.close()  # dead daemon: file exists, nobody listens
        assert os.path.exists(path)
        with ReproServer(path, cache_root=tmp_path / "cache") as srv:
            client = ServiceClient(path)
            client.wait_until_ready()
            assert client.ping()["pid"] == os.getpid()
        assert not os.path.exists(srv.socket_path)  # stop() cleans up

    def test_client_without_daemon_raises_unavailable(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nobody.sock"), timeout=1.0)
        with pytest.raises(ServiceUnavailable, match="repro serve"):
            client.ping()

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ServiceError, match="workers"):
            ReproServer(str(tmp_path / "x.sock"), workers=0)
        with pytest.raises(ServiceError, match="queue_size"):
            ReproServer(str(tmp_path / "x.sock"), queue_size=0)


class TestWarmLatency:
    def test_warm_requests_beat_cold_by_5x(self, server):
        """The acceptance bar behind perfbench's serve-mixed workload: a
        cache-hit request through the daemon is at least 5x faster than
        the cold request that computed the entry."""
        client = ServiceClient(server.socket_path, timeout=120.0)
        config = {"n": 16, "seed": 0}
        t0 = time.perf_counter()
        cold = client.run("apsp", config)
        cold_seconds = time.perf_counter() - t0
        assert cold["cached"] is False
        warm_samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            warm = client.run("apsp", config)
            warm_samples.append(time.perf_counter() - t0)
            assert warm["cached"] is True
        warm_seconds = min(warm_samples)
        assert cold_seconds >= 5 * warm_seconds, (
            f"cold={cold_seconds:.4f}s warm={warm_seconds:.4f}s "
            f"ratio={cold_seconds / warm_seconds:.1f}x"
        )
