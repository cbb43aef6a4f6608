"""End-to-end CLI smoke: a real ``repro serve`` daemon process serving
``repro run --remote`` and ``repro serve --status``/``--stop``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import CATALOG
from repro.service import ServiceClient

ROOT = Path(__file__).resolve().parents[2]


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return env


def _repro(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def daemon(tmp_path):
    sock = str(tmp_path / "cli.sock")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock,
            "--cache",
            str(tmp_path / "cache"),
            "--workers",
            "2",
        ],
        env=_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ServiceClient(sock).wait_until_ready(timeout=30.0)
        yield sock, proc
    finally:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung daemon
            proc.kill()
            proc.wait(timeout=10)


class TestServeCLI:
    def test_full_cycle(self, daemon):
        sock, proc = daemon

        cold = _repro("run", "subgraph", "--remote", "--socket", sock, "--n", "12")
        assert cold.returncode == 0, cold.stderr
        assert "cached: no" in cold.stdout

        warm = _repro("run", "subgraph", "--remote", "--socket", sock, "--n", "12")
        assert warm.returncode == 0, warm.stderr
        assert "cached: yes" in warm.stdout

        status = _repro("serve", "--status", "--socket", sock)
        assert status.returncode == 0, status.stderr
        assert "cache.entries" in status.stdout
        assert "pool.warm" in status.stdout

        stop = _repro("serve", "--stop", "--socket", sock)
        assert stop.returncode == 0, stop.stderr
        assert proc.wait(timeout=30) == 0
        assert not os.path.exists(sock)

    def test_remote_rejects_non_catalog_algorithm(self, daemon):
        sock, _ = daemon
        bad = _repro("run", "nonsense", "--remote", "--socket", sock)
        assert bad.returncode == 2
        assert "invalid choice: 'nonsense'" in bad.stderr

    def test_remote_and_local_runs_print_the_same_lines(self, daemon, capsys):
        # One printer for both replies: the daemon runs on the batch
        # engine, the local run on the reference engine, and every
        # catalog entry prints the same output and rounds either way.
        sock, _ = daemon

        def printed(*extra):
            assert main(["run", name, "--n", "12", *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            return [ln for ln in lines if ln.startswith(("output:", "rounds:"))]

        for name in sorted(CATALOG):
            local = printed()
            assert len(local) == 2, name
            assert printed("--remote", "--socket", sock) == local, name

    def test_status_without_daemon_fails_cleanly(self, tmp_path):
        result = _repro("serve", "--status", "--socket", str(tmp_path / "nobody.sock"))
        assert result.returncode == 2
        assert "no repro daemon" in result.stderr
