"""Self-tests of the benchmark harness (not part of the program's suite).

From the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench/selftest -q

They check process hygiene (the daemon and the sweep pool stop, no child
process outlives a run), run every workload at a tiny size, and check
that the simulated counts of the traced run repeat exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from calib import Calibrator  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from common import DEFINITION, digest  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def live_children() -> list[int]:
    """Pids of this process's children that have not exited."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def tiny_pass(workload):
    """One cycle of at most three ops; stops every process it started."""
    calibrator = Calibrator(workload.cores)
    try:
        workload.setup()
        workload.ops = workload.ops[:3]
        return run.timed_pass(workload, 0.01, NullTracer(), calibrator)
    finally:
        workload.close()
        calibrator.close()


@pytest.mark.parametrize("name", [w["name"] for w in DEFINITION["workloads"]])
def test_tiny_pass_is_correct_and_leaves_no_process(name):
    if name == "columnar-large":
        pytest.skip("covered by test_columnar_smallest_op (the big ops take seconds)")
    before = set(live_children())
    records = tiny_pass(run.make(name, 3, NullTracer()))
    assert records and all(r.ok == r.count for r in records), [
        (r.label, r.error) for r in records if r.ok < r.count
    ]
    assert set(live_children()) <= before


def test_columnar_smallest_op():
    workload = run.make("columnar-large", 3, NullTracer())
    workload.OPS = tuple(op for op in workload.OPS if op.label == "fanout-bandwidth")
    assert [r.ok for r in tiny_pass(workload)] == [1]


def test_serve_daemon_stops_and_temp_files_go():
    workload = run.make("serve-mixed", 5, NullTracer())
    workload.setup()
    proc, tmp = workload.proc, workload.tmp
    assert proc.poll() is None and os.path.isdir(tmp)
    workload.close()
    assert proc.poll() is not None
    assert not os.path.exists(tmp)


def test_mismatch_counts_as_failed_op():
    workload = run.make("chaos-explicit", 3, NullTracer())
    workload.setup()
    op = workload.ops[0]
    real = op.check
    op.check = lambda out: real((None, None))
    workload.setup = lambda: None
    workload.ops = [op]
    assert [r.ok for r in tiny_pass(workload)] == [0]


def test_reply_check_refuses_tampered_and_per_node_replies():
    workload = run.make("serve-mixed", 5, NullTracer())
    workload.setup()
    try:
        config = workload.primed[0]
        reply = workload._request(config, fresh=False)
        per_node = {"algorithm": "apsp", "n": 12, "seed": 0}
        per_node_reply = workload._request(per_node, fresh=False)
    finally:
        workload.close()
    check = workload.oracle.reply_ok
    expected = workload.oracle.expect(config)
    assert check(expected, reply)
    assert not check(expected, dict(reply, common_output="tampered"))
    assert not check(expected, dict(reply, value=0))
    assert not check(expected, dict(reply, rounds=reply["rounds"] + 1))
    per_node_expected = workload.oracle.expect(per_node)
    assert per_node_expected["per_node"]
    assert not check(per_node_expected, per_node_reply)


def test_serve_points_have_checkable_replies():
    workload = run.make("serve-mixed", 5, NullTracer())
    primed, misses = workload._points()
    for config in primed + misses:
        assert not workload.oracle.expect(config)["per_node"], config


def test_peak_rss_leaves_out_the_calibration_helpers():
    calibrator = Calibrator(2)
    try:
        workload = run.make("serve-mixed", 5, NullTracer())
        with pytest.raises(RuntimeError, match="no program process"):
            run.program_peak_rss_mb(workload, calibrator)
        workload = run.make("chaos-explicit", 5, NullTracer())
        own = run._peak_kib("self") / 1024
        assert run.program_peak_rss_mb(workload, calibrator) == own
    finally:
        calibrator.close()


def test_spans_self_time():
    tracer = Tracer("w")
    with tracer.span("outer", op=tracer.new_op()):
        with tracer.span("inner"):
            pass
    table = tracer.self_times()
    assert table["outer"]["self_s"] <= table["outer"]["total_s"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["op"] == 1


def test_held_out_seed_never_drawn_by_other_seeds():
    pool, k = 16, 8
    held = set(workloads.pick("w", "c", workloads.HELD_OUT_SEED, k, pool))
    for seed in range(200):
        assert not held & set(workloads.pick("w", "c", seed, k, pool))


def test_oracle_covers_every_instance_and_closed_forms_hold():
    entries = oracle.Oracle().entries
    for inst in workloads.all_instances():
        key = oracle.key(inst["config"], inst["plan"], inst["resilient"])
        assert key in entries, key
    declared = [e for e in entries.values() if "symbolic" in e]
    assert declared and sum(e["symbolic"] for e in declared) > len(declared) // 2


def test_canonical_digest_matches_json_round_trip():
    import numpy as np

    value = (True, np.array([1, 2]), (np.int64(3), None))
    assert digest(value) == digest(json.loads(json.dumps([True, [1, 2], [3, None]])))


def test_traced_counts_repeat_exactly():
    def counts():
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "chaos-explicit",
             "--seed", "4", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        return {
            k: v["value"]
            for k, v in metrics.items()
            if ".sim." in k or (".faults." in k and not k.endswith("_s"))
        }

    first, second = counts(), counts()
    assert first and first == second
