"""Drift control: a fixed calibration kernel timed between op slices.

The host's speed drifts by tens of percent over minutes.  The benchmark
therefore runs this kernel before and after every slice of timed work
and reports each slice's time scaled by ``nominal / measured`` kernel
time, beside the raw seconds.  The kernel mixes an interpreter loop,
scattered reads of objects spread beyond the CPU caches and a numpy
pass, the kinds of work the workloads do.  It imports nothing from the
program, so no program change can move it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from common import SETTINGS

_DATA: dict = {}


def _data() -> dict:
    """The kernel's fixed inputs, built once per process."""
    if not _DATA:
        rng = np.random.default_rng(12345)
        size = 300_000
        _DATA["objects"] = [(i, i * 7 % 1000, str(i)) for i in range(size)]
        _DATA["order"] = rng.permutation(size)[:24_000].tolist()
        _DATA["table"] = {i: [i, i + 1] for i in range(size // 3)}
        _DATA["keys"] = rng.integers(0, size // 3, 12_000).tolist()
        _DATA["big"] = rng.integers(0, 1 << 62, 1 << 20, dtype=np.uint64)
    return _DATA


def kernel() -> int:
    """One fixed unit of mixed work (about 15 ms on a 2020s core).

    Three parts: an integer loop in the interpreter, scattered reads of
    Python objects spread over tens of MiB (the access pattern of
    per-message delivery), and a numpy pass over an 8 MiB array.
    """
    data = _data()
    acc = 0
    for i in range(20_000):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
    objects = data["objects"]
    for j in data["order"]:
        acc += objects[j][1]
    table = data["table"]
    for k in data["keys"]:
        acc += table[k][0]
    folded = np.bitwise_xor.reduce(data["big"] ^ np.uint64(acc & 0xFF))
    return acc + int(folded & np.uint64(1))


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Times the kernel on as many cores as the workload keeps busy.

    The kernel runs only in helper processes, fresh interpreters that
    share no memory with the benchmark process, so its tens of MiB of
    data stay out of the process whose peak RSS is reported and out of
    the pool workers that process forks.  A workload on two cores (the
    sweep pool's workers; the serve client and daemon taking turns) is
    slowed by contention on either core: two helpers run the kernel at
    the same moment and a sample is the mean of the two.  The in-process
    workloads are tracked better by one helper alone: on the same runs,
    the two-core sample widened their spread about twofold and the
    one-core sample widened the sweep's.
    """

    def __init__(self, cores: int) -> None:
        #: Every sample taken, for the run detail.
        self.log: list[float] = []
        cores = max(1, min(cores, len(os.sched_getaffinity(0))))
        self.helpers = [
            subprocess.Popen(
                [sys.executable, __file__, "--helper"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(cores)
        ]
        self.sample()  # each helper builds its data before its first timing

    @property
    def pids(self) -> set[int]:
        return {helper.pid for helper in self.helpers}

    def sample(self, reps: int = 1) -> float:
        """Median seconds of ``reps`` kernel runs.

        A lone helper runs on the core this process last ran on, which
        is idle while this process waits for the timing, so the kernel
        sees the same core as the work it calibrates.
        """
        request = f"{_current_cpu()}\n" if len(self.helpers) == 1 else "-\n"
        times = []
        for _ in range(reps):
            for helper in self.helpers:
                helper.stdin.write(request)
                helper.stdin.flush()
            own = [float(helper.stdout.readline()) for helper in self.helpers]
            times.append(sum(own) / len(own))
        self.log.append(statistics.median(times))
        return self.log[-1]

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait(timeout=30)
        self.helpers = []


def _current_cpu() -> int:
    """The CPU this process last ran on (field 39 of ``/proc/self/stat``)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def nominal() -> float:
    """The recorded kernel time all scaled timings are expressed in."""
    return float(SETTINGS["calibration"]["nominal_s"])


class Meter:
    """Cuts a stream of timed records into slices and calibrates each.

    Call :meth:`add` after each timed op; once the open slice holds at
    least ``slice_s`` raw seconds the kernel runs again and every record
    of the slice gets ``scale = nominal / mean(kernel before, after)``.
    A slice that one long op made several times ``slice_s`` long takes
    the median of up to five kernel runs, so few long slices do not
    leave the result to a few noisy samples.  :meth:`close` calibrates
    the last, partial slice.
    """

    def __init__(self, calibrator: Calibrator, slice_s: float) -> None:
        self.calibrator = calibrator
        self.slice_s = slice_s
        self.nominal = nominal()
        self.samples = [calibrator.sample()]
        self._open: list = []
        self._open_raw = 0.0

    def add(self, record) -> None:
        self._open.append(record)
        self._open_raw += record.raw
        if self._open_raw >= self.slice_s:
            self.close()

    def close(self) -> None:
        if not self._open:
            return
        reps = min(5, 1 + int(self._open_raw / self.slice_s))
        after = self.calibrator.sample(reps)
        scale = self.nominal / ((self.samples[-1] + after) / 2)
        for record in self._open:
            record.scale = scale
        self.samples.append(after)
        self._open = []
        self._open_raw = 0.0


def timed_scaled(calibrator: Calibrator, fn) -> tuple[float, float]:
    """Run ``fn()`` between two kernel samples; ``(raw_s, scaled_s)``."""
    before = calibrator.sample(3)
    t0 = time.perf_counter()
    fn()
    raw = time.perf_counter() - t0
    after = calibrator.sample(3)
    return raw, raw * nominal() / ((before + after) / 2)


def _helper() -> None:
    """Serve kernel timings, one per request line, until stdin closes.

    A request line names the CPU to run on, or ``-`` for any.
    """
    _data()
    kernel()  # warm-up
    anywhere = os.sched_getaffinity(0)
    for line in sys.stdin:
        cpu = line.strip()
        os.sched_setaffinity(0, anywhere if cpu == "-" else {int(cpu)})
        print(_timed_kernel(), flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--helper"]:
    _helper()
