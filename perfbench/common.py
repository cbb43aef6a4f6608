"""Paths, settings and output digests shared by the benchmark modules.

Nothing here imports the program: the benchmark reaches ``repro`` only
through its public API, from the workload modules.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for run artifacts (spans, run detail, daemon sockets).
OUT_DIR = ROOT / ".perfbench_out"


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


SETTINGS = load_json(BENCH_DIR / "settings.json")
#: The benchmark definition: workload names and the metrics to report.
DEFINITION = load_json(ROOT / "BENCHMARK.json")


def program_env() -> dict:
    """Environment for processes that run the program (daemon, probes)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def use_program_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def canon(obj):
    """A JSON-ready normal form of an output value.

    Tuples and arrays become lists, numpy scalars Python scalars and
    dict keys strings (as ``str`` renders them, the way JSON replies
    carry them), so the reference engine's outputs, the fast and
    columnar engines' outputs and the daemon's JSON replies all map to
    the same form.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return canon(obj.tolist())
    if isinstance(obj, np.generic):
        return canon(obj.item())
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canon(x) for x in obj), key=json.dumps)
    if isinstance(obj, dict):
        return sorted(
            ([k if isinstance(k, str) else str(k), canon(v)] for k, v in obj.items()),
            key=json.dumps,
        )
    return repr(obj)


def digest(obj) -> str:
    """Short content hash of :func:`canon` of ``obj``."""
    blob = json.dumps(canon(obj), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def outputs_digest(outputs: dict) -> str:
    """Digest of a run's per-node outputs, in node order."""
    return digest([outputs[v] for v in sorted(outputs)])
