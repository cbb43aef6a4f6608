"""Golden digests of the generator catalog programs.

The differential matrix compares engines with each other, so a change
in the generator code that the reference and fast engines share (the
collectives, routing, the bit codecs) moves both columns together and
goes unseen there.  This test pins each cell instead: one SHA-256 per
(entry, n, engine, fault plan) over the canonical JSON of the outputs,
rounds, bits, ``RunMetrics`` (without the timing ``phases``) and
transcripts, or over the error type and text when the run raises.

The table in ``golden_digests.json`` was generated before the
collectives folded chunks into ints; regenerate it only for a change
that is meant to alter what the catalog programs send or return::

    PYTHONPATH=src python tests/engine/test_golden_digests.py \\
        > tests/engine/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ExecutionSpec
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec

#: Two small sizes per entry: the nine ``sweep-catalog`` entries of
#: perfbench plus relay ``routing`` (the collectives' header phase).
SIZES = {
    "kds": (8, 12),
    "kvc": (8, 16),
    "subgraph": (8, 16),
    "kis": (8, 12),
    "matmul": (8, 12),
    "apsp": (6, 8),
    "sorting": (8, 12),
    "bfs": (8, 16),
    "broadcast": (8, 16),
    "routing": (8, 12),
}
ENGINES = ("reference", "fast")
#: Fault-free plus the six delivery plans of ``test_delivery.py``.
PLANS = (
    None,
    "drop=0.3,seed=1",
    "drop=0.2,link=0.1,crash=0.1,restart=2,seed=2",
    "byzantine=selective+limited,f=3,seed=4,byz_rate=0.5,limit=3",
    "drop=0.2,corrupt=0.2,dup=0.3,seed=3",
    "byzantine=equivocate+forge+selective+limited,f=3,seed=5,byz_rate=0.4,limit=4",
    "dup=0.5,byzantine=forge,f=4,seed=6,byz_rate=0.6",
)
SEED = 1

TABLE = Path(__file__).with_name("golden_digests.json")


def _cells() -> list[tuple[str, int, str, str | None]]:
    return [
        (name, n, engine, plan)
        for name, ns in SIZES.items()
        for n in ns
        for engine in ENGINES
        for plan in PLANS
    ]


def _key(name: str, n: int, engine: str, plan: str | None) -> str:
    return f"{name}-{n}-{engine}-{plan or 'fault-free'}"


def _canon(x):
    """A JSON-ready form of a run output (arrays as ``tolist()``)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(x.items())]
    return x


def digest(name: str, n: int, engine: str, plan: str | None) -> str:
    spec = catalog_factory({"algorithm": name, "n": n, "seed": SEED})
    execution = ExecutionSpec(engine=engine, fault_plan=plan, transcripts=True)
    try:
        result, _ = run_spec(spec, execution=execution)
    except Exception as exc:  # the error is part of the pinned behaviour
        record = {"error": type(exc).__name__, "text": str(exc)}
    else:
        record = result.to_dict()
        record["outputs"] = _canon(record["outputs"])
        record["metrics"].pop("phases", None)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _table() -> dict[str, str]:
    return json.loads(TABLE.read_text())


def test_table_covers_every_cell():
    assert sorted(_table()) == sorted(_key(*cell) for cell in _cells())


@pytest.mark.parametrize("name", sorted(SIZES))
def test_generator_twins_match_their_golden_digests(name):
    table = _table()
    moved = [
        key
        for cell in _cells()
        if cell[0] == name
        for key in [_key(*cell)]
        if digest(*cell) != table[key]
    ]
    assert not moved, f"cells whose digest moved: {moved}"


if __name__ == "__main__":
    json.dump(
        {_key(*cell): digest(*cell) for cell in _cells()},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
