"""The correctness oracle: expected rounds, bits and output digests.

``oracle.json`` holds one entry per instance any workload can run (every
pool instance and the held-out ones), keyed by the instance's catalog
config, fault plan and resilience wrapper — not by engine, because every
engine must agree with the reference semantics.  An entry holds rounds,
bits, message count, a digest of the per-node outputs, a digest of the
common output (``per_node`` when there is none) and a digest of the
postprocess value.  Entries come from the
reference engine, whose seeded fault plans replay identically; where
that would take minutes (fan-out at n=2048 over 64 rounds) the fast
engine, which CI gates against the reference, produces them instead,
and the entry records its ``source``.  Fault-free rounds and bits were
checked against the ``repro.analysis.symbolic`` closed form wherever one
is declared for the config (``symbolic: true``).

Add entries for new instances, or recompute all of them with ``--all``
(a few minutes), from the checkout root::

    python3 perfbench/oracle.py [--all]
"""

from __future__ import annotations

import json
import sys
import time

from common import (
    BENCH_DIR,
    digest,
    load_json,
    outputs_digest,
    use_program_source,
)

ORACLE_FILE = "oracle.json"


def key(config: dict, plan: "str | None" = None, resilient: bool = False) -> str:
    """The oracle key of one instance."""
    return json.dumps(
        {"config": config, "plan": plan, "resilient": resilient}, sort_keys=True
    )


class Oracle:
    """Looks up expected values and compares results against them."""

    def __init__(self) -> None:
        self.entries = load_json(BENCH_DIR / ORACLE_FILE)["entries"]

    def expect(self, config: dict, plan=None, resilient=False) -> dict:
        k = key(config, plan, resilient)
        try:
            return self.entries[k]
        except KeyError:
            raise KeyError(f"no oracle entry for {k}; regenerate oracle.json") from None

    @staticmethod
    def result_ok(expected: dict, result, value) -> bool:
        """Outputs, rounds, bits and message count of a ``RunResult``,
        and the postprocess ``value`` returned beside it."""
        if result is None or digest(value) != expected["value"]:
            return False
        if result.rounds != expected["rounds"]:
            return False
        if result.total_message_bits != expected["message_bits"]:
            return False
        if result.bulk_bits != expected["bulk_bits"]:
            return False
        metrics = result.metrics
        if metrics is not None and metrics.messages != expected["messages"]:
            return False
        return outputs_digest(result.outputs) == expected["digest"]

    @staticmethod
    def reply_ok(expected: dict, reply: dict) -> bool:
        """The same surface for a daemon ``run`` reply.

        A reply carries the common output but not per-node outputs, so
        a reply for an instance with per-node outputs cannot be checked
        and never counts as correct.
        """
        if expected["per_node"]:
            return False
        if digest(reply.get("value")) != expected["value"]:
            return False
        if reply.get("rounds") != expected["rounds"]:
            return False
        if reply.get("total_message_bits") != expected["message_bits"]:
            return False
        if reply.get("bulk_bits") != expected["bulk_bits"]:
            return False
        summary = reply.get("metrics")
        if summary is not None and summary.get("messages") != expected["messages"]:
            return False
        return digest(reply.get("common_output")) == expected["common"]


def _entry(result, value, source: str) -> dict:
    try:
        common, per_node = result.common_output(), False
    except Exception:  # per-node outputs: the daemon replies None
        common, per_node = None, True
    return {
        "rounds": result.rounds,
        "message_bits": result.total_message_bits,
        "bulk_bits": result.bulk_bits,
        "messages": result.metrics.messages,
        "digest": outputs_digest(result.outputs),
        "common": digest(common),
        "per_node": per_node,
        "value": digest(value),
        "source": source,
    }


def _symbolic_ok(config: dict, result) -> "bool | None":
    """Compare with the declared closed form; ``None`` if none applies."""
    from repro.analysis.symbolic import get_cost_model
    from repro.engine import COST_DECLARATIONS

    name = COST_DECLARATIONS.get(config["algorithm"])
    if name is None:
        return None
    model = get_cost_model(name)
    pinned = model.config(config)
    if any(pinned.get(k) != config.get(k) for k in model.domain):
        return None  # the closed form needs a config this instance lacks
    point = model.evaluate(pinned)
    if (point.rounds, point.message_bits, point.bulk_bits) != (
        result.rounds,
        result.total_message_bits,
        result.bulk_bits,
    ):
        raise SystemExit(f"closed form disagrees with the engine at {config}: {point}")
    return True


def generate(keep: dict) -> dict:
    """Run every instance not in ``keep`` and return the oracle document."""
    from repro.engine import ExecutionSpec, catalog_factory, run_spec
    from repro.faults import resilient as wrap

    import workloads

    entries = {}
    started = time.perf_counter()
    for inst in workloads.all_instances():
        k = key(inst["config"], inst["plan"], inst["resilient"])
        if k in entries:
            continue
        if k in keep:
            entries[k] = keep[k]
            continue
        source = inst.get("source", "reference")
        spec = catalog_factory(dict(inst["config"]))
        if inst["resilient"]:
            spec.program = wrap(spec.program)
        engine = None if source == "reference" else source
        result, value = run_spec(
            spec, execution=ExecutionSpec(engine=engine, fault_plan=inst["plan"])
        )
        if engine is None and result.metrics.engine != "reference":
            raise SystemExit(f"default engine is not the reference: {inst}")
        entry = _entry(result, value, source)
        if inst["plan"] is None and not inst["resilient"]:
            entry["symbolic"] = bool(_symbolic_ok(inst["config"], result))
        entries[k] = entry
        print(
            f"{len(entries):4d} {time.perf_counter() - started:7.1f}s {k}",
            file=sys.stderr,
            flush=True,
        )
    return {"version": 1, "entries": dict(sorted(entries.items()))}


if __name__ == "__main__":
    use_program_source()
    # --all recomputes every entry; by default existing entries are kept.
    keep = {} if "--all" in sys.argv[1:] else Oracle().entries
    doc = generate(keep)
    with open(BENCH_DIR / ORACLE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc['entries'])} entries", file=sys.stderr)
