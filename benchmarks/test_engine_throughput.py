"""Engine micro-benchmarks — performance tracking for the simulator.

Not a paper experiment: the acceptance gates here (fast engine >= 2x on
fan-out, default-on metrics <= 10% overhead) guard the throughput the
exponent experiments (E9-E12) depend on.  The timed workload and the
timing loop both come from :mod:`repro.bench` — the same implementation
the ``repro bench`` suite and the CI perf ratchet use — so there is one
definition of "how we time the engine" in the repository.
"""

import gc

import numpy as np

from repro.algorithms.common import decode_bool_row, encode_bool_row
from repro.bench import all_to_all_chatter, compare_bench, measure, run_suite
from repro.clique.bits import BitString
from repro.clique.network import CongestedClique
from repro.clique.routing import route
from repro.engine import ExecutionSpec, FastEngine
from repro.problems import generators as gen


def test_message_fanout_throughput(benchmark):
    n, rounds = 64, 16

    def work():
        return all_to_all_chatter(n, rounds)

    result = benchmark(work)
    assert result.rounds == rounds
    assert result.total_message_bits == n * (n - 1) * rounds


def test_message_fanout_reference_engine(benchmark):
    """Fan-out on the explicit reference backend (baseline for the
    fast-engine speedup tracked in the benchmark history)."""
    n, rounds = 64, 16

    def work():
        return all_to_all_chatter(n, rounds, execution="reference")

    result = benchmark(work)
    assert result.rounds == rounds
    assert result.total_message_bits == n * (n - 1) * rounds


def test_message_fanout_fast_engine(benchmark):
    """Fan-out on the fast backend (check="bandwidth", transcripts off)."""
    n, rounds = 64, 16
    engine = FastEngine(check="bandwidth")

    def work():
        return all_to_all_chatter(n, rounds, execution=engine)

    result = benchmark(work)
    assert result.rounds == rounds
    assert result.total_message_bits == n * (n - 1) * rounds


def test_fast_engine_speedup_on_fanout():
    """Acceptance gate: the fast engine is >= 2x faster than the
    reference engine on the n=64, 16-round all-to-all fan-out with
    check="bandwidth" and transcripts off (best-of-5 wall clock)."""
    n, rounds = 64, 16
    engine = FastEngine(check="bandwidth")

    ref = measure(lambda: all_to_all_chatter(n, rounds), repeats=5, warmup=0)
    fast = measure(
        lambda: all_to_all_chatter(n, rounds, execution=engine),
        repeats=5,
        warmup=0,
    )
    # Identical observable results ...
    assert fast.result.rounds == ref.result.rounds
    assert fast.result.total_message_bits == ref.result.total_message_bits
    assert fast.result.sent_bits == ref.result.sent_bits
    assert fast.result.received_bits == ref.result.received_bits
    # ... at least twice as fast.
    assert fast.best * 2 <= ref.best, (
        f"fast engine not 2x faster: reference {ref.best * 1e3:.1f}ms, "
        f"fast {fast.best * 1e3:.1f}ms"
    )


def test_metrics_overhead_on_fanout():
    """Acceptance gate: default-on RunMetrics collection costs <= 10%
    wall clock on the fast engine's batched fan-out hot path, relative
    to an explicit ``observer=False`` run.

    Measurement design, chosen so scheduler noise cannot masquerade as
    collector overhead:

    - The two arms are timed in *interleaved pairs* so a load spike or
      frequency shift mid-test lands on both arms alike.
    - GC is disabled across the timed region (and restored after): the
      observed arm allocates more, so collection pauses would otherwise
      bias it specifically.
    - The overhead ratio is estimated independently in three blocks of
      ten pairs (best-of-10 per arm per block) and the gate takes the
      *cleanest* block.  Noise only ever inflates a block's ratio, so
      the minimum over blocks is the tightest observed bound on the
      true overhead — the same best-of-k logic the suite applies to a
      single wall-clock quantity.
    """
    n, rounds = 64, 16
    engine = FastEngine(check="bandwidth")

    block_ratios: list[float] = []
    blocks: list[tuple[float, float]] = []
    off_result = on_result = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            off_times: list[float] = []
            on_times: list[float] = []
            for _ in range(10):
                timing = measure(
                    lambda: all_to_all_chatter(
                        n,
                        rounds,
                        execution=ExecutionSpec(engine=engine, observer=False),
                    ),
                    repeats=1,
                    warmup=0,
                )
                off_times += timing.times
                off_result = timing.result
                timing = measure(
                    lambda: all_to_all_chatter(n, rounds, execution=engine),
                    repeats=1,
                    warmup=0,
                )
                on_times += timing.times
                on_result = timing.result
            blocks.append((min(off_times), min(on_times)))
            block_ratios.append(min(on_times) / min(off_times))
    finally:
        gc.enable()
    assert off_result.metrics is None
    assert on_result.metrics is not None
    assert on_result.metrics.rounds == rounds
    assert on_result.metrics.message_bits == n * (n - 1) * rounds
    best_block = min(range(3), key=block_ratios.__getitem__)
    off_best, on_best = blocks[best_block]
    assert on_best <= off_best * 1.10, (
        f"default-on metrics cost > 10% in every block: "
        f"ratios {[f'{r:.3f}' for r in block_ratios]}, cleanest block "
        f"off {off_best * 1e3:.2f}ms, on {on_best * 1e3:.2f}ms"
    )


def test_bench_suite_repeated_runs_agree_within_stated_tolerance():
    """The bench suite's acceptance criterion: same machine, same tree
    -> the deterministic payloads are identical and the medians agree
    within a generous wall-clock tolerance.  A wall-clock comparison, so
    it lives here beside the other timing gates rather than in tier-1."""
    names = ["codec/bool-row", "bracha-broadcast"]
    first = run_suite(names, quick=True, repeats=3)
    second = run_suite(names, quick=True, repeats=3)
    for name in names:
        assert first.results[name].info == second.results[name].info
        assert first.results[name].params == second.results[name].params
    verdict = compare_bench(first, second, tolerance=3.0)
    assert verdict.ok, verdict.summary()


def test_bool_row_codec_throughput(benchmark):
    rng = gen.rng_from(1)
    row = rng.random(4096) < 0.5

    def work():
        bits = encode_bool_row(row)
        back = decode_bool_row(bits, row.size)
        return back

    back = benchmark(work)
    assert np.array_equal(back, row)


def test_relay_router_throughput(benchmark):
    n = 16
    payload = BitString.zeros(512)

    def work():
        def prog(node):
            flows = {(node.id + 1) % n: payload, (node.id + 5) % n: payload}
            got = yield from route(node, flows, scheme="relay")
            return sum(len(b) for b in got.values())

        clique = CongestedClique(n, bandwidth_multiplier=2, max_rounds=10**5)
        return clique.run(prog)

    result = benchmark(work)
    assert all(v == 1024 for v in result.outputs.values())
