"""E10 — Theorem 11: k-vertex cover in O(k) rounds.

Two sweeps: rounds vs n at fixed k (flat — no n-dependence at all), and
rounds vs k at fixed n (growing like ceil((log k + k log n) / B) = O(k)),
plus correctness against brute force.
"""

from repro.algorithms import k_vertex_cover
from repro.engine import RunSpec, run_sweep
from repro.problems import generators as gen
from repro.problems import reference as ref


def kvc_planted_point(config: dict) -> RunSpec:
    """Sweep factory: planted k-VC instance per (n, k, p, seed) point."""
    n, k = config["n"], config["k"]
    g, _ = gen.planted_vertex_cover(n, k, config["p"], seed=config["seed"])

    def prog(node):
        return (yield from k_vertex_cover(node, k))

    def post(result):
        found, witness = result.common_output()
        return {
            "found": found,
            "cover valid": ref.is_vertex_cover(g, witness) if found else None,
        }

    return RunSpec(
        program=prog, node_input=g, bandwidth_multiplier=2, postprocess=post
    )


def kvc_random_point(config: dict) -> RunSpec:
    """Sweep factory: k-VC decision vs brute force on a random graph."""
    g = gen.random_graph(config["n"], 0.3, config["seed"])
    k = config["k"]

    def prog(node):
        return (yield from k_vertex_cover(node, k))

    def post(result):
        found, witness = result.common_output()
        ok = found == ref.has_vertex_cover(g, k)
        if found and not ref.is_vertex_cover(g, witness):
            ok = False
        return ok

    return RunSpec(
        program=prog, node_input=g, bandwidth_multiplier=2, postprocess=post
    )


def n_sweep(k: int = 3) -> list[dict]:
    outcomes = run_sweep(
        kvc_planted_point,
        [{"k": k, "n": n, "p": 0.4, "seed": n} for n in (16, 32, 64, 128, 256)],
        workers=2,
        execution="fast",
    )
    return [
        {
            "k": k,
            "n": o.config["n"],
            "rounds": o.result.rounds,
            "found": o.value["found"],
            "cover valid": o.value["cover valid"],
        }
        for o in outcomes
    ]


def k_sweep(n: int = 64) -> list[dict]:
    # k capped at 12: the local kernel solve is a 2^k bounded search
    # tree, and the planted instances get adversarial beyond that.
    outcomes = run_sweep(
        kvc_planted_point,
        [{"k": k, "n": n, "p": 0.35, "seed": k} for k in (2, 4, 8, 12)],
        workers=2,
        execution="fast",
    )
    return [
        {
            "n": n,
            "k": o.config["k"],
            "rounds": o.result.rounds,
            "found": o.value["found"],
        }
        for o in outcomes
    ]


def correctness() -> int:
    outcomes = run_sweep(
        kvc_random_point,
        [{"n": 9, "k": 3, "seed": seed} for seed in range(8)],
        workers=2,
        execution="fast",
    )
    return sum(1 for o in outcomes if not o.value)


def test_e10_kvc_rounds(benchmark, report):
    by_n = benchmark.pedantic(n_sweep, rounds=1, iterations=1)
    by_k = k_sweep()
    wrong = correctness()

    report(by_n, title="E10 / Theorem 11 - rounds vs n at k=3 (flat)")
    report(by_k, title="E10 / Theorem 11 - rounds vs k at n=64 (O(k))")
    report(
        [{"random graphs": 8, "wrong": wrong}],
        title="E10 - correctness vs brute force",
    )

    assert wrong == 0
    # flat in n: 16x more nodes, rounds within +/- 2 (log n enters only
    # through the bandwidth denominator, shrinking rounds if anything)
    assert max(r["rounds"] for r in by_n) <= min(r["rounds"] for r in by_n) + 2
    # linear-ish in k: monotone and boundedly super-linear
    rounds_k = [r["rounds"] for r in by_k]
    assert rounds_k == sorted(rounds_k)
    assert rounds_k[-1] <= 4 * 6 * rounds_k[0] + 8  # O(k) at k ratio 6
    assert all(r["found"] for r in by_n + by_k)
