"""E9 — Theorem 9: k-dominating set in O(n^(1-1/k)) rounds.

Round/load scaling for k in {2, 3} over n = g^k grid points (exact group
sizes), fitted load exponents against the theorem's 1 - 1/k (the load of
the busiest node is n * n^(1-1/k) payload bits), plus correctness
against brute force at small sizes.
"""

from conftest import measured_load

from repro.algorithms import k_dominating_set
from repro.analysis import fit_metric_exponent
from repro.engine import RunSpec, run_sweep
from repro.problems import generators as gen
from repro.problems import reference as ref


def kds_planted_point(config: dict) -> RunSpec:
    """Sweep factory: one planted k-DS instance per (n, k) grid point."""
    n, k = config["n"], config["k"]
    g, _ = gen.planted_dominating_set(n, k, 0.1, seed=n)

    def prog(node):
        return (yield from k_dominating_set(node, k))

    def post(result):
        found, witness = result.common_output()
        return {
            "found": found,
            "witness dominates": ref.is_dominating_set(g, witness)
            if found
            else None,
        }

    return RunSpec(
        program=prog, node_input=g, bandwidth_multiplier=2, postprocess=post
    )


def kds_random_point(config: dict) -> RunSpec:
    """Sweep factory: k-DS decision vs brute force on a random graph."""
    g = gen.random_graph(config["n"], 0.3, config["seed"])
    k = config["k"]

    def prog(node):
        return (yield from k_dominating_set(node, k))

    def post(result):
        found, _ = result.common_output()
        return found == ref.has_dominating_set(g, k)

    return RunSpec(
        program=prog, node_input=g, bandwidth_multiplier=2, postprocess=post
    )


def scaling(k: int, ns: list[int]) -> list[dict]:
    outcomes = run_sweep(
        kds_planted_point,
        [{"k": k, "n": n} for n in ns],
        workers=2,
        execution="fast",
    )
    return [
        {
            "k": k,
            "n": o.config["n"],
            "rounds": o.result.rounds,
            "payload load (bits)": measured_load(o.result),
            "found": o.value["found"],
            "witness dominates": o.value["witness dominates"],
            "metrics": o.result.metrics,
        }
        for o in outcomes
    ]


def correctness_sweep(k: int = 2) -> int:
    outcomes = run_sweep(
        kds_random_point,
        [{"n": 9, "k": k, "seed": seed} for seed in range(8)],
        workers=2,
        execution="fast",
    )
    return sum(1 for o in outcomes if not o.value)


def test_e9_kds_upper(benchmark, report):
    rows2 = scaling(2, [16, 36, 64, 100, 144])
    rows3 = benchmark.pedantic(
        scaling, args=(3, [27, 64, 125, 216]), rounds=1, iterations=1
    )

    fits = []
    for k, rows in ((2, rows2), (3, rows3)):
        # exponent comes straight from the collected RunMetrics
        fit = fit_metric_exponent([r.pop("metrics") for r in rows])
        fits.append(
            {
                "k": k,
                "load exponent (fit)": round(fit.slope, 3),
                "implied delta (= fit - 1)": round(fit.slope - 1, 3),
                "Theorem 9 bound 1 - 1/k": round(1 - 1 / k, 3),
                "r^2": round(fit.r_squared, 4),
            }
        )

    report(rows2 + rows3, title="E9 / Theorem 9 - k-DS scaling")
    report(fits, title="E9 - fitted exponents vs 1 - 1/k")
    wrong = correctness_sweep()
    report(
        [{"random 9-node graphs": 8, "wrong decisions": wrong}],
        title="E9 - correctness vs brute force",
    )

    assert wrong == 0
    assert all(r["found"] for r in rows2 + rows3)  # planted instances
    assert all(r["witness dominates"] for r in rows2 + rows3)
    for f in fits:
        # shape agreement: within 0.15 of the theorem's exponent
        assert abs(f["implied delta (= fit - 1)"] - f["Theorem 9 bound 1 - 1/k"]) < 0.15
