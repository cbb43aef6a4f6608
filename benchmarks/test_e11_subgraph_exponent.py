"""E11 — the Dolev et al. subgraph-detection bounds used by Figure 1.

Load scaling for triangle detection (= 3-IS detection = size-3
subgraph) and 4-IS / 4-cycle detection; fitted exponents against the
``1 - 2/k`` family (busiest-node payload = n^(2-2/k) bits, implied
delta = slope - 1).
"""

from conftest import measured_load

from repro.algorithms import k_independent_set_detection, triangle_detection
from repro.analysis import fit_metric_exponent
from repro.engine import RunSpec, run_sweep
from repro.problems import generators as gen
from repro.problems import reference as ref


def triangle_point(config: dict) -> RunSpec:
    """Sweep factory: triangle detection vs brute force on G(n, p)."""
    n = config["n"]
    g = gen.random_graph(n, config.get("p", 0.2), seed=n)

    def prog(node):
        return (yield from triangle_detection(node))

    def post(result):
        found, _ = result.common_output()
        return {"found": found, "correct": found == ref.has_triangle(g)}

    return RunSpec(
        program=prog, node_input=g, bandwidth_multiplier=2, postprocess=post
    )


def four_is_point(config: dict) -> RunSpec:
    """Sweep factory: planted 4-IS instance (brute-force reference is
    infeasible at n=256; correctness = the witness is a real 4-IS)."""
    n = config["n"]
    g, _ = gen.planted_independent_set(n, 4, 0.55, seed=n)

    def prog(node):
        return (yield from k_independent_set_detection(node, 4))

    def post(result):
        found, witness = result.common_output()
        return {
            "found": found,
            "correct": bool(found)
            and ref.is_independent_set(g, witness)
            and len(set(witness)) == 4,
        }

    return RunSpec(
        program=prog, node_input=g, bandwidth_multiplier=2, postprocess=post
    )


def _rows(outcomes) -> list[dict]:
    return [
        {
            "n": o.config["n"],
            "rounds": o.result.rounds,
            "payload load (bits)": measured_load(o.result),
            "found": o.value["found"],
            "correct": o.value["correct"],
            "metrics": o.result.metrics,
        }
        for o in outcomes
    ]


def triangle_sweep():
    return _rows(
        run_sweep(
            triangle_point,
            [{"n": n} for n in (27, 64, 125, 216)],
            workers=2,
            execution="fast",
        )
    )


def four_is_sweep():
    return _rows(
        run_sweep(
            four_is_point,
            [{"n": n} for n in (16, 81, 256)],
            workers=2,
            execution="fast",
        )
    )


def test_e11_subgraph_exponent(benchmark, report):
    tri = benchmark.pedantic(triangle_sweep, rounds=1, iterations=1)
    fis = four_is_sweep()

    fits = []
    for name, k, rows, regime in (
        ("triangle (k=3)", 3, tri, "asymptotic"),
        ("4-IS (k=4)", 4, fis, "degenerate (n <= k^k)"),
    ):
        fit = fit_metric_exponent([r.pop("metrics") for r in rows])
        fits.append(
            {
                "problem": name,
                "load exponent (fit)": round(fit.slope, 3),
                "implied delta": round(fit.slope - 1, 3),
                "Dolev et al. 1 - 2/k": round(1 - 2 / k, 3),
                "regime": regime,
            }
        )

    report(tri, title="E11 - triangle detection scaling")
    report(fis, title="E11 - 4-IS detection scaling")
    report(fits, title="E11 - fitted exponents vs 1 - 2/k")

    assert all(r["correct"] for r in tri + fis)
    # Triangle (k=3) is in its asymptotic regime at these sizes and must
    # match 1 - 2/3.  For k=4 the group unions S_v degenerate to all of V
    # until n > k^k = 256 (|S_v| = min(k ceil(n/g), n)), so the measured
    # load is ~n^2 by design — the bench documents the boundary rather
    # than pretending the asymptotic exponent is visible (EXPERIMENTS.md).
    tri_fit = fits[0]
    assert abs(tri_fit["implied delta"] - tri_fit["Dolev et al. 1 - 2/k"]) < 0.2
    fis_fit = fits[1]
    assert fis_fit["load exponent (fit)"] > 1.8  # the documented n^2 regime
