"""E12 — the matrix multiplication / APSP arrows of Figure 1.

Load scaling of the cube-partitioned distributed MM (semiring bound
delta <= 1/3: busiest-node payload ~ n^(4/3) entries) for all three
semirings, plus APSP by repeated (min,+) squaring and transitive
closure by Boolean squaring, verified against the reference solvers.
"""

import numpy as np
from conftest import measured_load

from repro.algorithms.matmul import (
    BOOLEAN,
    MINPLUS,
    RING,
    distributed_matmul,
    run_matmul,
)
from repro.analysis import fit_metric_exponent
from repro.clique.graph import INF
from repro.engine import RunSpec, run_sweep
from repro.problems import generators as gen
from repro.problems import reference as ref
from repro.algorithms.spanner import approx_apsp_via_spanner
from repro.clique.algorithm import run_algorithm
from repro.reductions import apsp_via_minplus_mm, transitive_closure_via_boolean_mm


def ring_mm_point(config: dict) -> RunSpec:
    """Sweep factory: cube-partitioned ring MM on random int matrices."""
    n = config["n"]
    rng = gen.rng_from(n)
    a = rng.integers(0, 8, (n, n)).astype(np.int64)
    b = rng.integers(0, 8, (n, n)).astype(np.int64)
    rows = [(a[i].copy(), b[i].copy()) for i in range(n)]

    def prog(node):
        a_row, b_row = node.input
        row = yield from distributed_matmul(node, a_row, b_row, RING, 8)
        return row

    def post(result):
        c = np.stack([result.outputs[i] for i in range(n)])
        return np.array_equal(c, a @ b)

    return RunSpec(
        program=prog,
        node_input=rows,
        n=n,
        bandwidth_multiplier=2,
        postprocess=post,
    )


def mm_sweep() -> list[dict]:
    outcomes = run_sweep(
        ring_mm_point,
        [{"n": n} for n in (27, 64, 125, 216)],
        workers=2,
        execution="fast",
    )
    return [
        {
            "semiring": "ring",
            "n": o.config["n"],
            "rounds": o.result.rounds,
            "payload load (bits)": measured_load(o.result),
            "correct": o.value,
            "metrics": o.result.metrics,
        }
        for o in outcomes
    ]


def semiring_comparison(n: int = 64) -> list[dict]:
    rng = gen.rng_from(7)
    rows = []
    a = (rng.random((n, n)) < 0.3).astype(np.int64)
    b = (rng.random((n, n)) < 0.3).astype(np.int64)
    c, result = run_matmul(a, b, BOOLEAN)
    rows.append(
        {
            "semiring": "boolean",
            "n": n,
            "rounds": result.rounds,
            "correct": np.array_equal(c.astype(bool), ref.boolean_matmul(a, b)),
        }
    )
    aw = rng.integers(0, 30, (n, n)).astype(np.int64)
    bw = rng.integers(0, 30, (n, n)).astype(np.int64)
    c, result = run_matmul(aw, bw, MINPLUS, max_entry=30)
    rows.append(
        {
            "semiring": "minplus",
            "n": n,
            "rounds": result.rounds,
            "correct": np.array_equal(
                np.minimum(c, INF), np.minimum(ref.minplus_matmul(aw, bw), INF)
            ),
        }
    )
    ar = rng.integers(0, 8, (n, n)).astype(np.int64)
    br = rng.integers(0, 8, (n, n)).astype(np.int64)
    c, result = run_matmul(ar, br, RING, max_entry=8)
    rows.append(
        {
            "semiring": "ring",
            "n": n,
            "rounds": result.rounds,
            "correct": np.array_equal(c, ar @ br),
        }
    )
    return rows


def apsp_and_tc() -> list[dict]:
    rows = []
    for n in (16, 32):
        g = gen.random_weighted_graph(n, 0.3, 15, seed=n)
        dist, rounds = apsp_via_minplus_mm(g, max_weight=15)
        want = ref.apsp_matrix(g)
        rows.append(
            {
                "problem": "APSP (log n minplus squarings)",
                "n": n,
                "total rounds": rounds,
                "correct": np.array_equal(
                    np.minimum(dist, INF), np.minimum(want, INF)
                ),
            }
        )
        gu = gen.random_graph(n, 0.15, seed=n)
        reach, rounds = transitive_closure_via_boolean_mm(gu)
        rows.append(
            {
                "problem": "transitive closure (boolean squarings)",
                "n": n,
                "total rounds": rounds,
                "correct": np.array_equal(
                    reach, ref.transitive_closure(gu.adjacency)
                ),
            }
        )
    return rows


def spanner_rows() -> list[dict]:
    """Section 7's constant-approximation escape hatch: 3-approx
    unweighted APSP via the Baswana-Sen 3-spanner, gathered and solved
    locally — sublinear communication on dense graphs."""
    rows = []
    for n in (32, 64):
        g = gen.random_graph(n, 0.5, seed=n)

        def prog(node):
            row = yield from approx_apsp_via_spanner(node, seed=n)
            return row

        result = run_algorithm(prog, g, bandwidth_multiplier=2)
        d_g = ref.apsp_matrix(g)
        ok = True
        for i in range(n):
            approx = result.outputs[i]
            for j in range(n):
                if d_g[i, j] < INF and not (
                    d_g[i, j] <= approx[j] <= 3 * d_g[i, j]
                ):
                    ok = False
        rows.append(
            {
                "problem": "3-approx APSP (spanner)",
                "n": n,
                "rounds": result.rounds,
                "stretch <= 3 verified": ok,
            }
        )
    return rows


def test_e12_matmul_apsp(benchmark, report):
    sweep = benchmark.pedantic(mm_sweep, rounds=1, iterations=1)
    comparison = semiring_comparison()
    closure = apsp_and_tc()

    fit = fit_metric_exponent([r.pop("metrics") for r in sweep])
    report(sweep, title="E12 - cube-partitioned ring MM scaling")
    report(
        [
            {
                "load exponent (fit)": round(fit.slope, 3),
                "implied delta": round(fit.slope - 1, 3),
                "semiring MM bound": round(1 / 3, 3),
                "r^2": round(fit.r_squared, 4),
            }
        ],
        title="E12 - fitted MM exponent vs 1/3",
    )
    report(comparison, title="E12 - all three semirings at n=64")
    report(closure, title="E12 - APSP / transitive closure via squaring")
    spanner = spanner_rows()
    report(spanner, title="E12 - 3-approx APSP via 3-spanner (Section 7)")

    assert all(r["correct"] for r in sweep + comparison + closure)
    assert all(r["stretch <= 3 verified"] for r in spanner)
    assert abs((fit.slope - 1) - 1 / 3) < 0.2
