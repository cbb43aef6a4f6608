#!/usr/bin/env python3
"""The fine-grained landscape of Figure 1, regenerated and measured.

Prints the paper's Figure 1 as (a) the reduction arrow list, (b) the
propagated delta upper bounds, and (c) empirical round measurements for
the algorithms this library executes, with fitted exponents.

Run:  python examples/fine_grained_landscape.py
"""

from repro.analysis import fit_exponent, print_table
from repro.core.exponents import figure1_registry
from repro.engine import run_sweep
from repro.engine.diff import catalog_factory


def measure(algorithm, ns, seed=1, **params):
    """Measure rounds and the per-node routed payload load.

    Grid points run through the parallel sweep engine on the fast
    backend (``repro.engine``); ``algorithm`` names an entry of the
    engine's algorithm catalog.

    At simulator sizes, constant protocol overheads (length headers,
    round-budget agreement) dominate raw round counts, so the exponent
    is fitted on the max per-node *payload* load in bits — exactly the
    quantity the routing theorems bound.  An O(n^d)-round algorithm
    moves O(n^(d+1)) payload bits through its busiest node (n-1 links x
    log n bits x n^d rounds, up to log factors), so
    ``delta ~ load_slope - 1``.
    """
    configs = [
        {"algorithm": algorithm, "n": n, "seed": seed, "p": 0.2, **params}
        for n in ns
    ]
    outcomes = run_sweep(catalog_factory, configs, workers=2, execution="fast")
    rows = []
    for outcome in outcomes:
        load = max(
            outcome.result.max_counter("route_payload_in_bits"),
            outcome.result.max_counter("route_payload_out_bits"),
        )
        rows.append((outcome.config["n"], outcome.result.rounds, load))
    return rows


def main() -> None:
    registry = figure1_registry(k=3)

    print_table(
        registry.table(),
        columns=["problem", "delta_upper", "direct_bound", "source"],
        title="Figure 1 - problem exponents (k=3, omega=2.3728639)",
    )

    arrows = [
        {"arrow": f"delta({e.frm}) <= delta({e.to})", "source": e.source or "-"}
        for e in registry.arrows()
    ]
    print_table(arrows, title=f"Figure 1 - {len(arrows)} reduction arrows")

    # Empirical: triangle detection and 3-DS scaling.
    ns = [27, 64, 125, 216]

    tri_rows = measure("subgraph", ns)
    fit = fit_exponent(
        [n for n, _, _ in tri_rows], [load for _, _, load in tri_rows]
    )
    print_table(
        [{"n": n, "rounds": r, "max_load_bits": load} for n, r, load in tri_rows],
        title=f"triangle detection: load exponent {fit.slope:.2f} "
        f"=> delta ~ {fit.slope - 1:.2f} "
        f"(Dolev et al. bound 1 - 2/3 = 0.33)",
    )

    kds_rows = measure("kds", ns, k=3)
    fit = fit_exponent(
        [n for n, _, _ in kds_rows], [load for _, _, load in kds_rows]
    )
    print_table(
        [{"n": n, "rounds": r, "max_load_bits": load} for n, r, load in kds_rows],
        title=f"3-dominating set: load exponent {fit.slope:.2f} "
        f"=> delta ~ {fit.slope - 1:.2f} "
        f"(Theorem 9 bound: 1 - 1/3 = 0.67)",
    )


if __name__ == "__main__":
    main()
