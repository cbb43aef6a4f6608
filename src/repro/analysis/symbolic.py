"""Symbolic cost model with exact engine cross-validation.

Every diff-catalog algorithm registers a :class:`CostModel`: closed-form
sympy expressions for its round count and message/bulk bit volume,
assembled from the *same metered primitives the engines charge* —
``all_broadcast`` chunking at the per-link budget ``B``, the sparse
32-bit length headers and ``agree_uint_max`` exchange of
:func:`repro.clique.routing.route`, the Lenzen charged rounds
``ceil(max_load / (B (n-1)))``, and the exact wire widths of
:mod:`repro.clique.bits`.  The contract is **exactness, not
asymptotics**: :func:`validate_symbolic` evaluates each expression at
swept ``n`` values and compares against measured
:class:`~repro.obs.RunMetrics` rounds / message bits / bulk bits with
zero tolerance (faults off), plus a ``fit_metric_exponent`` consistency
check between the measured and predicted series.

Expressions are written over canonical symbols (``n``, ``B``, ``k``,
``L``, ``f``, ``R``, ...) plus *instance profile* symbols (route flow
counts, maximum node loads, bulk payload totals).  A model's ``binder``
resolves every symbol to an exact integer for a concrete config by pure
arithmetic mirrors of the wire format — group partitions, cube blocks,
PSRS bucket flows — without executing a single simulated round, which is
what makes ``repro predict --n 1000000`` feasible: the closed forms
extrapolate to clique sizes no engine run could touch (the Lingas-style
``N^{o(1)}``-round regime).

Data-dependent entries (``bfs``, ``kvc``, ``sorting``) regenerate the
exact seeded instance below :data:`MIRROR_LIMIT` nodes (validation
regime) and switch to a documented typical instance above it
(extrapolation regime); see each model's ``assumes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
import sympy
from sympy import Integer, Max, Min, Symbol, ceiling, log

from ..clique.bits import uint_width
from ..clique.errors import CliqueError, did_you_mean

__all__ = [
    "COST_MODELS",
    "CostModel",
    "CostPoint",
    "DEFAULT_VALIDATION_NS",
    "MIRROR_LIMIT",
    "SymbolicCheck",
    "SymbolicReport",
    "cost_model",
    "cost_model_names",
    "describe_model",
    "get_cost_model",
    "missing_cost_models",
    "predict_points",
    "validate_symbolic",
]

# ---------------------------------------------------------------------------
# Canonical symbols
# ---------------------------------------------------------------------------

#: Clique size and per-link bits-per-round budget (``B = 2 ceil(log2 n)``
#: for the catalog's ``bandwidth_multiplier=2`` entries).
N = Symbol("n", integer=True, positive=True)
B = Symbol("B", integer=True, positive=True)
#: Problem parameters: subset size ``k``, payload width ``L`` (Byzantine
#: value width), fault budget ``f``, fan-out round count ``R``.
K = Symbol("k", integer=True, positive=True)
L = Symbol("L", integer=True, positive=True)
F = Symbol("f", integer=True, nonnegative=True)
R = Symbol("R", integer=True, nonnegative=True)
#: The matrix-multiplication exponent of the paper's ``delta(ring MM) <=
#: 1 - 2/omega`` bound.  It appears in documented exponents only — the
#: executed cube algorithm (and therefore the exact cost model) does not
#: depend on it.
OMEGA = Symbol("omega", positive=True)

#: Instance-profile symbols, bound by each model's arithmetic mirror:
#: per-route cross-flow counts, maximum per-node payload loads (bits) and
#: total cross-flow payload bits (the bulk channel volume).
F1, LOAD1, BULK1 = (
    Symbol("F1", integer=True, nonnegative=True),
    Symbol("load1", integer=True, nonnegative=True),
    Symbol("bulk1", integer=True, nonnegative=True),
)
F2, LOAD2, BULK2 = (
    Symbol("F2", integer=True, nonnegative=True),
    Symbol("load2", integer=True, nonnegative=True),
    Symbol("bulk2", integer=True, nonnegative=True),
)
#: BFS instance profile: source eccentricity and reachable-node count.
ECC = Symbol("ecc", integer=True, nonnegative=True)
REACH = Symbol("reach", integer=True, nonnegative=True)
#: k-VC branch indicator: 1 when the Buss kernel phase runs, 0 when the
#: preprocessing round already rejected (``|C| > k``).
MAIN = Symbol("main", integer=True, nonnegative=True)
#: Exact wire widths bound from config constants (``uint_width`` of
#: ``max_entry`` / distance bounds / ``key_width``).
W_IN = Symbol("w_in", integer=True, positive=True)
W_ACC = Symbol("w_acc", integer=True, positive=True)
W_KEY = Symbol("w_key", integer=True, positive=True)

#: ``repro.clique.routing._LEN_WIDTH``: the per-pair flow-length header.
HEADER = Integer(32)

#: ``uint_width(n - 1)`` — node-id width — as an exact symbolic form
#: (``max(1, ceil(log2 n))`` agrees with ``(n-1).bit_length()`` for all
#: ``n >= 1``).
VW = Max(1, ceiling(log(N, 2)))
#: Squaring count of the APSP/closure reduction:
#: ``max(1, ceil(log2 max(2, n)))``.
SQUARINGS = Max(1, ceiling(log(N, 2)))

#: Above this clique size the data-dependent binders (bfs/kvc/sorting)
#: stop regenerating the exact seeded instance and use the documented
#: typical instance instead; validation always runs far below it.
MIRROR_LIMIT = 4096


def _bc_rounds(width):
    """Rounds of ``all_broadcast`` for a ``width``-bit payload."""
    return ceiling(width / B)


def _bc_bits(width):
    """Message bits of ``all_broadcast``: every node unicasts ``width``
    bits to each of the other ``n - 1`` nodes (``send_to_all`` is metered
    as ``n - 1`` unicasts)."""
    return N * (N - 1) * width


def _route_rounds(load):
    """Rounds of one ``route(scheme="lenzen")`` call: the sparse 32-bit
    header exchange, the 32-bit ``agree_uint_max`` on the load, and the
    charged Lenzen rounds ``ceil(max_load / (B (n-1)))``."""
    return 2 * _bc_rounds(HEADER) + ceiling(load / (B * (N - 1)))


def _route_msg_bits(flows):
    """Message bits of one route call: one 32-bit header per cross flow
    plus the all-broadcast load agreement (payloads ride the bulk
    channel and are accounted separately)."""
    return HEADER * flows + _bc_bits(HEADER)


def _witness_width(kk):
    """``agree_on_witness`` payload: a found bit plus ``k`` node ids."""
    return 1 + kk * VW


# ---------------------------------------------------------------------------
# Cost model registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostPoint:
    """One exact evaluation of a cost model (or one measured run)."""

    n: int
    rounds: int
    message_bits: int
    bulk_bits: int

    @property
    def total_bits(self) -> int:
        return self.message_bits + self.bulk_bits

    @classmethod
    def from_metrics(cls, metrics) -> "CostPoint":
        """The metered costs of one run's :class:`~repro.obs.RunMetrics`."""
        return cls(
            n=metrics.n,
            rounds=metrics.rounds,
            message_bits=metrics.message_bits,
            bulk_bits=metrics.bulk_bits,
        )

    def to_dict(self) -> dict:
        """JSON-able mapping of the point (all values exact ints)."""
        return {
            "n": self.n,
            "rounds": self.rounds,
            "message_bits": self.message_bits,
            "bulk_bits": self.bulk_bits,
            "total_bits": self.total_bits,
        }


@dataclass(frozen=True)
class CostModel:
    """Closed-form cost of one catalog algorithm.

    ``rounds`` / ``message_bits`` / ``bulk_bits`` are sympy expressions
    over the canonical and profile symbols above; ``binder`` maps a
    config dict (catalog-builder keys: ``n``, ``seed``, ``k``, ...) to
    an exact ``{Symbol: int}`` substitution covering every free symbol.
    ``domain`` pins config keys the closed form requires (e.g. the
    ``routing`` entry is only modelable under ``scheme="lenzen"`` — the
    relay scheme's round count is emergent).  ``assumes`` documents the
    modelled regime; ``exponent`` the paper-facing asymptotic (the one
    place :data:`OMEGA` may appear).
    """

    name: str
    rounds: sympy.Expr
    message_bits: sympy.Expr
    bulk_bits: sympy.Expr
    binder: Callable[[dict], dict]
    default_n: int = 9
    domain: dict = field(default_factory=dict)
    assumes: str = ""
    exponent: str = ""

    @property
    def total_bits(self) -> sympy.Expr:
        return self.message_bits + self.bulk_bits

    def config(self, config: dict | None = None) -> dict:
        """The effective config: caller keys, domain pins winning."""
        cfg = dict(config or {})
        cfg.update(self.domain)
        cfg.setdefault("n", self.default_n)
        cfg["algorithm"] = self.name
        return cfg

    def evaluate(self, config: dict | None = None) -> CostPoint:
        """Evaluate the closed forms exactly at one config point."""
        cfg = self.config(config)
        binding = self.binder(cfg)
        return CostPoint(
            n=int(cfg["n"]),
            rounds=_exact_int(self.rounds, binding, f"{self.name}.rounds"),
            message_bits=_exact_int(
                self.message_bits, binding, f"{self.name}.message_bits"
            ),
            bulk_bits=_exact_int(self.bulk_bits, binding, f"{self.name}.bulk_bits"),
        )


def _exact_int(expr, binding: dict, label: str) -> int:
    """Substitute and reduce to an exact integer (or raise)."""
    value = sympy.sympify(expr).subs(binding)
    if not value.is_Integer:
        value = sympy.simplify(value)
    if not value.is_Integer:
        raise CliqueError(
            f"symbolic {label} did not reduce to an exact integer: {value!r}"
        )
    return int(value)


#: Registry: algorithm name -> :class:`CostModel` (the analytic twin the
#: ``@algorithm`` catalog declares via its ``cost=`` key).
COST_MODELS: dict[str, CostModel] = {}


def cost_model(model: CostModel) -> CostModel:
    """Register one cost model (names must be unique)."""
    if model.name in COST_MODELS:
        raise CliqueError(f"cost model {model.name!r} already registered")
    COST_MODELS[model.name] = model
    return model


def cost_model_names() -> list[str]:
    """Sorted names of every registered cost model."""
    return sorted(COST_MODELS)


def get_cost_model(name: str) -> CostModel:
    """Look up a cost model, with the shared did-you-mean error style."""
    try:
        return COST_MODELS[name]
    except KeyError:
        known = cost_model_names()
        hint = did_you_mean(str(name), known)
        raise CliqueError(
            f"unknown cost model {name!r}; known: {known}{hint}"
        ) from None


def missing_cost_models() -> list[str]:
    """Catalog entries whose declared analytic twin is not registered.

    The ``@algorithm`` decorator records each entry's declared cost-model
    name in ``repro.engine.diff.COST_DECLARATIONS``; this returns the
    declarations without a matching :class:`CostModel` — the set the
    coverage test and the CI symbolic-gate require to be empty.
    """
    from ..engine.diff import COST_DECLARATIONS

    return sorted(
        model_name
        for model_name in set(COST_DECLARATIONS.values())
        if model_name not in COST_MODELS
    )


# ---------------------------------------------------------------------------
# Shared binder arithmetic (instance profile mirrors)
# ---------------------------------------------------------------------------


def _base_binding(cfg: dict) -> dict:
    from ..clique.network import default_bandwidth

    n_val = int(cfg["n"])
    b_val = int(
        cfg.get("bandwidth")
        or default_bandwidth(n_val, int(cfg.get("bandwidth_multiplier", 2)))
    )
    return {N: Integer(n_val), B: Integer(b_val)}


def _block_lengths(n: int, g: int) -> np.ndarray:
    """Sizes of the ``group_partition(n, g)`` groups (possibly 0-tailed)."""
    size = math.ceil(n / g)
    idx = np.arange(g)
    return np.maximum(0, np.minimum((idx + 1) * size, n) - idx * size).astype(
        np.int64
    )


def _label_profile(n: int, kk: int, per_dest_payload: bool) -> tuple[int, int, int]:
    """Route profile of the Dolev–Lenzen–Peled label scheme.

    Node ``u`` sends a flow to every ``v`` with ``group(u) in label(v)``
    (``u`` is then a member of ``S_v``).  ``per_dest_payload=False`` is
    the k-dominating-set wire format (a full ``n``-bit incidence row per
    flow); ``True`` is the subgraph/k-IS format (``|S_v|`` bits — the
    row restricted to ``S_v``).  Returns ``(cross_flows, max_load,
    bulk_bits)`` exactly as ``route(scheme="lenzen")`` meters them
    (self-flows excluded from every figure).
    """
    from ..algorithms.common import int_ceil_root

    g = int_ceil_root(n, kk)
    lengths = _block_lengths(n, g)
    size = math.ceil(n / g)
    v = np.arange(n, dtype=np.int64)
    x = v % (g**kk)
    digits = np.stack([(x // g**i) % g for i in range(kk)])  # (k, n)
    # Distinct-group membership per node: sort the k digits column-wise
    # and keep first occurrences.
    sorted_digits = np.sort(digits, axis=0)
    first = np.ones_like(sorted_digits, dtype=bool)
    first[1:] = sorted_digits[1:] != sorted_digits[:-1]
    # cnt[j] = #{v : group j appears in label(v)}
    cnt = np.bincount(sorted_digits[first], minlength=g)
    # |S_v| = sum of distinct labelled group sizes
    s_size = np.where(first, lengths[sorted_digits], 0).sum(axis=0)
    group_v = np.minimum(v // size, g - 1)
    member = (digits == group_v).any(axis=0)  # v in S_v
    senders = s_size - member  # cross senders into v

    if per_dest_payload:
        payload = s_size  # bits per flow into v
        # sv_sum[j] = sum of |S_v| over nodes v whose label mentions j
        sv_sum = np.bincount(
            sorted_digits[first],
            weights=np.broadcast_to(s_size, (kk, n))[first].astype(np.float64),
            minlength=g,
        ).astype(np.int64)
        out_bits = sv_sum[group_v] - member * s_size
        in_bits = payload * senders
        flows = int(senders[payload > 0].sum())
        bulk = int(in_bits.sum())
    else:
        out_bits = n * (cnt[group_v] - member)
        in_bits = n * senders
        flows = int(senders.sum())
        bulk = n * flows
    load = int(max(out_bits.max(), in_bits.max())) if n else 0
    return flows, load, bulk


def _cube_profile(n: int, in_w: int, acc_w: int) -> tuple[int, int, int, int, int, int]:
    """Route profiles of the cube-partitioned matrix multiplication.

    Phase 1 ships ``A``/``B`` blocks to the ``g^3`` cube nodes; phase 3
    ships partial ``C`` rows to their owners.  Returns ``(F1, load1,
    bulk1, F3, load3, bulk3)`` exactly as ``route`` meters them:
    zero-length flows skipped, self-flows excluded from flow counts,
    loads and bulk bits.
    """
    from ..algorithms.common import int_ceil_root

    g = int_ceil_root(n, 3)
    size = math.ceil(n / g)
    lengths = _block_lengths(n, g)
    cube = g**3
    t = np.arange(cube, dtype=np.int64)
    a, b_, c = t // (g * g), (t // g) % g, t % g
    blk_t = np.minimum(t // size, g - 1)
    nz = int(np.count_nonzero(lengths))

    # ---- Phase 1: node u (block m) -> cube node t=(a,b,c), payload
    # ((a==m)*len[b] + (b==m)*len[c]) * in_w.
    self_pay1 = (
        (a == blk_t) * lengths[b_] + (b_ == blk_t) * lengths[c]
    ) * in_w  # flow t -> t, for t < g^3
    out_all = 2 * g * n * in_w  # every node's total outgoing payload
    min_self1 = int(self_pay1.min()) if n == cube else 0
    max_out1 = out_all - min_self1
    in1 = (lengths[a] * lengths[b_] + lengths[b_] * lengths[c]) * in_w
    max_in1 = int((in1 - self_pay1).max()) if cube else 0
    # Flows (payload > 0) per source block m: a==m with len[b]>0, or
    # b==m with len[c]>0; inclusion-exclusion over the g^2 triples each.
    per_block = 2 * g * nz - (lengths > 0) * nz
    flows1 = int((lengths * per_block).sum()) - int(np.count_nonzero(self_pay1))
    bulk1 = n * out_all - int(self_pay1.sum())
    load1 = max(max_out1, max_in1)

    # ---- Phase 3: cube node t=(a,b,c) -> each row owner i in B_a,
    # payload len[c] * acc_w (skipped when len[c]==0).
    self_pay3 = (blk_t == a) * lengths[c] * acc_w
    out3 = lengths[a] * lengths[c] * acc_w - self_pay3
    max_out3 = int(out3.max()) if cube else 0
    in3_all = g * n * acc_w  # every node receives one flow per (b, c)
    min_self3 = int(self_pay3.min()) if n == cube else 0
    max_in3 = in3_all - min_self3
    flows3 = int((lengths[a] * (lengths[c] > 0)).sum()) - int(
        np.count_nonzero(self_pay3)
    )
    bulk3 = acc_w * g * n * n - int(self_pay3.sum())
    load3 = max(max_out3, max_in3)
    return flows1, load1, bulk1, flows3, load3, bulk3


def _route_stats(
    flow_src: np.ndarray, flow_dst: np.ndarray, flow_bits: np.ndarray, n: int
) -> tuple[int, int, int]:
    """``(cross_flows, max_load, bulk_bits)`` of an explicit flow list."""
    cross = (flow_src != flow_dst) & (flow_bits > 0)
    src, dst, bits = flow_src[cross], flow_dst[cross], flow_bits[cross]
    out = np.bincount(src, weights=bits.astype(np.float64), minlength=n)
    inc = np.bincount(dst, weights=bits.astype(np.float64), minlength=n)
    load = int(max(out.max(), inc.max())) if n else 0
    return int(cross.sum()), load, int(bits.sum())


def _sorting_profile(cfg: dict) -> tuple[int, int, int, int, int, int]:
    """Route profiles of PSRS sorting: the bucket route and the rank
    route, replayed exactly from the seeded key multiset.

    Below :data:`MIRROR_LIMIT` the keys are drawn with the catalog
    builder's exact per-node ``rng.integers`` call sequence; above it a
    single vectorised draw from the same seed is used (statistically
    identical, stream layout differs — the extrapolation regime).
    """
    from ..problems import generators as gen

    n = int(cfg["n"])
    kw = int(cfg.get("key_width", 10))
    kpn = int(cfg.get("keys_per_node", 3))
    rng = gen.rng_from(int(cfg.get("seed", 0)))
    if n <= MIRROR_LIMIT:
        keys = np.array(
            [rng.integers(0, 1 << kw, size=kpn) for _ in range(n)],
            dtype=np.int64,
        )
    else:
        keys = rng.integers(0, 1 << kw, size=(n, kpn)).astype(np.int64)
    keys.sort(axis=1)

    # Step 2 samples: node v publishes local[min(i*step, kpn-1)] for
    # i in range(n) — a weighted multiset over its kpn local keys.
    step = max(1, kpn // n)
    weights = np.zeros(kpn, dtype=np.int64)
    t_full = min(n, math.ceil((kpn - 1) / step) if kpn > 1 else 0)
    for i in range(t_full):
        weights[min(i * step, kpn - 1)] += 1
    weights[kpn - 1] += n - t_full
    vals = keys[:, weights > 0].ravel()
    wts = np.broadcast_to(weights[weights > 0], (n, int((weights > 0).sum())))
    wts = wts.ravel()
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    # splitters[j] = the ((j+1)*n - 1)-th order statistic (0-indexed)
    targets = (np.arange(1, n) * n) - 1
    splitters = vals[np.searchsorted(cum, targets, side="right")]

    # Step 3: bucket route.
    flat = keys.ravel()
    owners = np.searchsorted(splitters, flat, side="left").astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), kpn)
    pair = src * n + owners
    uniq, counts = np.unique(pair, return_counts=True)
    f_src, f_dst = uniq // n, uniq % n
    f_bits = 32 + counts.astype(np.int64) * kw
    flows1, load1, bulk1 = _route_stats(f_src, f_dst, f_bits, n)

    # Step 4: sizes all-gather, then the rank route.
    sizes = np.bincount(owners, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    total = int(sizes.sum())
    quota = -(-total // n)
    s2_src, s2_dst, s2_bits = [], [], []
    for j in range(n):
        size_j = int(sizes[j])
        if size_j == 0:
            continue
        off = int(offsets[j])
        first_owner = min(off // quota, n - 1) if quota > 0 else 0
        last_owner = min((off + size_j - 1) // quota, n - 1) if quota > 0 else 0
        for owner in range(first_owner, last_owner + 1):
            lo = off if owner == first_owner else owner * quota
            hi = (
                off + size_j
                if owner == last_owner or owner == n - 1
                else (owner + 1) * quota
            )
            hi = min(hi, off + size_j)
            count = hi - lo
            if count <= 0:
                continue
            s2_src.append(j)
            s2_dst.append(owner)
            s2_bits.append(32 + count * kw)
    flows2, load2, bulk2 = _route_stats(
        np.asarray(s2_src, dtype=np.int64),
        np.asarray(s2_dst, dtype=np.int64),
        np.asarray(s2_bits, dtype=np.int64),
        n,
    )
    return flows1, load1, bulk1, flows2, load2, bulk2


def _routing_profile(cfg: dict) -> tuple[int, int, int]:
    """Route profile of the fixed pseudo-random ``routing`` flows."""
    n = int(cfg["n"])
    src = np.arange(n, dtype=np.int64)
    d1, d2 = (src + 1) % n, (src + 5) % n
    len1 = 24 + 8 * ((src + 2 * d1) % 5)
    len2 = 24 + 8 * ((src + 2 * d2) % 5)
    keep2 = d2 != d1  # duplicate destination collapses to one flow
    flow_src = np.concatenate([src, src[keep2]])
    flow_dst = np.concatenate([d1, d2[keep2]])
    flow_bits = np.concatenate([len1, len2[keep2]])
    return _route_stats(flow_src, flow_dst, flow_bits, n)


def _bfs_profile(cfg: dict) -> tuple[int, int]:
    """``(ecc, reach)`` of the seeded BFS instance (typical instance —
    diameter 2, fully reachable — beyond :data:`MIRROR_LIMIT`)."""
    n = int(cfg["n"])
    if n > MIRROR_LIMIT:
        return 2, n
    from ..problems import generators as gen

    adj = gen.random_graph(
        n, float(cfg.get("p", 0.3)), int(cfg.get("seed", 0))
    ).adjacency.astype(bool)
    source = int(cfg.get("source", 0))
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    layer = 0
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & (dist < 0)
        layer += 1
        dist[nxt] = layer
        frontier = nxt
    reach = int((dist >= 0).sum())
    ecc = int(dist.max()) if reach else 0
    return ecc, reach


def _kvc_main(cfg: dict, kk: int) -> int:
    """1 when the Buss kernel phase runs, 0 when preprocessing rejects
    (beyond :data:`MIRROR_LIMIT`: a dense seeded instance rejects)."""
    n = int(cfg["n"])
    if n > MIRROR_LIMIT:
        return 0
    from ..problems import generators as gen

    adj = gen.random_graph(
        n, float(cfg.get("p", 0.3)), int(cfg.get("seed", 0))
    ).adjacency.astype(bool)
    high = int((adj.sum(axis=1) >= kk + 1).sum())
    return 0 if high > kk else 1


# ---------------------------------------------------------------------------
# The catalog's cost models
# ---------------------------------------------------------------------------


def _bind_broadcast(cfg: dict) -> dict:
    return _base_binding(cfg)


cost_model(
    CostModel(
        name="broadcast",
        rounds=_bc_rounds(N),
        message_bits=N * N * (N - 1),
        bulk_bits=Integer(0),
        binder=_bind_broadcast,
        default_n=9,
        assumes="every node all-broadcasts its n-bit incidence row",
        exponent="Theta(n / log n) rounds — the trivial upper bound",
    )
)


def _bind_bfs(cfg: dict) -> dict:
    binding = _base_binding(cfg)
    ecc, reach = _bfs_profile(cfg)
    binding[ECC] = Integer(ecc)
    binding[REACH] = Integer(reach)
    return binding


cost_model(
    CostModel(
        name="bfs",
        rounds=ECC + 2,
        message_bits=REACH * (N - 1),
        bulk_bits=Integer(0),
        binder=_bind_bfs,
        default_n=9,
        assumes=(
            "each reachable node announces once (1 bit to all); beyond "
            f"n={MIRROR_LIMIT} the typical G(n,p) instance is assumed "
            "(ecc=2, all nodes reachable)"
        ),
        exponent="O(diameter) rounds",
    )
)


def _bind_kvc(cfg: dict) -> dict:
    from ..engine.diff import catalog_k

    kk = catalog_k("kvc", cfg)
    return {**_base_binding(cfg), K: Integer(kk), MAIN: Integer(_kvc_main(cfg, kk))}


_KVC_WIDTH = Max(1, ceiling(log(K + 1, 2))) + K * VW  # count + k node ids

cost_model(
    CostModel(
        name="kvc",
        rounds=1 + MAIN * _bc_rounds(_KVC_WIDTH),
        message_bits=N * (N - 1) * (1 + MAIN * _KVC_WIDTH),
        bulk_bits=Integer(0),
        binder=_bind_kvc,
        default_n=9,
        assumes=(
            "Buss kernelisation: 1 preprocessing round, then (unless "
            "|C| > k rejects) one all-broadcast of count + k node ids; "
            f"beyond n={MIRROR_LIMIT} the dense seeded instance rejects "
            "in round 1"
        ),
        exponent="O(k) rounds — delta(k-VC) = 0 (Theorem 11)",
    )
)


def _bind_kds(cfg: dict) -> dict:
    from ..engine.diff import catalog_k

    binding = _base_binding(cfg)
    kk = catalog_k("kds", cfg)
    flows, load, bulk = _label_profile(int(cfg["n"]), kk, False)
    binding.update(
        {
            K: Integer(kk),
            F1: Integer(flows),
            LOAD1: Integer(load),
            BULK1: Integer(bulk),
        }
    )
    return binding


cost_model(
    CostModel(
        name="kds",
        rounds=_route_rounds(LOAD1) + _bc_rounds(_witness_width(K)),
        message_bits=_route_msg_bits(F1) + _bc_bits(_witness_width(K)),
        bulk_bits=BULK1,
        binder=_bind_kds,
        default_n=9,
        assumes=(
            "label-scheme route of full n-bit incidence rows into every "
            "S_v, then the decide-and-agree witness broadcast"
        ),
        exponent="O(k n^(1-1/k)) rounds (Theorem 9)",
    )
)


def _bind_label_subgraph(cfg: dict, kk: int) -> dict:
    binding = _base_binding(cfg)
    flows, load, bulk = _label_profile(int(cfg["n"]), kk, True)
    binding.update(
        {
            K: Integer(kk),
            F1: Integer(flows),
            LOAD1: Integer(load),
            BULK1: Integer(bulk),
        }
    )
    return binding


def _bind_kis(cfg: dict) -> dict:
    from ..engine.diff import catalog_k

    return _bind_label_subgraph(cfg, catalog_k("kis", cfg))


_SUBGRAPH_ASSUMES = (
    "label-scheme route of |S_v|-bit restricted rows into every S_v, "
    "then the decide-and-agree witness broadcast"
)

cost_model(
    CostModel(
        name="subgraph",
        rounds=_route_rounds(LOAD1) + _bc_rounds(_witness_width(K)),
        message_bits=_route_msg_bits(F1) + _bc_bits(_witness_width(K)),
        bulk_bits=BULK1,
        binder=lambda cfg: _bind_label_subgraph(cfg, 3),
        default_n=9,
        assumes=_SUBGRAPH_ASSUMES + " (k pinned to 3: the entry detects triangles)",
        exponent="O(k^2 n^(1-2/k)) rounds — n^(1/3) for triangles",
    )
)

cost_model(
    CostModel(
        name="kis",
        rounds=_route_rounds(LOAD1) + _bc_rounds(_witness_width(K)),
        message_bits=_route_msg_bits(F1) + _bc_bits(_witness_width(K)),
        bulk_bits=BULK1,
        binder=_bind_kis,
        default_n=9,
        assumes=_SUBGRAPH_ASSUMES,
        exponent="O(n^(1-2/k)) rounds (Dolev et al., Figure 1)",
    )
)


_MATMUL_ROUNDS = (
    2 * (2 * _bc_rounds(HEADER))
    + ceiling(LOAD1 / (B * (N - 1)))
    + ceiling(LOAD2 / (B * (N - 1)))
)
_MATMUL_MSG = HEADER * (F1 + F2) + 2 * _bc_bits(HEADER)
_MATMUL_BULK = BULK1 + BULK2


def _bind_matmul(cfg: dict) -> dict:
    binding = _base_binding(cfg)
    n_val = int(cfg["n"])
    max_entry = int(cfg.get("max_entry", 8))
    in_w = uint_width(max_entry)
    acc_w = 2 * uint_width(max_entry) + uint_width(n_val)
    f1, l1, k1, f3, l3, k3 = _cube_profile(n_val, in_w, acc_w)
    binding.update(
        {
            W_IN: Integer(in_w),
            W_ACC: Integer(acc_w),
            F1: Integer(f1),
            LOAD1: Integer(l1),
            BULK1: Integer(k1),
            F2: Integer(f3),
            LOAD2: Integer(l3),
            BULK2: Integer(k3),
        }
    )
    return binding


cost_model(
    CostModel(
        name="matmul",
        rounds=_MATMUL_ROUNDS,
        message_bits=_MATMUL_MSG,
        bulk_bits=_MATMUL_BULK,
        binder=_bind_matmul,
        default_n=8,
        assumes=(
            "cube-partitioned RING multiply: two lenzen routes (input "
            "scatter, partial-row aggregation) with wire widths "
            "w_in = width(max_entry), w_acc = 2 width(max_entry) + "
            "width(n)"
        ),
        exponent=(
            "O(n^(1/3)) rounds (semiring); delta(ring MM) <= 1 - 2/omega "
            "via fast rectangular MM — the cube schedule is executed"
        ),
    )
)


def _bind_apsp(cfg: dict) -> dict:
    binding = _base_binding(cfg)
    n_val = int(cfg["n"])
    max_weight = int(cfg.get("max_weight", 15))
    bound = max(1, (n_val - 1) * max_weight)
    in_w = uint_width(bound) + 1  # +1 for the INF sentinel
    acc_w = uint_width(2 * max(1, bound)) + 1
    f1, l1, k1, f3, l3, k3 = _cube_profile(n_val, in_w, acc_w)
    binding.update(
        {
            W_IN: Integer(in_w),
            W_ACC: Integer(acc_w),
            F1: Integer(f1),
            LOAD1: Integer(l1),
            BULK1: Integer(k1),
            F2: Integer(f3),
            LOAD2: Integer(l3),
            BULK2: Integer(k3),
        }
    )
    return binding


cost_model(
    CostModel(
        name="apsp",
        rounds=SQUARINGS * _MATMUL_ROUNDS,
        message_bits=SQUARINGS * _MATMUL_MSG,
        bulk_bits=SQUARINGS * _MATMUL_BULK,
        binder=_bind_apsp,
        default_n=8,
        assumes=(
            "max(1, ceil(log2 n)) (min,+) squarings of the cube multiply "
            "with distance bound (n-1) max_weight; every squaring has the "
            "identical rigid flow structure"
        ),
        exponent="O(n^(1/3) log n) rounds (Figure 1: (min,+) MM -> APSP)",
    )
)


def _bind_sorting(cfg: dict) -> dict:
    binding = _base_binding(cfg)
    kw = int(cfg.get("key_width", 10))
    f1, l1, k1, f2, l2, k2 = _sorting_profile(cfg)
    binding.update(
        {
            W_KEY: Integer(kw),
            F1: Integer(f1),
            LOAD1: Integer(l1),
            BULK1: Integer(k1),
            F2: Integer(f2),
            LOAD2: Integer(l2),
            BULK2: Integer(k2),
        }
    )
    return binding


cost_model(
    CostModel(
        name="sorting",
        rounds=_bc_rounds(N * W_KEY)
        + _route_rounds(LOAD1)
        + _bc_rounds(HEADER)
        + _route_rounds(LOAD2),
        message_bits=_bc_bits(N * W_KEY)
        + _route_msg_bits(F1)
        + _bc_bits(HEADER)
        + _route_msg_bits(F2),
        bulk_bits=BULK1 + BULK2,
        binder=_bind_sorting,
        default_n=8,
        assumes=(
            "PSRS: sample all-broadcast (n key_width bits), bucket route, "
            "32-bit size all-gather, rank route; the seeded key multiset "
            f"is replayed exactly below n={MIRROR_LIMIT} and drawn "
            "vectorised from the same seed above"
        ),
        exponent="O(n) sample rounds + O(load/(nB) + 1) routing (Lenzen)",
    )
)


cost_model(
    CostModel(
        name="fanout",
        rounds=R,
        message_bits=R * N * (N - 1) * Min(B, 48),
        bulk_bits=Integer(0),
        binder=lambda cfg: {
            **_base_binding(cfg),
            R: Integer(int(cfg.get("rounds", 3))),
        },
        default_n=8,
        assumes="R rounds of full-width (min(B, 48)-bit) all-broadcast",
        exponent="Theta(R) rounds",
    )
)


cost_model(
    CostModel(
        name="fanout_work",
        rounds=R,
        message_bits=R * N * Min(8, N - 1) * Min(B, 48),
        bulk_bits=Integer(0),
        binder=lambda cfg: {
            **_base_binding(cfg),
            R: Integer(int(cfg.get("rounds", 3))),
        },
        default_n=8,
        assumes=(
            "R rounds of min(B, 48)-bit ring digests to the min(8, N-1) "
            "next neighbours; lane mixing is local compute and free on "
            "the wire"
        ),
        exponent="Theta(R) rounds",
    )
)


def _bind_routing(cfg: dict) -> dict:
    binding = _base_binding(cfg)
    flows, load, bulk = _routing_profile(cfg)
    binding.update({F1: Integer(flows), LOAD1: Integer(load), BULK1: Integer(bulk)})
    return binding


cost_model(
    CostModel(
        name="routing",
        rounds=_route_rounds(LOAD1),
        message_bits=_route_msg_bits(F1),
        bulk_bits=BULK1,
        binder=_bind_routing,
        default_n=8,
        domain={"scheme": "lenzen"},
        assumes=(
            "pinned to scheme=lenzen (the relay scheme's store-and-"
            "forward round count is emergent, not closed-form); two "
            "fixed flows per node of 24..56 bits"
        ),
        exponent="O(max_load / (nB) + 1) rounds (Lenzen routing)",
    )
)


cost_model(
    CostModel(
        name="bracha",
        rounds=F + 5,
        message_bits=(N - 1) * (2 + L) * (2 * N + 1),
        bulk_bits=Integer(0),
        binder=lambda cfg: {
            **_base_binding(cfg),
            F: Integer(int(cfg.get("f", 1))),
            L: Integer(int(cfg.get("value_width", 8))),
        },
        default_n=9,
        assumes=(
            "honest (fault-free) run with floor((n+f)/2)+1 <= n: one "
            "INIT, a full ECHO round, and every node sends READY in the "
            "first cascade round"
        ),
        exponent="f + 5 rounds, Theta(n^2 L) bits",
    )
)


cost_model(
    CostModel(
        name="dolev",
        rounds=Integer(2),
        message_bits=N * (N - 1) * L,
        bulk_bits=Integer(0),
        binder=lambda cfg: {
            **_base_binding(cfg),
            L: Integer(int(cfg.get("value_width", 8))),
        },
        default_n=9,
        assumes=(
            "honest run: the broadcaster sends to all, every other node "
            "relays what it heard directly"
        ),
        exponent="2 rounds, Theta(n^2 L) bits",
    )
)


# ---------------------------------------------------------------------------
# Prediction and exact validation
# ---------------------------------------------------------------------------


def predict_points(
    name: str, ns: Sequence[int], config: dict | None = None
) -> list[CostPoint]:
    """Evaluate one model's closed forms at each clique size in ``ns``."""
    model = get_cost_model(name)
    return [model.evaluate({**(config or {}), "n": int(n)}) for n in ns]


def describe_model(name: str) -> dict:
    """JSON-able description of one model (expressions as text)."""
    model = get_cost_model(name)
    return {
        "algorithm": model.name,
        "rounds": sympy.sstr(model.rounds),
        "message_bits": sympy.sstr(model.message_bits),
        "bulk_bits": sympy.sstr(model.bulk_bits),
        "domain": dict(model.domain),
        "assumes": model.assumes,
        "exponent": model.exponent,
    }


#: Swept clique sizes of the exact gate: three sizes per algorithm, past
#: the first bandwidth step (``B = 2 ceil(log2 n)`` changes at 9 and 17).
DEFAULT_VALIDATION_NS = (8, 11, 16)

#: Quantities the fit-consistency check compares (measured vs predicted
#: series through the same ``fit_metric_exponent`` path).
_FIT_QUANTITIES = ("rounds", "total_bits")


@dataclass
class SymbolicCheck:
    """One (algorithm, n, engine) comparison: closed form vs metered."""

    algorithm: str
    n: int
    engine: str
    predicted: CostPoint
    measured: CostPoint
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class SymbolicReport:
    """The full exact-validation surface (the CI symbolic-gate payload)."""

    checks: list[SymbolicCheck] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and all(c.ok for c in self.checks)

    @property
    def mismatched(self) -> list[SymbolicCheck]:
        return [c for c in self.checks if not c.ok]

    def rows(self) -> list[dict]:
        """One table row per check (exact ints; fits appended)."""
        out = []
        for c in self.checks:
            out.append(
                {
                    "algorithm": c.algorithm,
                    "n": c.n,
                    "engine": c.engine,
                    "rounds": f"{c.predicted.rounds}/{c.measured.rounds}",
                    "message_bits": (
                        f"{c.predicted.message_bits}/{c.measured.message_bits}"
                    ),
                    "bulk_bits": f"{c.predicted.bulk_bits}/{c.measured.bulk_bits}",
                    "ok": c.ok,
                }
            )
        return out

    def table(self) -> str:
        """Plain-text report: per-check table plus the gate summary."""
        from .report import format_table

        lines = [
            format_table(
                self.rows(),
                title="symbolic cost model vs metered runs "
                "(predicted/measured)",
            )
        ]
        if self.fits:
            lines.append("")
            lines.append(
                format_table(self.fits, title="fit consistency (log-log slope)")
            )
        for err in self.errors:
            lines.append(f"ERROR: {err}")
        lines.append(self.summary())
        return "\n".join(lines)

    def markdown(self) -> str:
        """GitHub-flavoured table for ``$GITHUB_STEP_SUMMARY``."""
        lines = ["## Symbolic cost gate", ""]
        lines.append(
            "| algorithm | n | engine | rounds (pred/meas) | "
            "message bits | bulk bits | ok |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for r in self.rows():
            lines.append(
                f"| {r['algorithm']} | {r['n']} | {r['engine']} | "
                f"{r['rounds']} | {r['message_bits']} | {r['bulk_bits']} | "
                f"{'✅' if r['ok'] else '❌'} |"
            )
        if self.mismatched:
            lines.append("")
            lines.append("### Mismatches")
            for c in self.mismatched:
                for m in c.mismatches:
                    lines.append(f"- `{c.algorithm}` n={c.n} ({c.engine}): {m}")
        for err in self.errors:
            lines.append(f"- ERROR: {err}")
        lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line verdict: exact-check and failure counts."""
        bad = len(self.mismatched) + len(self.errors)
        if self.ok:
            return (
                f"symbolic gate: {len(self.checks)} checks exact, "
                f"{len(self.fits)} fit consistencies"
            )
        return f"symbolic gate: {bad} FAILURES in {len(self.checks)} checks"


def _compare(predicted: CostPoint, measured: CostPoint) -> list[str]:
    """Closed form vs metered costs: the one place they are compared."""
    issues = []
    for quantity in ("rounds", "message_bits", "bulk_bits", "total_bits"):
        a, b = getattr(predicted, quantity), getattr(measured, quantity)
        if a != b:
            issues.append(f"{quantity}: predicted={a} measured={b}")
    return issues


def validate_symbolic(
    names: Sequence[str] | None = None,
    ns: Sequence[int] = DEFAULT_VALIDATION_NS,
    config: dict | None = None,
    engines: Sequence = ("reference", "fast"),
) -> SymbolicReport:
    """The exact gate: closed forms vs metered runs, zero tolerance.

    For every named algorithm (default: the full catalog) and every
    clique size in ``ns``, the catalog point runs fault-free as one
    :func:`~repro.engine.diff.run_matrix` row over ``engines`` (so the
    engines are also held to each other), and each cell's measured
    rounds / message bits / bulk bits / total bits must equal the
    model's evaluated closed forms **exactly**.  A
    ``fit_metric_exponent`` consistency check then fits the measured
    (first engine) and the predicted series (rounds and total bits)
    through the same estimator and requires identical slopes.
    Unregistered declared models are reported as errors, so
    full-catalog runs enforce coverage.
    """
    from ..engine.diff import CATALOG, run_matrix
    from .fitting import fit_metric_exponent

    report = SymbolicReport()
    if names is None:
        names = sorted(CATALOG)
        for missing in missing_cost_models():
            report.errors.append(
                f"catalog algorithm {missing!r} declares no registered "
                f"cost model"
            )
    ns = tuple(int(n) for n in ns)
    for name in names:
        model = get_cost_model(name)
        measured_series: list[SimpleNamespace] = []
        predicted_series: list[SimpleNamespace] = []
        for n_val in ns:
            point = model.config({**(config or {}), "n": n_val})
            try:
                predicted = model.evaluate(point)
            except CliqueError as exc:
                report.errors.append(f"{name} n={n_val}: {exc}")
                continue
            for cell in run_matrix([name], point, engines=engines):
                report.errors.extend(f"{name} n={n_val}: {m}" for m in cell.mismatches)
                measured = CostPoint.from_metrics(cell.result.metrics)
                report.checks.append(
                    SymbolicCheck(
                        algorithm=name,
                        n=n_val,
                        engine=cell.result.metrics.engine,
                        predicted=predicted,
                        measured=measured,
                        mismatches=_compare(predicted, measured),
                    )
                )
                if cell.baseline is None:
                    measured_series.append(
                        SimpleNamespace(
                            n=n_val,
                            rounds=measured.rounds,
                            total_bits=measured.total_bits,
                        )
                    )
            predicted_series.append(
                SimpleNamespace(
                    n=n_val,
                    rounds=predicted.rounds,
                    total_bits=predicted.total_bits,
                )
            )
        if len({p.n for p in measured_series}) < 2:
            # A single swept size can't support an exponent fit; the
            # exact per-point comparison above is the whole gate then.
            continue
        for quantity in _FIT_QUANTITIES:
            try:
                fit_m = fit_metric_exponent(measured_series, quantity)
                fit_p = fit_metric_exponent(predicted_series, quantity)
            except ValueError as exc:
                report.errors.append(f"{name} fit({quantity}): {exc}")
                continue
            row = {
                "algorithm": name,
                "quantity": quantity,
                "measured_slope": round(fit_m.slope, 6),
                "predicted_slope": round(fit_p.slope, 6),
                "ok": fit_m.slope == fit_p.slope,
            }
            report.fits.append(row)
            if not row["ok"]:
                report.errors.append(
                    f"{name}: {quantity} exponent fit diverges "
                    f"(measured {fit_m.slope:.6f} vs predicted "
                    f"{fit_p.slope:.6f})"
                )
    return report
