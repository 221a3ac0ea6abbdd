"""Evaluation metrics, the exact hindsight-optimum oracle, and cross-round
aggregation.

All functions are pure over finished delivery traces.  The optimum is solved
as a transportation problem (min-cost flow with unit request capacities); the
solver below contracts the request layer away and runs successive shortest
paths on a campaign-level multigraph with lazily maintained best-edge heaps,
which keeps the per-augmentation graph at M+2 nodes regardless of stream
length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .engine import prepare

ALGORITHM_ORDER = ("dmd", "smart", "rcpacing")

METRIC_NAMES = ("delivery_rate", "unsmoothness", "avg_ctr", "regret")
REGRET_TOLERANCE = 1e-9     # how far achieved quality may exceed the optimum in rounding


class InstanceTooLargeError(RuntimeError):
    """Instance exceeds the exact-solver edge cap."""


class InstanceMismatchError(ValueError):
    """Regret requested against an optimum from a different instance."""


@dataclass
class MetricsReport:
    delivery_rate: float
    unsmoothness: float
    avg_ctr: float
    regret: float | None
    per_period_spend: np.ndarray  # campaign x period win counts
    algorithm: str
    round_index: int


def delivery_rate(trace) -> float:
    """Fraction of total contracted impressions actually served."""
    total_budget = int(np.sum(trace.budgets))
    if total_budget <= 0:
        raise ValueError("delivery rate undefined for zero total budget")
    return float(trace.wins.sum()) / total_budget


def unsmoothness(trace) -> float:
    """Mean over campaigns of the RMS deviation of per-period spend from the
    uniform target rho_j = B_j / T."""
    wins = np.asarray(trace.wins, dtype=float)
    M, T = wins.shape
    rho = np.asarray(trace.budgets, dtype=float) / T
    return float(np.mean(np.sqrt(np.mean((wins - rho[:, None]) ** 2, axis=1))))


def average_ctr(trace) -> float:
    """Quality mass per served impression; quality stands in for the click
    probability, so no Bernoulli click realization is added."""
    wins = int(trace.wins.sum())
    if wins == 0:
        raise ValueError("average CTR undefined: trace has no wins")
    return float(trace.quality_sum.sum()) / wins


@dataclass(frozen=True)
class HindsightOptimum:
    value: float
    stream_id: str
    budgets: tuple  # ((campaign_id, budget), ...) sorted by id
    assigned: int = 0


def hindsight_optimum(stream, budgets: dict[int, int],
                      max_edges: int = 50_000) -> HindsightOptimum:
    """Exact maximum total quality subject to unit request capacities and
    campaign budgets.

    Successive shortest paths on the campaign-contracted residual graph.
    Nodes are campaigns plus source/sink; a direct edge j -> sink is "win the
    best still-unassigned request j recalls", a transfer edge a -> b is "a
    takes b's best transferable request, b's freed unit continues".  Both
    edge families sit in heaps with lazy invalidation (entries are revived by
    re-push whenever a request's owner changes), so each augmentation costs
    one Bellman-Ford over M+2 nodes plus amortized heap maintenance.  Costs
    are negated qualities; augmentation stops at the first non-negative
    shortest path, which by SSP monotonicity is the global optimum.

    The instance is the one the runners see, laid out by `engine.prepare`:
    edges of campaigns missing from `budgets` are dropped, and a stream whose
    edges are not sorted by (request, campaign id) raises DomainError.
    """
    ids = sorted(budgets)
    if not ids:
        raise ValueError("no campaign budgets supplied")
    M = len(ids)

    # the runners' edges: (request ordinal, campaign column, quality)
    inst = prepare(stream, ids)
    base = np.cumsum([0] + [p.n_requests for p in inst.periods]).tolist()
    req = np.concatenate([np.empty(0, np.int64)] + [p.req + b for p, b in zip(inst.periods, base)])
    camp = np.concatenate([np.empty(0, np.int64)] + [p.camp for p in inst.periods])
    v = np.concatenate([np.empty(0)] + [p.v for p in inst.periods])
    if req.size > max_edges:
        raise InstanceTooLargeError(
            f"{req.size} edges exceed the exact-solver cap of {max_edges}")
    frozen = tuple((cid, int(budgets[cid])) for cid in ids)
    if req.size == 0:
        return HindsightOptimum(0.0, inst.stream_id, frozen)

    SRC, SNK = M, M + 1

    # adjacency per request, and per-campaign entry heaps over (-v, request)
    adj: dict[int, list[tuple[int, float]]] = {}
    entry: list[list[tuple[float, int]]] = [[] for _ in range(M)]
    for r, j, vv in zip(req.tolist(), camp.tolist(), v.tolist()):
        adj.setdefault(r, []).append((j, vv))
        entry[j].append((-vv, r))
    for h in entry:
        heapq.heapify(h)

    owner = np.full(inst.total_requests, -1, dtype=np.int64)
    val_of: dict[tuple[int, int], float] = {}   # (request, campaign) -> v
    for r, lst in adj.items():
        for j, vv in lst:
            val_of[(r, j)] = vv
    transfer: dict[tuple[int, int], list[tuple[float, int]]] = {}

    def assign(r: int, j: int) -> None:
        owner[r] = j
        v_rj = val_of[(r, j)]
        for a, v_ra in adj[r]:
            if a != j:
                heapq.heappush(transfer.setdefault((a, j), []),
                               (-v_ra + v_rj, r))

    remaining = np.array([budgets[cid] for cid in ids], dtype=np.int64)
    value = 0.0
    assigned = 0
    INF = float("inf")

    while True:
        # refresh lazily maintained best edges
        direct: list[tuple[float, int] | None] = [None] * M
        for j in range(M):
            h = entry[j]
            while h and owner[h[0][1]] != -1:
                heapq.heappop(h)
            if h:
                direct[j] = (h[0][0], h[0][1])
        trans_best: dict[tuple[int, int], tuple[float, int]] = {}
        for (a, b), h in transfer.items():
            while h and owner[h[0][1]] != b:
                heapq.heappop(h)
            if h:
                trans_best[(a, b)] = (h[0][0], h[0][1])

        # Bellman-Ford on the contracted graph
        dist = [INF] * (M + 2)
        parent: list[tuple[int, int] | None] = [None] * (M + 2)
        dist[SRC] = 0.0
        for _ in range(M + 1):
            changed = False
            for j in range(M):
                if remaining[j] > 0 and dist[SRC] < dist[j]:
                    dist[j] = 0.0
                    parent[j] = (SRC, -1)
                    changed = True
            for (a, b), (c, r) in trans_best.items():
                if dist[a] + c < dist[b] - 1e-15:
                    dist[b] = dist[a] + c
                    parent[b] = (a, r)
                    changed = True
            for j in range(M):
                if direct[j] is not None:
                    c, r = direct[j]
                    if dist[j] + c < dist[SNK] - 1e-15:
                        dist[SNK] = dist[j] + c
                        parent[SNK] = (j, r)
                        changed = True
            if not changed:
                break

        if dist[SNK] >= -1e-12:
            break

        # walk parents sink -> source; each edge (prev -> node) means prev
        # takes request r (from node when node is a campaign, fresh when SNK)
        node = SNK
        path: list[tuple[int, int]] = []     # (campaign taking, request)
        while True:
            prev, r = parent[node]
            if prev == SRC:
                j0 = node
                break
            path.append((prev, r))
            node = prev
        remaining[j0] -= 1
        for taker, r in path:
            assign(r, taker)
        value += -dist[SNK]
        assigned += 1

    return HindsightOptimum(value, inst.stream_id, frozen, assigned)


def regret(trace, opt: HindsightOptimum) -> float:
    """Optimum-minus-achieved total quality on the identical instance."""
    trace_budgets = tuple(
        (int(c), int(b)) for c, b in zip(trace.campaign_ids, trace.budgets))
    if trace.stream_id != opt.stream_id or trace_budgets != opt.budgets:
        raise InstanceMismatchError(
            "trace and optimum were computed on different instances")
    diff = opt.value - float(trace.quality_sum.sum())
    if diff < -REGRET_TOLERANCE:
        raise AssertionError(
            f"achieved quality exceeds the exact optimum by {-diff:.3e}")
    return diff


def build_report(trace, specs, algorithm: str, round_index: int,
                 opt: HindsightOptimum | None = None) -> MetricsReport:
    return MetricsReport(
        delivery_rate=delivery_rate(trace),
        unsmoothness=unsmoothness(trace),
        avg_ctr=average_ctr(trace) if trace.wins.sum() > 0 else 0.0,
        regret=regret(trace, opt) if opt is not None else None,
        per_period_spend=trace.wins.copy(),
        algorithm=algorithm,
        round_index=round_index,
    )


def _ordered_algorithms(reports) -> list[str]:
    seen = []
    for rep in reports:
        if rep.algorithm not in seen:
            seen.append(rep.algorithm)
    known = [a for a in ALGORITHM_ORDER if a in seen]
    return known + [a for a in seen if a not in known]


def aggregate_rounds(reports: list[MetricsReport],
                     ) -> dict[str, dict[str, tuple[float, float]]]:
    """Sample mean and population std per (algorithm, metric), algorithms in
    baseline-to-method table order.  Regret is included only when every round
    of an algorithm carries one."""
    if not reports:
        raise ValueError("no reports to aggregate")
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for algo in _ordered_algorithms(reports):
        chunk = [r for r in reports if r.algorithm == algo]
        row: dict[str, tuple[float, float]] = {}
        for metric in METRIC_NAMES:
            vals = [getattr(r, metric) for r in chunk]
            if metric == "regret" and any(x is None for x in vals):
                continue
            arr = np.asarray(vals, dtype=float)
            row[metric] = (float(arr.mean()), float(arr.std()))
        out[algo] = row
    return out
