"""Evaluation metrics, the exact hindsight-optimum oracle, and cross-round
aggregation.

All functions are pure over finished delivery traces.  The optimum is solved
as a transportation problem (min-cost flow with unit request capacities); the
solver below contracts the request layer away and runs successive shortest
paths on a campaign-level multigraph with lazily maintained best-edge heaps,
which keeps the per-augmentation graph at M+2 nodes regardless of stream
length.  Each augmentation relaxes one list of arcs, and the list's order
fixes the optimum's bits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .engine import prepare, whole_budgets

ALGORITHM_ORDER = ("dmd", "smart", "rcpacing")

METRIC_NAMES = ("delivery_rate", "unsmoothness", "avg_ctr", "regret")
REGRET_TOLERANCE = 1e-9     # how far achieved quality may exceed the optimum in rounding
MAX_EXACT_EDGES = 50_000    # the largest instance `hindsight_optimum` solves, in edges


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


def hindsight_optimum(stream, budgets: dict[int, int]) -> HindsightOptimum:
    """Exact maximum total quality subject to unit request capacities and
    campaign budgets.

    Successive shortest paths on the campaign-contracted residual graph.
    Nodes are campaigns plus source/sink, and each augmentation lists the
    residual arcs once, as (tail, head, cost, request): source -> each
    campaign with budget left; a move arc a -> b, "a takes b's best
    transferable request, b's freed unit continues"; and j -> sink, "j wins
    its best still-unassigned request".  The requests behind move and sink
    arcs sit in heaps with lazy invalidation (entries are revived by re-push
    whenever a request's owner changes), so an augmentation costs one
    Bellman-Ford over M+2 nodes plus amortized heap maintenance.  Costs are
    negated qualities; augmentation stops at the first non-negative
    shortest path, which by SSP monotonicity is the global optimum.  The
    list's order (source arcs by campaign, move arcs in the order their
    heaps were first filled, sink arcs by campaign) picks among equal
    paths, and so fixes the optimum's bits.

    The instance is the one the runners see, laid out by `engine.prepare`:
    edges of campaigns missing from `budgets` are dropped, and the runners'
    DomainErrors stand (a stream with no requests, unsorted edges or a
    non-finite quality, a budget that is not a whole number within int64).
    An instance of more than `MAX_EXACT_EDGES` edges raises InstanceTooLargeError.
    """
    ids = sorted(budgets)
    if not ids:
        raise ValueError("no campaign budgets supplied")
    M = len(ids)
    SRC, SNK = M, M + 1
    inst = prepare(stream, ids)
    n_edges = sum(p.v.size for p in inst.periods)
    if n_edges > MAX_EXACT_EDGES:
        raise InstanceTooLargeError(
            f"{n_edges} edges exceed the exact-solver cap of {MAX_EXACT_EDGES}")
    frozen = tuple(zip(ids, whole_budgets(ids, [budgets[cid] for cid in ids]).tolist()))

    # quality[request] = {campaign column: v}, columns ascending; free[j] is a
    # heap of (-v_rj, request) over the requests j recalls, and moves[a, b] one
    # of (v_rb - v_ra, request) over the requests b holds that a also recalls
    quality: dict[int, dict[int, float]] = {}
    free: list[list[tuple[float, int]]] = [[] for _ in range(M)]
    base = 0
    for p in inst.periods:
        for r, j, v in zip((p.req + base).tolist(), p.camp.tolist(), p.v.tolist()):
            quality.setdefault(r, {})[j] = v
            free[j].append((-v, r))
        base += p.n_requests
    for h in free:
        heapq.heapify(h)
    moves: dict[tuple[int, int], list[tuple[float, int]]] = {}
    owner = [-1] * inst.total_requests
    remaining = [b for _, b in frozen]
    value, assigned = 0.0, 0

    while True:
        # the residual arcs, in relaxation order; stale heap tops are dropped
        arcs = [(SRC, j, 0.0, -1) for j in range(M) if remaining[j] > 0]
        for (a, b), h in moves.items():
            while h and owner[h[0][1]] != b:
                heapq.heappop(h)
            if h:
                arcs.append((a, b, *h[0]))
        for j, h in enumerate(free):
            while h and owner[h[0][1]] != -1:
                heapq.heappop(h)
            if h:
                arcs.append((j, SNK, *h[0]))

        # Bellman-Ford on the contracted graph
        dist = [float("inf")] * (M + 2)
        dist[SRC] = 0.0
        parent: list[tuple[int, int]] = [(-1, -1)] * (M + 2)
        for _ in range(M + 1):
            changed = False
            for tail, head, cost, r in arcs:
                if dist[tail] + cost < dist[head] - 1e-15:
                    dist[head] = dist[tail] + cost
                    parent[head] = (tail, r)
                    changed = True
            if not changed:
                break
        if dist[SNK] >= -1e-12:
            break

        # walk the path back from the sink; each arc's tail takes its request
        node, (tail, r) = SNK, parent[SNK]
        while tail != SRC:
            owner[r] = tail
            q = quality[r]
            for a, v in q.items():
                if a != tail:
                    heapq.heappush(moves.setdefault((a, tail), []), (q[tail] - v, r))
            node, (tail, r) = tail, parent[tail]
        remaining[node] -= 1
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
