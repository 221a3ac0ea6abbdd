"""Certified exact hindsight optimum for instances of any size.

The offline problem (each request served at most once, campaign j served at
most B_j times, maximise the summed quality of served edges) is a
transportation LP whose constraint matrix is totally unimodular, so the LP
optimum equals the integral optimum.  `gdpacer.metrics.hindsight_optimum`
refuses instances above 50k edges; a desk round has about 800k.  Here the LP
is solved by column generation: start from each campaign's best edges, price
every edge against the duals, add the violators, repeat.  The result is
certified by the Lagrangian bound

    D(alpha) = sum_j alpha_j B_j + sum_r max(0, max_j (v_rj - alpha_j)) >= OPT,

which must meet the primal value.  Nothing here is timed by the benchmark.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

_START_COLUMNS = 1.5    # edges kept per campaign at the start, as a multiple of its budget
_PRICE_TOL = 1e-9
_GAP_TOL = 1e-7         # relative primal/bound gap accepted as a certificate
_MAX_ROUNDS = 50


class CertificateError(RuntimeError):
    """The LP did not close its duality gap."""


def _flatten(stream, ids: np.ndarray):
    """(global request, campaign column, quality) edges, sorted by request."""
    req, camp, v = [], [], []
    base = 0
    for p in stream.periods:
        pos = np.clip(np.searchsorted(ids, p.camp), 0, ids.size - 1)
        keep = ids[pos] == p.camp
        req.append(p.req[keep] + base)
        camp.append(pos[keep])
        v.append(p.v[keep])
        base += p.n_requests
    return np.concatenate(req), np.concatenate(camp), np.concatenate(v)


def certified_optimum(stream, budgets: dict[int, int]) -> tuple[float, float]:
    """(optimal value, certified upper bound) of the offline allocation."""
    ids = np.array(sorted(budgets), dtype=np.int64)
    B = np.array([budgets[c] for c in ids.tolist()], dtype=float)
    req, camp, v = _flatten(stream, ids)
    if v.size == 0:
        return 0.0, 0.0
    M = ids.size

    counts = np.bincount(camp, minlength=M)
    order = np.lexsort((-v, camp))
    rank = np.empty(v.size, dtype=np.int64)
    rank[order] = np.arange(v.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = rank < _START_COLUMNS * B[camp]

    for _ in range(_MAX_ROUNDS):
        idx = np.flatnonzero(cols)
        rows_req, row = np.unique(req[idx], return_inverse=True)
        R, n = rows_req.size, idx.size
        A = sparse.csr_matrix(
            (np.ones(2 * n), (np.concatenate([row, R + camp[idx]]), np.tile(np.arange(n), 2))),
            shape=(R + M, n))
        res = linprog(-v[idx], A_ub=A, b_ub=np.concatenate([np.ones(R), B]),
                      bounds=(0, None), method="highs-ipm")
        if res.status != 0:
            raise CertificateError(f"LP failed: {res.message}")
        duals = -res.ineqlin.marginals
        alpha = np.maximum(duals[R:], 0.0)
        beta = np.zeros(int(req[-1]) + 1)
        beta[rows_req] = duals[:R]
        violating = (v - alpha[camp] - beta[req] > _PRICE_TOL) & ~cols
        if not violating.any():
            break
        cols |= violating
    else:
        raise CertificateError(f"column generation did not converge in {_MAX_ROUNDS} rounds")

    value = -float(res.fun)
    starts = np.flatnonzero(np.r_[True, req[1:] != req[:-1]])
    best = np.maximum.reduceat(v - alpha[camp], starts)
    bound = float(alpha @ B + np.maximum(best, 0.0).sum())
    if bound - value > _GAP_TOL * max(1.0, value):
        raise CertificateError(f"duality gap {bound - value:.3e} at value {value:.6f}")
    return value, bound
