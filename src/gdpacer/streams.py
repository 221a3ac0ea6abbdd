"""Impression stream containers and CSV serialization.

A stream is an ordered list of periods; each period stores its requests in
columnar edge form (request position, campaign id, quality) sorted by
(request, campaign id).  That ordering is load-bearing: throttle draws are
consumed edge by edge in exactly this order, so two runs that differ only
in control formulas consume identical randomness.

CSV schema (UTF-8, LF, header required)::

    request_id,period,campaign_id,ctr

with ctr a decimal in (0, 1) carrying at most 6 fractional digits.  A
request that recalls no campaign has no rows, so such no-op requests are
not representable in the schema; generated streams avoid relying on them.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass

import numpy as np


_CTR_DECIMAL = re.compile(r"\d*\.?\d{0,6}")


class StreamFormatError(ValueError):
    """Malformed stream CSV; message carries the offending line number."""


@dataclass(frozen=True)
class ImpressionRequest:
    """One ad display opportunity with its recalled campaigns' qualities."""

    request_id: int
    period: int
    qualities: dict[int, float]


@dataclass
class PeriodBatch:
    """Columnar view of one period; edges sorted by (request, campaign id)."""

    request_ids: np.ndarray   # (n_requests,) global request ids, file order
    req: np.ndarray           # (n_edges,) request position within the period
    camp: np.ndarray          # (n_edges,) campaign id
    v: np.ndarray             # (n_edges,) quality in (0, 1)

    @property
    def n_requests(self) -> int:
        return int(self.request_ids.size)

    @property
    def n_edges(self) -> int:
        return int(self.req.size)


@dataclass
class ImpressionStream:
    periods: list[PeriodBatch]

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def total_requests(self) -> int:
        return sum(p.n_requests for p in self.periods)

    @property
    def total_edges(self) -> int:
        return sum(p.n_edges for p in self.periods)

    @property
    def avg_requests_per_period(self) -> float:
        return self.total_requests / max(1, self.n_periods)

    def fingerprint(self) -> str:
        """Content hash tying traces to the exact instance they ran on.

        Deliberately period-agnostic: hashing (request id, campaign, quality)
        edges means a stream and its per-impression re-chunk share an
        identity, since period boundaries never change what an allocation is
        worth or whether it is feasible.
        """
        h = hashlib.sha1()
        h.update(str(self.total_requests).encode())
        for key, dtype in (("request_ids", np.int64), ("camp", np.int64), ("v", np.float64)):
            for p in self.periods:
                arr = np.asarray(p.request_ids)[p.req] if key == "request_ids" \
                    else getattr(p, key)
                h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImpressionStream):
            return NotImplemented
        return self.n_periods == other.n_periods and all(
            np.array_equal(getattr(a, key), getattr(b, key))
            for a, b in zip(self.periods, other.periods)
            for key in ("request_ids", "req", "camp", "v"))


def from_requests(requests: list[ImpressionRequest]) -> ImpressionStream:
    """Build a stream from request records; periods keep first-seen order."""
    by_period: dict[int, list[ImpressionRequest]] = {}
    order: list[int] = []
    for r in requests:
        if r.period not in by_period:
            by_period[r.period] = []
            order.append(r.period)
        by_period[r.period].append(r)

    periods = []
    for t in order:
        reqs = by_period[t]
        ids, rpos, camps, vals = [], [], [], []
        for pos, r in enumerate(reqs):
            ids.append(r.request_id)
            for c in sorted(r.qualities):
                rpos.append(pos)
                camps.append(c)
                vals.append(r.qualities[c])
        periods.append(PeriodBatch(
            request_ids=np.asarray(ids, dtype=np.int64),
            req=np.asarray(rpos, dtype=np.int64),
            camp=np.asarray(camps, dtype=np.int64),
            v=np.asarray(vals, dtype=np.float64),
        ))
    return ImpressionStream(periods=periods)


def save_stream_csv(stream: ImpressionStream, path) -> None:
    """Write the stream in the 4-column schema, qualities at 6 decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["request_id", "period", "campaign_id", "ctr"])
        for t, p in enumerate(stream.periods):
            for e in range(p.n_edges):
                writer.writerow([int(p.request_ids[p.req[e]]), t,
                                 int(p.camp[e]), f"{p.v[e]:.6f}"])


def load_stream_csv(path) -> ImpressionStream:
    """Parse a stream CSV; raises StreamFormatError with a line number.

    Periods must appear as non-decreasing blocks; a request's rows must be
    contiguous.  Edges within a request are sorted by campaign id.
    """
    requests: list[ImpressionRequest] = []
    expected_header = ["request_id", "period", "campaign_id", "ctr"]

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StreamFormatError("line 1: missing header") from None
        if [h.strip() for h in header] != expected_header:
            raise StreamFormatError(f"line 1: expected header {','.join(expected_header)}")

        cur_req = None
        cur_period = None
        cur_map: dict[int, float] = {}
        last_period = None
        seen_in_period: set[int] = set()

        def flush():
            if cur_req is not None:
                requests.append(ImpressionRequest(cur_req, cur_period, dict(cur_map)))

        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise StreamFormatError(f"line {line}: expected 4 fields, got {len(row)}")
            try:
                rid = int(row[0])
                period = int(row[1])
                cid = int(row[2])
                ctr = float(row[3])
            except ValueError as exc:
                raise StreamFormatError(f"line {line}: {exc}") from None
            if not 0.0 < ctr < 1.0:
                raise StreamFormatError(f"line {line}: ctr must lie strictly in (0, 1), got {ctr}")
            if not _CTR_DECIMAL.fullmatch(row[3].strip()):
                raise StreamFormatError(f"line {line}: ctr must be a decimal with at most "
                                        f"6 fractional digits, got {row[3]!r}")
            if last_period is not None and period < last_period:
                raise StreamFormatError(f"line {line}: period {period} after period {last_period}; "
                                        "periods must be grouped in non-decreasing order")
            if period != last_period:
                flush()
                cur_req = None
                cur_map = {}
                seen_in_period = set()
                last_period = period
            if rid != cur_req:
                if rid in seen_in_period:
                    raise StreamFormatError(f"line {line}: request {rid} rows are not contiguous")
                flush()
                seen_in_period.add(rid)
                cur_req = rid
                cur_period = period
                cur_map = {}
            if cid in cur_map:
                raise StreamFormatError(f"line {line}: duplicate campaign {cid} for request {rid}")
            cur_map[cid] = ctr
        flush()

    return from_requests(requests)
