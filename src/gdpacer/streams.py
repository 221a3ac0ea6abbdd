"""Impression stream containers and CSV serialization.

A stream is an ordered list of periods; each period stores its requests in
columnar edge form (request position, campaign id, quality) sorted by
(request, campaign id).  That ordering is load-bearing: throttle draws are
consumed edge by edge in exactly this order, so two runs that differ only
in control formulas consume identical randomness.

CSV schema (UTF-8, LF, header required): ``request_id,period,campaign_id,ctr``,
ids ASCII decimal int64 integers, ctr a decimal in (0, 1) with at most 6
fractional digits.  A row is an edge: a request recalling no campaign and an
empty period have no rows, so `save_stream_csv` refuses them, not drops them.
"""

from __future__ import annotations

import csv
import hashlib
import re
from array import array
from dataclasses import dataclass

import numpy as np


_CTR_DECIMAL = re.compile(r"[0-9]*\.?[0-9]{0,6}")
_HEADER = ["request_id", "period", "campaign_id", "ctr"]


class StreamFormatError(ValueError):
    """Malformed stream CSV (the message carries the line) or uncarriable stream."""


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


def save_stream_csv(stream: ImpressionStream, path) -> None:
    """Write the 4-column schema at 6 decimals.  First refuse what it cannot
    carry: an empty period or request, a request id repeated within a period
    (its rows would load as one request), and a quality that 6 decimals write
    as 0 or 1 (those are the doubles outside (5e-7, 0.9999995))."""
    for t, p in enumerate(stream.periods):
        edges = np.bincount(p.req, minlength=p.n_requests)[:p.n_requests]
        ids, counts = np.unique(p.request_ids, return_counts=True)
        bad = np.flatnonzero(~((p.v > 5e-7) & (p.v < 0.9999995)))
        what = ("no requests" if p.n_requests == 0 else
                f"request {p.request_ids[edges.argmin()]} recalls no campaign" if edges.min() == 0
                else f"request id {ids[counts.argmax()]} is repeated" if counts.max() > 1
                else f"request {p.request_ids[p.req[bad[0]]]} has quality {float(p.v[bad[0]])}"
                if bad.size else None)
        if what:
            raise StreamFormatError(f"period {t}: {what}, which the stream CSV cannot carry")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_HEADER) + "\n")
        for t, p in enumerate(stream.periods):
            fh.writelines(f"{r},{t},{c},{v:.6f}\n" for r, c, v in zip(
                p.request_ids[p.req].tolist(), p.camp.tolist(), p.v.tolist()))


def load_stream_csv(path) -> ImpressionStream:
    """Parse a stream CSV; raises StreamFormatError with a line number.

    Periods must come as non-decreasing blocks, a request's rows contiguous.
    Rows are checked in file order, the ids of a row last; their characters
    only if the file has a non-ASCII byte or an underscore past the header.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    plain = data.isascii() and data.count(b"_") == 2     # once the header has passed
    del data
    rids, periods, cids, ctrs = array("q"), array("q"), array("q"), array("d")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _HEADER:
            raise StreamFormatError("line 1: " + ("missing header" if header is None else
                                                  f"expected header {','.join(_HEADER)}"))
        last_period, cur_req, seen_in_period, seen_in_request = None, None, set(), set()
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise StreamFormatError(f"line {line}: expected 4 fields, got {len(row)}")
            try:
                rid, period, cid, ctr = int(row[0]), int(row[1]), int(row[2]), float(row[3])
            except ValueError as exc:
                raise StreamFormatError(f"line {line}: {exc}") from None
            if not 0.0 < ctr < 1.0:
                raise StreamFormatError(f"line {line}: ctr must lie strictly in (0, 1), got {ctr}")
            if not _CTR_DECIMAL.fullmatch(row[3].strip()):
                raise StreamFormatError(f"line {line}: ctr must be a decimal with at most "
                                        f"6 fractional digits, got {row[3]!r}")
            if period != last_period:
                if last_period is not None and period < last_period:
                    raise StreamFormatError(f"line {line}: period {period} after period "
                                            f"{last_period}; periods must be grouped in "
                                            "non-decreasing order")
                last_period, cur_req, seen_in_period = period, None, set()
            if rid != cur_req:
                if rid in seen_in_period:
                    raise StreamFormatError(f"line {line}: request {rid} rows are not contiguous")
                seen_in_period.add(rid)
                cur_req, seen_in_request = rid, set()
            if cid in seen_in_request:
                raise StreamFormatError(f"line {line}: duplicate campaign {cid} for request {rid}")
            seen_in_request.add(cid)
            if not plain and any(not x.isascii() or "_" in x for x in row[:3]):
                raise StreamFormatError(f"line {line}: ids must be plain ASCII decimal integers, "
                                        f"got {row[:3]!r}")
            try:
                rids.append(rid)            # an int64 array refuses a larger id
                periods.append(period)
                cids.append(cid)
            except OverflowError:
                raise StreamFormatError(f"line {line}: ids must lie in the int64 range, "
                                        f"got {row[:3]!r}") from None
            ctrs.append(ctr)

    rid, per, camp = (np.frombuffer(c, dtype=np.int64) for c in (rids, periods, cids))
    starts = np.flatnonzero(np.diff(per, prepend=per[:1] - 1)).tolist()   # periods' first rows
    first_row = np.diff(rid, prepend=rid[:1] - 1) != 0                   # requests' first rows,
    first_row[starts] = True                                             # one at each period start
    ordinal = np.cumsum(first_row) - 1
    order = np.lexsort((camp, ordinal))
    camp, v = camp[order], np.frombuffer(ctrs, dtype=np.float64)[order]
    return ImpressionStream(periods=[
        PeriodBatch(rid[lo:hi][first_row[lo:hi]], ordinal[lo:hi] - ordinal[lo], camp[lo:hi],
                    v[lo:hi]) for lo, hi in zip(starts, starts[1:] + [rid.size])])
