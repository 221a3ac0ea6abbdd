"""Layer spans for the traced run, recorded from outside the program.

Each layer entry point is wrapped by rebinding the attribute where its
caller looks it up (`gdpacer.engine.fit_boxcox`, not
`gdpacer.quality.fit_boxcox`), so nothing in the package changes.  A span
records its name, start, end and parent; spans stay in memory until the run
ends.  Counters run at the same boundaries, after the span has closed.

A hook whose target no longer exists (a refactor renamed or folded it)
leaves its layer absent: the run goes on and reports the layer's numbers as
zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_SPAN = "trace.pass"


def _count_stream(counts, args, out):
    counts["simulate.generate_stream.edges"] += out.total_edges


def _count_rechunk(counts, args, out):
    counts["streams.per_impression.periods"] += out.n_periods


def _count_densify(counts, args, out):
    counts["engine._densify.periods"] += len(out)


def _count_fit(counts, args, out):
    counts["quality.fit_boxcox.samples"] += len(args[0])


def _count_throttle(counts, args, out):
    counts["engine.throttle.edges"] += np.size(args[1])


def _count_resolve(counts, args, out):
    dp, _score, elig, remaining = args[:4]
    counts["engine._resolve_winners.edges"] += elig.size
    counts["engine._resolve_winners.eligible"] += int(elig.sum())
    counts["engine._resolve_winners.winners"] += out.size
    wins = np.bincount(dp.camp[out], minlength=remaining.size)
    exhausted = (remaining > 0) & (wins >= remaining)
    counts["engine._resolve_winners.exhaustions"] += int(exhausted.sum())


def _count_optimum(counts, args, out):
    stream, budgets = args[:2]
    ids = np.fromiter(budgets, dtype=np.int64)
    counts["metrics.hindsight_optimum.edges"] += sum(int(np.isin(p.camp, ids).sum())
                                                     for p in stream.periods)
    counts["metrics.hindsight_optimum.augmentations"] += out.assigned


def _count_bytes(counts, args, out):
    counts["cli.write.bytes"] += os.path.getsize(args[0])


# (layer, "module:attribute path", counter).  `[key]` names a dict entry.
HOOKS = [
    ("simulate.generate_stream", "gdpacer.simulate:generate_stream", _count_stream),
    ("streams.per_impression", "gdpacer.streams:ImpressionStream.per_impression",
     _count_rechunk),
    ("engine._densify", "gdpacer.engine:_densify", _count_densify),
    ("engine.assign_fits", "gdpacer.engine:_FitManager.assign_fits", None),
    ("quality.fit_boxcox", "gdpacer.engine:fit_boxcox", _count_fit),
    ("engine.throttle", "gdpacer.engine:_boxcox_edges", _count_throttle),
    ("engine.throttle", "gdpacer.engine:normal_cdf", None),
    ("engine.throttle", "gdpacer.engine:fp", None),
    ("engine.throttle", "gdpacer.engine:fv", None),
    ("engine._resolve_winners", "gdpacer.engine:_resolve_winners", _count_resolve),
    ("engine.rcp_period_update", "gdpacer.engine:rcp_period_update", None),
    ("engine.dmd_period_update", "gdpacer.engine:dmd_period_update", None),
    ("quality.backward_transform_clipped", "gdpacer.engine:backward_transform_clipped", None),
    ("pacing.psi_speed_bound", "gdpacer.engine:psi_speed_bound", None),
    ("engine.run_dmd", "gdpacer.engine:RUNNERS[dmd]", None),
    ("engine.run_rcpacing", "gdpacer.engine:RUNNERS[rcpacing]", None),
    ("engine.run_smart_baseline", "gdpacer.engine:RUNNERS[smart]", None),
    ("metrics.build_report", "gdpacer.simulate:build_report", None),
    ("metrics.build_report", "gdpacer.metrics:build_report", None),
    ("metrics.hindsight_optimum", "gdpacer.metrics:hindsight_optimum", _count_optimum),
    ("cli.write", "gdpacer.cli:write_rounds_csv", _count_bytes),
    ("cli.write", "gdpacer.cli:write_aggregate_csv", _count_bytes),
    ("cli.write", "gdpacer.cli:write_series_csv", _count_bytes),
]


class Binding:
    """One rebindable name: an attribute of a module or class, or a dict entry."""

    def __init__(self, target: str):
        module, path = target.split(":")
        owner = importlib.import_module(module)
        *parents, last = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        self.item = last.endswith("]")
        if self.item:
            attr, last = last[:-1].split("[")
            owner = getattr(owner, attr)
        self.owner, self.key = owner, last
        self.get()      # raises when the name is gone

    def get(self):
        return self.owner[self.key] if self.item else getattr(self.owner, self.key)

    def set(self, fn) -> None:
        if self.item:
            self.owner[self.key] = fn
        else:
            setattr(self.owner, self.key, fn)


def bind(target: str) -> Binding | None:
    try:
        return Binding(target)
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


class Tracer:
    """Span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # (id, parent, name, start, end)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        next_id = self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if counter is not None:
                try:
                    counter(counts, args, out)
                except (TypeError, AttributeError, IndexError, ValueError):
                    self.uncounted.add(name)    # the entry point's signature changed
            return out
        return traced


class Installed:
    """Context manager: wrap every hook target that still exists, and
    restore the originals on exit.  `absent` lists layers with no target."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.restore: list[tuple[Binding, object]] = []
        self.absent: set[str] = set()

    def __enter__(self):
        present = set()
        for layer, target, counter in HOOKS:
            b = bind(target)
            if b is None:
                continue
            original = b.get()
            b.set(self.tracer.wrap(layer, original, counter))
            self.restore.append((b, original))
            present.add(layer)
        self.absent = {layer for layer, _, _ in HOOKS} - present
        return self

    def __exit__(self, *exc):
        for b, original in reversed(self.restore):
            b.set(original)
        return False


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass: `.s` (inclusive), `.self_s`
    (minus child spans), `.calls`, the counters, and derived ratios."""
    child = defaultdict(float)
    for sid, parent, name, t0, t1 in tracer.spans:
        child[parent] += t1 - t0
    out: defaultdict[str, float] = defaultdict(float, tracer.counts)
    for sid, parent, name, t0, t1 in tracer.spans:
        out[name + ".s"] += t1 - t0
        out[name + ".self_s"] += t1 - t0 - child.get(sid, 0.0)
        out[name + ".calls"] += 1

    def ratio(num, den):
        return out[num] / out[den] if out[den] else 0.0

    fits = "quality.fit_boxcox"
    calls = out[fits + ".calls"]
    out[fits + ".ok_ratio"] = (calls - out[fits + ".failed"]) / calls if calls else 0.0
    out["engine._resolve_winners.eligible_ratio"] = ratio("engine._resolve_winners.eligible",
                                                          "engine._resolve_winners.edges")
    out["engine.rcpacing_over_dmd"] = ratio("engine.run_rcpacing.s", "engine.run_dmd.s")
    out["trace.wall_s"] = out[ROOT_SPAN + ".s"]
    out["trace.unattributed_s"] = out[ROOT_SPAN + ".self_s"]
    return dict(out)


def write_spans(path, passes: list[Tracer]) -> None:
    """All spans of the traced passes as CSV, times relative to each pass's root."""
    with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("pass,id,parent,name,start_s,end_s\n")
        for k, tr in enumerate(passes):
            origin = min((t0 for *_, t0, _t1 in tr.spans), default=0.0)
            for sid, parent, name, t0, t1 in tr.spans:
                fh.write(f"{k},{sid},{parent},{name},{t0 - origin:.9f},{t1 - origin:.9f}\n")
