#!/usr/bin/env python3
"""gdpacer benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload {desk,cli_run,per_impression} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a gdpacer checkout; the package is imported from its
`src/`.  The load is closed-loop with a fixed amount of work: the workload's
pass (see workloads.py) is repeated while `--seconds` last, and times are
medians over passes.  Set-up (importing gdpacer and building the scenario)
is timed separately, as the median of several fresh child processes run one
after another.

With `--trace 0` every pass is untraced and the end-to-end metrics are
reported.  With `--trace 1` untraced and traced passes alternate and the
per-layer metrics are reported; the traced passes wrap each layer's entry
points from outside the package (tracer.py) and must reproduce the untraced
outputs byte for byte.

Checks, each failed algorithm run counted in `failed`: every trace keeps
`wins.sum(axis=1) <= budgets`; achieved quality stays at or below the
certified exact optimum (optimum.py, cross-checked against
`metrics.hindsight_optimum` on per_impression); every pass reproduces the
first pass's trace digests (and, for cli_run, its CSV digests).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units come
from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
REPORTED_ALGORITHMS = ("dmd", "rcpacing")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Import gdpacer from this checkout's src/, or exit."""
    if not (SRC / "gdpacer" / "__init__.py").is_file():
        sys.exit(f"error: no gdpacer package under {SRC}; run from a gdpacer checkout")
    sys.path.insert(0, str(SRC))
    import gdpacer
    if Path(gdpacer.__file__).resolve().parent != (SRC / "gdpacer").resolve():
        sys.exit(f"error: gdpacer imported from {gdpacer.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time importing gdpacer and building the scenario."""
    t0 = perf_counter()
    import_program()
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, OUT)
    print(perf_counter() - t0)


def measure_setup(workload: str, seed: int, problems: list[str]) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            problems.append(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            continue
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times) if times else 0.0


class Capture:
    """Wraps every `engine.RUNNERS` entry to keep each returned trace and
    the edge count of the stream it ran on.  Active on every pass."""

    def __init__(self, runners: dict):
        self.runners = runners
        self.originals = dict(runners)
        self.runs: list = []

    def _wrap(self, fn):
        def runner(stream, specs, config):
            trace = fn(stream, specs, config)
            self.runs.append((trace, stream.total_edges))
            return trace
        return runner

    def __enter__(self):
        for algo, fn in self.originals.items():
            self.runners[algo] = self._wrap(fn)
        return self

    def __exit__(self, *exc):
        self.runners.update(self.originals)
        return False


@dataclass
class Run:
    """What the checks need of one algorithm run; full traces are kept for
    the first pass only, so memory does not grow with the pass count."""

    algorithm: str
    key: tuple
    quality: float
    within_budget: bool
    digest: str
    edges: int


def instance_key(trace) -> tuple:
    return (trace.stream_id,
            tuple((int(c), int(b)) for c, b in zip(trace.campaign_ids, trace.budgets)))


def summarize(trace, edges: int) -> Run:
    import numpy as np
    return Run(trace.algorithm, instance_key(trace), trace.total_quality,
               bool(np.all(trace.wins.sum(axis=1) <= trace.budgets + 1e-9)),
               hashlib.sha256(trace.tobytes()).hexdigest(), edges)


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    runs: list[Run] = field(default_factory=list)
    traces: list = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    error: str | None = None
    tracer: object = None
    absent: set[str] = field(default_factory=set)


def run_pass(wl, capture: Capture, traced: bool, keep_traces: bool) -> Pass:
    import tracer as tr
    p = Pass(traced)
    captured = capture.runs = []
    t0 = perf_counter()
    try:
        if traced:
            p.tracer = tr.Tracer()
            with tr.Installed(p.tracer) as hooks:
                p.artifacts = p.tracer.wrap(tr.ROOT_SPAN, wl.run_pass)()
            p.absent = hooks.absent
        else:
            p.artifacts = wl.run_pass()
    except Exception as exc:  # noqa: BLE001 - a failing pass is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        p.error = f"{type(exc).__name__}: {exc}"
    p.wall = perf_counter() - t0
    p.runs = [summarize(trace, edges) for trace, edges in captured]
    if keep_traces:
        p.traces = [trace for trace, _ in captured]
    return p


def run_passes(wl, capture: Capture, seconds: float, trace: bool) -> list[Pass]:
    """Passes until the next one would overrun `seconds`; the first is
    untraced, and with `trace` traced and untraced passes alternate."""
    deadline = perf_counter() + seconds
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(wl, capture, traced=trace and len(passes) % 2 == 1,
                               keep_traces=not passes))
        if passes[-1].error:
            break
        if trace and len(passes) < 2:
            continue
        if perf_counter() + statistics.median(p.wall for p in passes) > deadline:
            break
    return passes


def exact_optima(wl, problems: list[str]) -> dict[tuple, tuple[float, float]]:
    """(value, certified bound) per checked instance, keyed like instance_key."""
    from optimum import CertificateError, certified_optimum
    optima = {}
    for stream, budgets in wl.instances():
        key = (stream.fingerprint(), tuple((int(c), int(budgets[c])) for c in sorted(budgets)))
        try:
            optima[key] = certified_optimum(stream, budgets)
        except CertificateError as exc:
            problems.append(f"exact optimum: {exc}")
    for key, value in getattr(wl, "program_optima", {}).items():
        if key not in optima:
            problems.append("hindsight_optimum solved an instance the LP check did not")
        elif abs(optima[key][0] - value) > 1e-6 * max(1.0, abs(value)):
            problems.append(f"hindsight_optimum {value!r} disagrees with the LP "
                            f"optimum {optima[key][0]!r}")
    return optima


def check_passes(wl, passes: list[Pass], optima, problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) algorithm runs over all passes."""
    ref = passes[0]
    attempted = failed = 0
    for p in passes:
        attempted += wl.expected_runs
        if len(p.runs) > wl.expected_runs:
            problems.append(f"pass made {len(p.runs)} runs, expected {wl.expected_runs}")
        if p.error:
            problems.append(f"pass failed: {p.error}")
        if p.artifacts != ref.artifacts:
            problems.append("output files differ from the first pass")
        ok = 0
        for i, run in enumerate(p.runs):
            opt = optima.get(run.key)
            below_opt = opt is None or run.quality <= opt[1] + 1e-9 * max(1.0, opt[1])
            reproduced = i < len(ref.runs) and run.digest == ref.runs[i].digest
            ok += run.within_budget and below_opt and reproduced
        failed += wl.expected_runs - min(ok, wl.expected_runs)
    if failed:
        problems.append(f"{failed} algorithm runs failed a check")
    return attempted, failed


def simulated_metrics(traces, optima) -> dict[str, float]:
    from gdpacer import metrics
    by_algo = defaultdict(list)
    for trace in traces:
        by_algo[trace.algorithm].append(trace)
    out = {}
    for algo in REPORTED_ALGORITHMS:
        traces = by_algo[algo]
        if not traces:
            continue
        out[f"delivery_rate.{algo}"] = statistics.fmean(metrics.delivery_rate(t) for t in traces)
        out[f"unsmoothness.{algo}"] = statistics.fmean(metrics.unsmoothness(t) for t in traces)
        out[f"avg_ctr.{algo}"] = statistics.fmean(
            metrics.average_ctr(t) if t.total_wins > 0 else 0.0 for t in traces)
        regrets = [optima[instance_key(t)][0] - t.total_quality
                   for t in traces if instance_key(t) in optima]
        if regrets:
            out[f"regret.{algo}"] = statistics.fmean(regrets)
    return out


def environment() -> str:
    import numpy
    import scipy
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"threads={os.environ[THREAD_VARS[0]]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gdpacer benchmark")
    ap.add_argument("--workload", required=True, choices=("desk", "cli_run", "per_impression"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:     # before numpy loads, here and in the probes
        os.environ[var] = "1"
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    from gdpacer import engine
    from workloads import WORKLOADS

    problems: list[str] = []
    setup_s = measure_setup(args.workload, args.seed, problems)
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    with Capture(engine.RUNNERS) as capture:
        passes = run_passes(wl, capture, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    optima = exact_optima(wl, problems)
    attempted, failed = check_passes(wl, passes, optima, problems)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    wall_s = statistics.median(p.wall for p in plain)

    print(f"env: {environment()}")
    print(f"passes: " + " ".join(f"{'traced' if p.traced else 'plain'}={p.wall:.3f}s"
                                 for p in passes))
    for i, run in enumerate(passes[0].runs):
        print(f"digest run{i} {run.algorithm} {run.digest[:16]}")
    for name, digest in passes[0].artifacts.items():
        print(f"digest {name} {digest[:16]}")

    if args.trace:
        import tracer as tr
        declared = spec["per_layer"]
        per_pass = [tr.layer_values(p.tracer) for p in traced]
        values = {m["name"]: statistics.median(v.get(m["name"], 0.0) for v in per_pass)
                  for m in declared} if traced else {}
        if traced:
            values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - wall_s
            tr.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv.gz",
                           [p.tracer for p in traced])
            # self times partition the traced pass: they sum to its wall time
            self_s = {k[:-len(".self_s")]: v for k, v in per_pass[-1].items()
                      if k.endswith(".self_s")}
            for name, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
                print(f"self {name} {v:.4f}s")
            print(f"self total {sum(self_s.values()):.4f}s of traced wall "
                  f"{per_pass[-1]['trace.wall_s']:.4f}s")
        print(f"traced passes reproduce the untraced digests: "
              f"{bool(traced) and all(p.runs == passes[0].runs for p in traced)}")
        absent = set().union(*(p.absent for p in traced))
        print(f"absent layers: {', '.join(sorted(absent)) or 'none'}")
        uncounted = set().union(*(p.tracer.uncounted for p in traced))
        if uncounted:
            print(f"layers whose counters no longer fit: {', '.join(sorted(uncounted))}")
    else:
        declared = spec["end_to_end"]
        edges = sum(run.edges for run in passes[0].runs)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "edges_per_s": edges / wall_s if wall_s > 0 else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": 1.0 - failed / attempted,
            **simulated_metrics(passes[0].traces, optima),
        }

    metrics_out = {}
    for m in declared:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
        metrics_out[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"metric {m['name']} = {metrics_out[m['name']]['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
