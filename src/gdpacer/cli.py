"""Operator command line: run experiments, sweep ablation grids, execute the
numeric validation suite, and render comparison tables.

Exit codes are stable: 0 success, 1 config or input problem, 2 runtime
failure, 3 validation-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .engine import RUNNERS
from .metrics import (ALGORITHM_ORDER, METRIC_NAMES, REGRET_TOLERANCE, MetricsReport,
                      aggregate_rounds)
from .simulate import (
    ConfigError,
    ScenarioConfig,
    read_decimal,
    read_scenario_json,
    run_ablation,
    run_experiment_detailed,
    scenario_from_dict,
)

ROUNDS_HEADER = "algorithm,round,delivery_rate,unsmoothness,avg_ctr,regret"
SERIES_HEADER = "campaign,period,series,value"

# lower is better only for these columns
_MINIMIZE = {"unsmoothness", "regret"}
# the values a `rounds.csv` cell can take
_METRIC_RANGES = {"delivery_rate": (0.0, 1.0), "unsmoothness": (0.0, math.inf),
                  "avg_ctr": (0.0, 1.0), "regret": (-REGRET_TOLERANCE, math.inf)}


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


# --- file writers ---------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    """Write `text` to a new file at `path`, unlinking what is there first.

    Truncating an existing file whose data is not yet on disk makes the
    file system flush it (tens of milliseconds per file on ext4); a new
    file costs nothing of the kind.  A symlink at `path` is replaced, not
    written through.
    """
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def write_rounds_csv(path: Path, reports: list[MetricsReport]) -> None:
    lines = [ROUNDS_HEADER]
    for r in reports:
        reg = "" if r.regret is None else _fmt(r.regret)
        lines.append(f"{r.algorithm},{r.round_index},{_fmt(r.delivery_rate)},"
                     f"{_fmt(r.unsmoothness)},{_fmt(r.avg_ctr)},{reg}")
    _write_text(path, "\n".join(lines) + "\n")


def write_rounds_json(path: Path, reports: list[MetricsReport]) -> None:
    objs = [{
        "algorithm": r.algorithm,
        "round_index": r.round_index,
        "delivery_rate": r.delivery_rate,
        "unsmoothness": r.unsmoothness,
        "avg_ctr": r.avg_ctr,
        "regret": r.regret,
        "per_period_spend": r.per_period_spend.astype(int).tolist(),
    } for r in reports]
    _write_text(path, json.dumps(objs, indent=2) + "\n")


def write_aggregate_csv(path: Path, agg: dict) -> None:
    lines = ["algorithm,metric,mean,std"]
    for algo, row in agg.items():
        for metric, (mean, std) in row.items():
            lines.append(f"{algo},{metric},{_fmt(mean)},{_fmt(std)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_aggregate_json(path: Path, agg: dict) -> None:
    obj = {algo: {metric: {"mean": mean, "std": std}
                  for metric, (mean, std) in row.items()}
           for algo, row in agg.items()}
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def write_series_csv(path: Path, traces: dict) -> None:
    """Plot-ready long format from round 0: per-period spend, the dual in
    effect, and the emergency throttle, one series per (algorithm, kind)."""
    lines = [SERIES_HEADER]
    for algo in [a for a in ALGORITHM_ORDER if a in traces] + \
                [a for a in traces if a not in ALGORITHM_ORDER]:
        tr = traces[algo]
        M, T = tr.wins.shape
        for kind, mat in (("spend", tr.wins), ("dual", tr.duals), ("eptr", tr.eptr)):
            for j in range(M):
                cid = int(tr.campaign_ids[j])
                for t in range(T):
                    lines.append(f"{cid},{t},{algo}:{kind},{_fmt(mat[j, t])}")
    _write_text(path, "\n".join(lines) + "\n")


# --- table rendering ------------------------------------------------------------


def render_aggregate_table(agg: dict) -> str:
    """Aligned text table, one row per algorithm, best value per metric
    column marked with `*`."""
    metrics = [m for m in METRIC_NAMES if any(m in row for row in agg.values())]
    best: dict[str, str] = {}
    for metric in metrics:
        vals = {a: row[metric][0] for a, row in agg.items() if metric in row}
        if vals:
            pick = min if metric in _MINIMIZE else max
            best[metric] = pick(vals, key=vals.get)
    header = ["algorithm"] + metrics
    rows = [header]
    for algo, row in agg.items():
        cells = [algo]
        for metric in metrics:
            if metric in row:
                mean, std = row[metric]
                mark = "*" if best.get(metric) == algo else ""
                cells.append(f"{mean:.4f} +/- {std:.4f}{mark}")
            else:
                cells.append("-")
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    out = []
    for r in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out)


# --- invocation helpers ---------------------------------------------------------


# what `default_scenario` builds, read when no --config is given
_BUILT_IN_CONFIG = {"campaigns": {"count": 30}}


def _load_config(args) -> ScenarioConfig:
    """The config file's scenario, or the built-in one, with the flags applied.
    Seed precedence: --seed, the config's seed, GDPACER_SEED, then 0."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    raw = _BUILT_IN_CONFIG if args.config is None else read_scenario_json(args.config)
    seed, env = args.seed, os.environ.get("GDPACER_SEED")
    if seed is not None:
        seed = read_decimal(seed, "--seed")
    elif "seed" not in raw and env is not None:
        seed = read_decimal(env, "GDPACER_SEED")
    cfg = scenario_from_dict(raw if seed is None else dict(raw, seed=seed))
    if args.algorithms is not None:
        cfg.algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
        cfg.validate()
    return cfg


def _prepare_out(args, filenames: list[str]) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not args.force:
        clashes = [f for f in filenames if (out / f).exists()]
        if clashes:
            raise ConfigError(f"refusing to overwrite {', '.join(clashes)} in {out}; pass --force")
    return out


# --- subcommands ----------------------------------------------------------------


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args)
        out = _prepare_out(args, ["series.csv", f"rounds.{args.format}",
                                  f"aggregate.{args.format}"])
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        reports, traces0 = run_experiment_detailed(cfg, jobs=args.jobs)
        agg = aggregate_rounds(reports)
        if args.format == "json":
            write_rounds_json(out / "rounds.json", reports)
            write_aggregate_json(out / "aggregate.json", agg)
        else:
            write_rounds_csv(out / "rounds.csv", reports)
            write_aggregate_csv(out / "aggregate.csv", agg)
        write_series_csv(out / "series.csv", traces0)
    except Exception as exc:  # noqa: BLE001 - map anything mid-run to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(render_aggregate_table(agg))
    return 0


def cmd_ablate(args) -> int:
    try:
        cfg = _load_config(args)
        if not cfg.ablation:
            raise ConfigError("ablate requires a config with an `ablation` grid")
        out = _prepare_out(args, ["ablation.csv"])
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        results = [(overrides, aggregate_rounds(reports))
                   for overrides, reports in run_ablation(cfg, jobs=args.jobs)]
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    lines, header_metrics = [], []
    for overrides, agg in results:
        for algo, row in agg.items():
            if not header_metrics:
                header_metrics = list(row)
            cells = [str(v) for v in overrides.values()] + [algo]
            for metric in header_metrics:
                mean, std = row.get(metric, (float("nan"), float("nan")))
                cells.extend([_fmt(mean), _fmt(std)])
            lines.append(",".join(cells))
        label = ", ".join(f"{k}={v}" for k, v in overrides.items())
        print(f"[{label}]")
        print(render_aggregate_table(agg))
        print()
    header = list(cfg.ablation) + ["algorithm"] + [f"{metric}_{stat}" for metric in header_metrics
                                                   for stat in ("mean", "std")]
    _write_text(out / "ablation.csv", ",".join(header) + "\n" + "\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    from .theory import run_validation_suite
    try:
        results = run_validation_suite()
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        failed = failed or not res.passed
    return 3 if failed else 0


def _parse_rounds_csv(path: str) -> list[MetricsReport]:
    import numpy as np
    reports = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ROUNDS_HEADER:
            raise ConfigError(f"{path}:1: expected header `{ROUNDS_HEADER}`")
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ConfigError(f"{path}:{ln}: expected 6 fields, got {len(parts)}")
            try:
                round_index = read_decimal(parts[1], "round")
                if round_index < 0:
                    raise ValueError(f"round must be >= 0, got {round_index}")
                if parts[0] not in RUNNERS:
                    raise ValueError(f"unknown algorithm `{parts[0]}`")
                values = [float(x) for x in parts[2:5]] + [float(parts[5]) if parts[5] else None]
                if not np.isfinite([x for x in values if x is not None]).all():
                    raise ValueError(f"metric values must be finite, got `{line}`")
                for name, x in zip(METRIC_NAMES, values):
                    lo, hi = _METRIC_RANGES[name]
                    if x is not None and not lo <= x <= hi:
                        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {x:g}")
                reports.append(MetricsReport(*values, per_period_spend=np.zeros((0, 0)),
                                             algorithm=parts[0], round_index=round_index))
            except ValueError as exc:
                raise ConfigError(f"{path}:{ln}: {exc}") from None
    if not reports:
        raise ConfigError(f"{path}: no data rows")
    return reports


def cmd_report(args) -> int:
    try:
        reports = []
        for path in args.rounds:
            reports.extend(_parse_rounds_csv(path))
        agg = aggregate_rounds(reports)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    print(render_aggregate_table(agg))
    if args.out is not None:
        try:
            out = _prepare_out(args, ["aggregate.csv"])
            write_aggregate_csv(out / "aggregate.csv", agg)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    return 0


# --- parser ---------------------------------------------------------------------


def _add_common(sub, out_default: str) -> None:
    sub.add_argument("--config", default=None, help="scenario config JSON")
    sub.add_argument("--seed", default=None,
                     help="seed override (falls back to config, then GDPACER_SEED)")
    sub.add_argument("--out", default=out_default, help="output directory")
    sub.add_argument("--algorithms", default=None,
                     help="comma-separated subset, e.g. dmd,rcpacing")
    sub.add_argument("--jobs", type=int, default=1, help="parallel rounds")
    sub.add_argument("--force", action="store_true", help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdpacer",
        description="Budget-pacing simulation for guaranteed-display delivery")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run the configured experiment")
    _add_common(p_run, "out")
    p_run.add_argument("--format", choices=("json", "csv"), default="csv")
    p_run.set_defaults(func=cmd_run)

    p_ab = subs.add_parser("ablate", help="full-factorial hyperparameter sweep")
    _add_common(p_ab, "out")
    p_ab.set_defaults(func=cmd_ablate)

    p_val = subs.add_parser("validate", help="numeric distribution/transform checks")
    p_val.set_defaults(func=cmd_validate)

    p_rep = subs.add_parser("report", help="render a comparison table from rounds files")
    p_rep.add_argument("rounds", nargs="+", help="rounds.csv file(s)")
    p_rep.add_argument("--out", default=None, help="also write aggregate.csv here")
    p_rep.add_argument("--force", action="store_true")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    return args.func(args)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
