"""Scenario configuration, synthetic stream generation, and the experiment
driver that replays budget-scaled rounds across algorithms.

Determinism contract: everything is derived from `ScenarioConfig.seed`
through fixed-purpose substreams (stream generation, per-round budget
scaling, per-(algorithm, round) runs), so identical configs reproduce
identical traces byte for byte, and computing round k alone yields the same
report as computing it within a longer round loop.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from .engine import RUNNERS, DeliveryTrace, PreparedStream, RunConfig, prepare, run_seed
from .metrics import ALGORITHM_ORDER, MetricsReport, build_report
from .pacing import PacingHyperParams
from .quality import BetaQualityModel, DomainError
from .streams import ImpressionStream, PeriodBatch

_TAG_STREAM = 1
_TAG_SCALE = 3
_TAG_SYNTH = 5

_QUALITY_QUANTUM = 6  # fractional digits in the stream CSV schema


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration content."""


@dataclass(frozen=True)
class CampaignSpec:
    id: int
    budget: int
    recall_prob: float
    quality_model: BetaQualityModel

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigError(f"campaign {self.id}: budget must be >= 1, got {self.budget}")
        if not 0.0 < self.recall_prob <= 1.0:
            raise ConfigError(f"campaign {self.id}: recall_prob must lie in (0, 1], "
                              f"got {self.recall_prob}")


@dataclass
class ScenarioConfig:
    num_periods: int = 50
    requests_per_period: int = 1200
    campaigns: list[CampaignSpec] = field(default_factory=list)
    seed: int = 0
    hyperparams: PacingHyperParams = field(default_factory=PacingHyperParams)
    algorithms: tuple[str, ...] = ALGORITHM_ORDER
    rounds: int = 10
    budget_scale_range: tuple[float, float] = (0.8, 1.2)
    # mid-run non-stationarity hook: from drift_period on, listed campaigns
    # sample qualities from the replacement model instead
    drift_period: int | None = None
    drift_models: dict[int, BetaQualityModel] | None = None
    regenerate_stream_per_round: bool = False
    # grid for the ablate command: {hyperparam name: list of values}
    ablation: dict[str, list] | None = None

    def validate(self) -> None:
        if self.num_periods < 1 or self.requests_per_period < 1:
            raise ConfigError("num_periods and requests_per_period must be >= 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not self.campaigns:
            raise ConfigError("scenario has no campaigns")
        ids = [c.id for c in self.campaigns]
        if len(set(ids)) != len(ids):
            raise ConfigError("campaign ids must be unique")
        lo, hi = self.budget_scale_range
        if not 0.0 < lo <= hi:
            raise ConfigError(f"invalid budget_scale_range {self.budget_scale_range}")
        unknown = [a for a in self.algorithms if a not in RUNNERS]
        if unknown:
            raise ConfigError(f"unknown algorithms {unknown}; choose from {sorted(RUNNERS)}")
        if self.drift_period is not None and not 0 <= self.drift_period < self.num_periods:
            raise ConfigError(f"drift_period {self.drift_period} outside the horizon")
        unknown = sorted(set(self.drift_models or ()) - set(ids))
        if unknown:
            raise ConfigError(f"drift_models names unknown campaigns {unknown}")

    @property
    def total_requests(self) -> int:
        return self.num_periods * self.requests_per_period


def synth_campaigns(count: int, total_requests: int, seed: int = 0,
                    budget_range: tuple[float, float] = (40.0, 2500.0),
                    recall_range: tuple[float, float] = (0.05, 0.8),
                    supply_margin: float = 3.3) -> list[CampaignSpec]:
    """Heterogeneous campaign population.

    Budgets are drawn log-uniformly across `budget_range`; each campaign's
    recall probability is drawn uniformly but floored so its expected
    recalled supply covers its budget at least `supply_margin` times over.
    Quality laws are Beta(m, n) with shapes drawn in [2, 8].
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, _TAG_SYNTH])))
    specs = []
    for j in range(count):
        budget = int(round(float(np.exp(rng.uniform(np.log(budget_range[0]),
                                                    np.log(budget_range[1]))))))
        budget = max(1, budget)
        floor = min(recall_range[1], supply_margin * budget / total_requests)
        lo = max(recall_range[0], floor)
        recall = float(rng.uniform(lo, recall_range[1])) if lo < recall_range[1] else lo
        m = float(rng.uniform(2.0, 6.0))
        n = float(rng.uniform(2.0, 8.0))
        specs.append(CampaignSpec(id=j, budget=budget, recall_prob=recall,
                                  quality_model=BetaQualityModel(m, n)))
    return specs


def default_scenario(seed: int = 0, num_campaigns: int = 30, **overrides) -> ScenarioConfig:
    """Desk-scale default: 50 periods x 1200 requests, 30 campaigns whose
    total demand sits a little above a quarter of total supply."""
    cfg = ScenarioConfig(seed=seed, **overrides)
    cfg.campaigns = synth_campaigns(num_campaigns, cfg.total_requests, seed=seed)
    return cfg


def generate_stream(config: ScenarioConfig, seed: int | None = None) -> ImpressionStream:
    """Synthesize the request stream.

    Per period, recall flags are independent Bernoulli draws per (request,
    campaign); recalled pairs get a quality draw from the campaign's beta law
    (the drifted law from `drift_period` on).  Qualities are rounded to the
    6-decimal CSV quantum and clamped inside (0, 1) at generation time, so a
    stream file carries them exactly.
    """
    specs = sorted(config.campaigns, key=lambda s: s.id)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed if seed is not None else config.seed, _TAG_STREAM])))
    M = len(specs)
    R = config.requests_per_period
    p = np.array([s.recall_prob for s in specs])
    ids = np.asarray([spec.id for spec in specs], dtype=np.int64)
    drift = config.drift_models or {}

    def shapes(models) -> np.ndarray:      # (M, 2): each campaign's beta m, n
        return np.array([(q.m, q.n) for q in models]).reshape(M, 2)
    base = shapes(s.quality_model for s in specs)
    drifted = shapes(drift.get(s.id, s.quality_model) for s in specs)
    periods = []
    next_id = 0
    for t in range(config.num_periods):
        mask = rng.random((R, M)) < p
        mn = drifted if config.drift_period is not None and t >= config.drift_period else base
        cols, rows = np.nonzero(mask.T)        # campaign-major: one campaign's draws after another
        draws = rng.beta(mn[cols, 0], mn[cols, 1])
        v_mat = np.zeros((R, M))
        v_mat[rows, cols] = np.clip(np.round(draws, _QUALITY_QUANTUM), 1e-6, 1.0 - 1e-6)
        rows, cols = np.nonzero(mask)          # row-major: (request, ascending campaign)
        periods.append(PeriodBatch(
            request_ids=np.arange(next_id, next_id + R, dtype=np.int64),
            req=rows.astype(np.int64),
            camp=ids[cols],
            v=v_mat[rows, cols],
        ))
        next_id += R
    return ImpressionStream(periods=periods)


def scale_budgets(specs: list[CampaignSpec], round_index: int, seed: int,
                  scale_range: tuple[float, float] = (0.8, 1.2)) -> list[CampaignSpec]:
    """Per-round budget perturbation: independent uniform factors per
    campaign, rounded to the nearest impression, floored at 1."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, _TAG_SCALE, round_index])))
    factors = rng.uniform(scale_range[0], scale_range[1], size=len(specs))
    out = []
    for spec, f in zip(sorted(specs, key=lambda s: s.id), factors):
        out.append(replace(spec, budget=max(1, int(round(spec.budget * f)))))
    return out


def _prepared_stream(config: ScenarioConfig, seed: int | None = None) -> PreparedStream:
    return prepare(generate_stream(config, seed=seed), [c.id for c in config.campaigns])


def ablation_cells(config: ScenarioConfig) -> list[dict]:
    """The hyperparameter overrides of every cell of `config.ablation`, in
    `itertools.product` order; one cell without overrides when there is no grid."""
    grid = config.ablation or {}
    return [dict(zip(grid, cell)) for cell in product(*grid.values())]


def _run_rounds(config: ScenarioConfig, rounds: range, cells: list[dict],
                ) -> tuple[list[list[MetricsReport]], dict[str, DeliveryTrace]]:
    """Per cell, the reports of `rounds` in (round, algorithm) order, and the
    first cell's round-0 traces when round 0 is one of them.

    Each round's stream is prepared once, for all rounds unless it is
    regenerated per round, and its budgets are scaled once; every cell and
    algorithm runs on it, so all of them reuse its densified periods and
    transform fits."""
    shared = None if config.regenerate_stream_per_round else _prepared_stream(config)
    params = [replace(config.hyperparams, **overrides) for overrides in cells]
    reports: list[list[MetricsReport]] = [[] for _ in cells]
    traces0: dict[str, DeliveryTrace] = {}
    for r in rounds:
        stream = shared if shared is not None else _prepared_stream(config, config.seed + r)
        specs = scale_budgets(config.campaigns, r, config.seed, config.budget_scale_range)
        for k, hyper in enumerate(params):
            for algo in config.algorithms:
                run_cfg = RunConfig(params=hyper, seed=run_seed(config.seed, algo, r))
                trace = RUNNERS[algo](stream, specs, run_cfg)
                reports[k].append(build_report(trace, specs, algo, r))
                if r == 0 and k == 0:
                    traces0[algo] = trace
    return reports, traces0


def _sweep(config: ScenarioConfig, cells: list[dict], jobs: int,
           ) -> tuple[list[list[MetricsReport]], dict[str, DeliveryTrace]]:
    """`_run_rounds` over all rounds.  With `jobs` > 1 the rounds are split
    into that many contiguous chunks, one per worker process; each worker
    prepares its own stream and runs every cell."""
    config.validate()
    jobs = max(1, min(jobs, config.rounds))
    if jobs == 1:
        return _run_rounds(config, range(config.rounds), cells)
    chunks = [range(k * config.rounds // jobs, (k + 1) * config.rounds // jobs)
              for k in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_run_rounds, [config] * jobs, chunks, [cells] * jobs))
    return [[rep for reps, _ in parts for rep in reps[k]] for k in range(len(cells))], \
        parts[0][1]


def run_experiment(config: ScenarioConfig, jobs: int = 1) -> list[MetricsReport]:
    """All rounds for all configured algorithms, in (round, algorithm) order."""
    reports, _ = run_experiment_detailed(config, jobs=jobs)
    return reports


def run_experiment_detailed(config: ScenarioConfig, jobs: int = 1,
                            ) -> tuple[list[MetricsReport], dict[str, DeliveryTrace]]:
    """As run_experiment, but also returns round 0's traces for series export.
    `config.ablation` is ignored; `jobs` splits the rounds as in `_sweep`."""
    reports, traces0 = _sweep(config, [{}], jobs)
    return reports[0], traces0


def run_ablation(config: ScenarioConfig, jobs: int = 1,
                 ) -> list[tuple[dict, list[MetricsReport]]]:
    """Each cell of the `config.ablation` grid (see `ablation_cells`) with its
    reports, as `run_experiment` gives them for the config with the cell's
    hyperparameter overrides; every cell runs on each round's one prepared
    stream, and `jobs` splits the rounds as in `_sweep`."""
    cells = ablation_cells(config)
    reports, _ = _sweep(config, cells, jobs)
    return list(zip(cells, reports))


# --- config file IO -------------------------------------------------------------

_HYPER_FIELDS = {f.name for f in fields(PacingHyperParams)}
_SCENARIO_FIELDS = {f.name for f in fields(ScenarioConfig)}


def _as_int(value, where: str) -> int:
    """An integer config value; a non-integral number is refused, not truncated."""
    if not _is_number(value) or not float(value).is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_range(value, where: str, top: float = sys.float_info.max) -> tuple[float, float]:
    """A [low, high] config pair of finite numbers with 0 < low <= high <= top."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))
            and 0 < value[0] <= value[1] <= top):
        raise ConfigError(f"{where} must be a [low, high] pair of finite numbers with "
                          f"0 < low <= high <= {top:g}, got {value!r}")
    return float(value[0]), float(value[1])


def _drift_id(key) -> int:
    """A `drift_models` key: a campaign id, as a JSON object key string."""
    try:
        return int(key)
    except (TypeError, ValueError):
        raise ConfigError(f"drift_models key {key!r} is not a campaign id") from None


def _parse_model(obj, where: str) -> BetaQualityModel:
    if not isinstance(obj, dict) or set(obj) != {"m", "n"}:
        raise ConfigError(f"{where}: quality model must be an object with keys m, n")
    try:
        return BetaQualityModel(float(obj["m"]), float(obj["n"]))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_campaigns(obj, total_requests: int, seed: int) -> list[CampaignSpec]:
    if isinstance(obj, dict):
        unknown = set(obj) - {"count", "budget_range", "recall_range", "supply_margin"}
        if unknown:
            raise ConfigError(f"campaigns: unknown generator keys {sorted(unknown)}")
        if "count" not in obj:
            raise ConfigError("campaigns: generator form requires a count")
        kwargs = {}
        if "budget_range" in obj:
            kwargs["budget_range"] = _as_range(obj["budget_range"], "campaigns.budget_range")
        if "recall_range" in obj:
            kwargs["recall_range"] = _as_range(obj["recall_range"], "campaigns.recall_range", 1.0)
        if "supply_margin" in obj:
            margin = obj["supply_margin"]
            if not (_is_number(margin) and 0 < margin <= sys.float_info.max):
                raise ConfigError(f"campaigns.supply_margin must be finite and > 0, got {margin!r}")
            kwargs["supply_margin"] = float(margin)
        return synth_campaigns(_as_int(obj["count"], "campaigns.count"), total_requests,
                               seed=seed, **kwargs)
    if not isinstance(obj, list):
        raise ConfigError("campaigns must be a list of campaign objects or a generator object")
    specs = []
    for k, entry in enumerate(obj):
        where = f"campaigns[{k}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        unknown = set(entry) - {"id", "budget", "recall_prob", "quality_model"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {"id", "budget", "recall_prob", "quality_model"} - set(entry)
        if missing:
            raise ConfigError(f"{where}: missing keys {sorted(missing)}")
        specs.append(CampaignSpec(
            id=_as_int(entry["id"], f"{where}.id"),
            budget=_as_int(entry["budget"], f"{where}.budget"),
            recall_prob=float(entry["recall_prob"]),
            quality_model=_parse_model(entry["quality_model"], where),
        ))
    return specs


def scenario_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    unknown = set(data) - _SCENARIO_FIELDS
    if unknown:
        raise ConfigError(f"unknown scenario keys {sorted(unknown)}")

    cfg = ScenarioConfig()
    for key in ("num_periods", "requests_per_period", "seed", "rounds"):
        if key in data:
            setattr(cfg, key, _as_int(data[key], key))
    if "algorithms" in data:
        cfg.algorithms = tuple(data["algorithms"])
    if "budget_scale_range" in data:
        pair = data["budget_scale_range"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError("budget_scale_range must be a [low, high] pair")
        cfg.budget_scale_range = (float(pair[0]), float(pair[1]))
    if "regenerate_stream_per_round" in data:
        cfg.regenerate_stream_per_round = bool(data["regenerate_stream_per_round"])
    if "hyperparams" in data:
        hp = data["hyperparams"]
        if not isinstance(hp, dict):
            raise ConfigError("hyperparams must be an object")
        unknown = set(hp) - _HYPER_FIELDS
        if unknown:
            raise ConfigError(f"unknown hyperparameter keys {sorted(unknown)}")
        try:
            cfg.hyperparams = PacingHyperParams(**hp)
        except (DomainError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
    if "drift_period" in data and data["drift_period"] is not None:
        cfg.drift_period = _as_int(data["drift_period"], "drift_period")
    if "drift_models" in data and data["drift_models"] is not None:
        models = data["drift_models"]
        if not isinstance(models, dict):
            raise ConfigError("drift_models must map campaign id -> quality model")
        cfg.drift_models = {_drift_id(cid): _parse_model(m, f"drift_models[{cid}]")
                            for cid, m in models.items()}
    if "ablation" in data and data["ablation"] is not None:
        ab = data["ablation"]
        if not (isinstance(ab, dict) and all(isinstance(vs, list) for vs in ab.values())):
            raise ConfigError("ablation must map hyperparameter name -> list of values")
        unknown = set(ab) - _HYPER_FIELDS
        if unknown:
            raise ConfigError(f"ablation: unknown hyperparameter keys {sorted(unknown)}")
        cfg.ablation = {k: list(vs) for k, vs in ab.items()}
        for overrides in ablation_cells(cfg):
            try:
                replace(cfg.hyperparams, **overrides)
            except (DomainError, TypeError) as exc:
                raise ConfigError(f"ablation cell {overrides}: {exc}") from None
    if "campaigns" in data:
        cfg.campaigns = _parse_campaigns(data["campaigns"], cfg.total_requests, cfg.seed)

    cfg.validate()
    return cfg


def load_scenario_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data)
