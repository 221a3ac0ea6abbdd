"""Scenario configuration, synthetic stream generation, and the experiment
driver that replays budget-scaled rounds across algorithms.

Determinism contract: everything is derived from `ScenarioConfig.seed`
through fixed-purpose substreams (stream generation, per round when the
stream is regenerated, per-round budget scaling, per-(algorithm, round)
runs), so identical configs reproduce identical traces byte for byte, and
computing round k alone yields the same report as computing it within a
longer round loop.
"""

from __future__ import annotations

import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from .engine import (_TAGS, RUNNERS, DeliveryTrace, PreparedStream, RunConfig, _substream, prepare,
                     run_seed)
from .metrics import ALGORITHM_ORDER, MetricsReport, build_report
from .pacing import PacingHyperParams
from .quality import BetaQualityModel, DomainError
from .streams import ImpressionStream, PeriodBatch

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
        self._validate_settings()
        if not self.campaigns:
            raise ConfigError("scenario has no campaigns")
        ids = [c.id for c in self.campaigns]
        if len(set(ids)) != len(ids):
            raise ConfigError("campaign ids must be unique")
        unknown = sorted(set(self.drift_models or ()) - set(ids))
        if unknown:
            raise ConfigError(f"drift_models names unknown campaigns {unknown}")

    def _validate_settings(self) -> None:
        """The checks that involve no campaign, made before any is synthesized."""
        if self.num_periods < 1 or self.requests_per_period < 1:
            raise ConfigError("num_periods and requests_per_period must be >= 1")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed must lie in [0, 2^63), got {self.seed}")
        lo, hi = self.budget_scale_range
        if not 0.0 < lo <= hi:
            raise ConfigError(f"invalid budget_scale_range {self.budget_scale_range}")
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one algorithm")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError(f"algorithms must not repeat, got {list(self.algorithms)}")
        unknown = [a for a in self.algorithms if a not in RUNNERS]
        if unknown:
            raise ConfigError(f"unknown algorithms {unknown}; choose from {sorted(RUNNERS)}")
        if self.drift_period is not None and not 0 <= self.drift_period < self.num_periods:
            raise ConfigError(f"drift_period {self.drift_period} outside the horizon")
        if (self.drift_period is None) != (not self.drift_models):
            raise ConfigError("drift_models needs a drift_period" if self.drift_period is None
                              else "drift_period needs a non-empty drift_models")

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
    rng = _substream(seed, _TAGS["synth"])
    specs = []
    for j in range(count):
        budget = max(1, int(round(float(np.exp(rng.uniform(np.log(budget_range[0]),
                                                           np.log(budget_range[1])))))))
        floor = min(recall_range[1], supply_margin * budget / total_requests)
        lo = max(recall_range[0], floor)
        recall = float(rng.uniform(lo, recall_range[1])) if lo < recall_range[1] else lo
        m, n = float(rng.uniform(2.0, 6.0)), float(rng.uniform(2.0, 8.0))
        specs.append(CampaignSpec(id=j, budget=budget, recall_prob=recall,
                                  quality_model=BetaQualityModel(m, n)))
    return specs


def default_scenario(seed: int = 0, **overrides) -> ScenarioConfig:
    """Desk-scale default: 50 periods x 1200 requests, 30 campaigns whose
    total demand sits a little above a quarter of total supply."""
    cfg = ScenarioConfig(seed=seed, **overrides)
    cfg.campaigns = synth_campaigns(30, cfg.total_requests, seed=seed)
    return cfg


def generate_stream(config: ScenarioConfig, round_index: int | None = None) -> ImpressionStream:
    """Synthesize the request stream from the substream (seed, stream tag),
    or (seed, stream tag, round_index) for a stream regenerated per round.

    Per period, recall flags are independent Bernoulli draws per (request,
    campaign); recalled pairs get a quality draw from the campaign's beta law
    (the drifted law from `drift_period` on).  Qualities are rounded to the
    6-decimal CSV quantum and clamped inside (0, 1) at generation time, so a
    stream file carries them exactly.
    """
    specs = sorted(config.campaigns, key=lambda s: s.id)
    keys = (config.seed, _TAGS["stream"]) + (() if round_index is None else (round_index,))
    rng = _substream(*keys)
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
    v_cm = np.empty(M * R)                     # campaign-major: v_cm[j * R + r] is edge (r, j)
    for t in range(config.num_periods):
        mask = rng.random((R, M)) < p
        mn = drifted if config.drift_period is not None and t >= config.drift_period else base
        n = np.count_nonzero(mask, axis=0)     # one campaign's draws after another
        draws = rng.beta(np.repeat(mn[:, 0], n), np.repeat(mn[:, 1], n))
        v_cm[np.flatnonzero(mask.T)] = np.clip(np.round(draws, _QUALITY_QUANTUM), 1e-6, 1.0 - 1e-6)
        req, col = np.divmod(np.flatnonzero(mask), M)  # row-major: (request, ascending campaign)
        periods.append(PeriodBatch(request_ids=np.arange(t * R, (t + 1) * R, dtype=np.int64),
                                   req=req, camp=ids[col], v=v_cm[col * R + req]))
    return ImpressionStream(periods=periods)


def scale_budgets(specs: list[CampaignSpec], round_index: int, seed: int,
                  scale_range: tuple[float, float] = (0.8, 1.2)) -> list[CampaignSpec]:
    """Per-round budget perturbation: independent uniform factors per
    campaign, rounded to the nearest impression, floored at 1."""
    rng = _substream(seed, _TAGS["scale"], round_index)
    factors = rng.uniform(scale_range[0], scale_range[1], size=len(specs))
    return [replace(spec, budget=max(1, int(round(spec.budget * f))))
            for spec, f in zip(sorted(specs, key=lambda s: s.id), factors)]


def _prepared_stream(config: ScenarioConfig, round_index: int | None = None) -> PreparedStream:
    return prepare(generate_stream(config, round_index=round_index),
                   [c.id for c in config.campaigns])


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
        stream = shared if shared is not None else _prepared_stream(config, r)
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

# The JSON kind of each scalar scenario key; a hyperparameter's is its
# default's, and a campaign's fields have theirs in `_parse_campaigns`.
_SCALARS = {"num_periods": int, "requests_per_period": int, "seed": int, "rounds": int,
            "drift_period": int, "regenerate_stream_per_round": bool}
_HYPER_KINDS = {f.name: type(f.default) for f in fields(PacingHyperParams)}
_SCENARIO_FIELDS = {f.name for f in fields(ScenarioConfig)}
_NULLABLE = {f.name for f in fields(ScenarioConfig) if f.default is None}
_KIND_TEXT = {int: "an integer within int64", float: "finite and numeric",
              bool: "a JSON boolean", str: "a string"}
_DECIMAL = re.compile(r"-?[1-9][0-9]{0,18}|0")     # a canonical ASCII decimal
_MAX_SYNTH_CAMPAIGNS = 10_000       # synthesis is a Python loop over the campaigns


def _read(value, kind: type, where: str):
    """`value` as a config value of `kind`, or a ConfigError naming `where`; no
    value is coerced or truncated.  An int is an int or integral float within
    int64, a float a number of magnitude <= the largest double (NaN fails that),
    neither a bool; a bool is a JSON boolean, a str a string."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and -2 ** 63 <= value < 2 ** 63 and value == int(value) if kind is int else
            number and abs(value) <= sys.float_info.max if kind is float else
            isinstance(value, kind)):
        raise ConfigError(f"{where} must be {_KIND_TEXT[kind]}, got {value!r}")
    return kind(value)


def read_decimal(text: str, where: str, what: str = "an integer") -> int:
    """`text` as a config int, or a ConfigError naming `where`: it must be a
    canonical ASCII decimal (no sign but '-', no leading zero, space or '_')
    within int64."""
    if not _DECIMAL.fullmatch(text):
        raise ConfigError(f"{where} {text!r} is not {what} in canonical decimal form")
    return _read(int(text), int, where)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ConfigError on a repeated key, which json
    would otherwise resolve silently to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _keys(obj, where: str, allowed, noun: str = "keys", required=()) -> dict:
    """`obj` if it is a JSON object whose keys are among `allowed` and include `required`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    for problem, names in ((f"unknown {noun}", set(obj) - set(allowed)),
                           ("missing keys", set(required) - set(obj))):
        if names:
            raise ConfigError(f"{where}: {problem} {sorted(names)}")
    return obj


def _as_range(value, where: str, top: float = sys.float_info.max) -> tuple[float, float]:
    """A [low, high] config pair of numbers with 0 < low <= high <= top."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where} must be a [low, high] pair, got {value!r}")
    low, high = (_read(x, float, f"{where}[{i}]") for i, x in enumerate(value))
    if not 0 < low <= high <= top:
        raise ConfigError(f"{where} must satisfy 0 < low <= high <= {top:g}, got {value!r}")
    return low, high


def _parse_model(obj, where: str) -> BetaQualityModel:
    if not isinstance(obj, dict) or set(obj) != {"m", "n"}:
        raise ConfigError(f"{where} must be an object with keys m, n")
    try:
        return BetaQualityModel(*(_read(obj[k], float, f"{where}.{k}") for k in "mn"))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_campaigns(obj, cfg: ScenarioConfig) -> list[CampaignSpec]:
    if isinstance(obj, dict):
        gen = _keys(obj, "campaigns", ("count", "budget_range", "recall_range", "supply_margin"),
                    "generator keys")
        if "count" not in gen:
            raise ConfigError("campaigns: generator form requires a count")
        count = _read(gen["count"], int, "campaigns.count")
        if count > _MAX_SYNTH_CAMPAIGNS:
            raise ConfigError(f"campaigns.count must be <= {_MAX_SYNTH_CAMPAIGNS}, got {count}")
        kwargs = {key: _as_range(gen[key], f"campaigns.{key}", top)
                  for key, top in (("budget_range", sys.float_info.max), ("recall_range", 1.0))
                  if key in gen}
        if "supply_margin" in gen:
            margin = _read(gen["supply_margin"], float, "campaigns.supply_margin")
            if margin <= 0:
                raise ConfigError(f"campaigns.supply_margin must be > 0, got {margin}")
            kwargs["supply_margin"] = margin
        cfg._validate_settings()        # synthesis divides by the horizon and seeds from the seed
        return synth_campaigns(count, cfg.total_requests, seed=cfg.seed, **kwargs)
    if not isinstance(obj, list):
        raise ConfigError("campaigns must be a list of campaign objects or a generator object")
    keys = ("id", "budget", "recall_prob", "quality_model")
    specs = []
    for k, entry in enumerate(obj):
        where = f"campaigns[{k}]"
        _keys(entry, where, keys, required=keys)
        specs.append(CampaignSpec(
            id=_read(entry["id"], int, f"{where}.id"),
            budget=_read(entry["budget"], int, f"{where}.budget"),
            recall_prob=_read(entry["recall_prob"], float, f"{where}.recall_prob"),
            quality_model=_parse_model(entry["quality_model"], f"{where}.quality_model")))
    return specs


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """The scenario a config object describes.  Each value is read once, by
    its field's kind (`_read`); the domain checks are those of `CampaignSpec`,
    `BetaQualityModel`, `PacingHyperParams` and `ScenarioConfig.validate`."""
    _keys(data, "scenario config", _SCENARIO_FIELDS, "scenario keys")
    data = {k: v for k, v in data.items() if v is not None or k not in _NULLABLE}
    cfg = ScenarioConfig(**{k: _read(data[k], kind, k) for k, kind in _SCALARS.items()
                            if k in data})
    if "algorithms" in data:
        names = data["algorithms"]
        if not isinstance(names, list):
            raise ConfigError(f"algorithms must be a list of names, got {names!r}")
        cfg.algorithms = tuple(_read(a, str, f"algorithms[{i}]") for i, a in enumerate(names))
    if "budget_scale_range" in data:
        cfg.budget_scale_range = _as_range(data["budget_scale_range"], "budget_scale_range")
    if "hyperparams" in data:
        hp = _keys(data["hyperparams"], "hyperparams", _HYPER_KINDS, "hyperparameter keys")
        try:
            cfg.hyperparams = PacingHyperParams(**{
                k: _read(v, _HYPER_KINDS[k], f"hyperparams.{k}") for k, v in hp.items()})
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
    if "drift_models" in data:
        models = data["drift_models"]
        if not isinstance(models, dict):
            raise ConfigError("drift_models must map campaign id -> quality model")
        cfg.drift_models = {}
        for key, model in models.items():
            cfg.drift_models[read_decimal(str(key), "drift_models key", "a campaign id")] = \
                _parse_model(model, f"drift_models[{key}]")
    if "ablation" in data:
        grid = _keys(data["ablation"], "ablation", _HYPER_KINDS, "hyperparameter keys")
        for name, values in grid.items():
            if not (isinstance(values, list) and values):
                raise ConfigError(f"ablation.{name} must be a non-empty list of values, "
                                  f"got {values!r}")
        cfg.ablation = {name: [_read(v, _HYPER_KINDS[name], f"an ablation cell's {name}")
                               for v in values] for name, values in grid.items()}
        for overrides in ablation_cells(cfg):
            try:
                replace(cfg.hyperparams, **overrides)
            except DomainError as exc:
                raise ConfigError(f"ablation cell {overrides}: {exc}") from None
    if "campaigns" in data:
        cfg.campaigns = _parse_campaigns(data["campaigns"], cfg)

    cfg.validate()
    return cfg


def read_scenario_json(path) -> dict:
    """The JSON object in the scenario config file at `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except ValueError as exc:       # bad JSON or UTF-8, or an int past the digit limit
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return _keys(data, str(path), _SCENARIO_FIELDS, "scenario keys")


def load_scenario_config(path) -> ScenarioConfig:
    return scenario_from_dict(read_scenario_json(path))
