"""Deterministic budget-pacing simulator for guaranteed-display delivery.

Submodules: `quality` (beta quality laws and the percentile transform),
`pacing` (throttling and dual-update primitives), `streams` (request-stream
containers and CSV IO), `engine` (the delivery loops), `simulate` (scenario
configs and the experiment driver), `metrics` (evaluation metrics and the
exact hindsight optimum), `theory` (numeric distribution checks), `cli`
(operator entry point).
"""

from .engine import (RUNNERS, DeliveryTrace, PreparedStream, RunConfig, prepare, run_dmd,
                     run_rcpacing, run_seed, run_smart_baseline)
from .metrics import (
    HindsightOptimum,
    MetricsReport,
    aggregate_rounds,
    average_ctr,
    build_report,
    delivery_rate,
    hindsight_optimum,
    regret,
    unsmoothness,
)
from .pacing import PacingHyperParams
from .quality import BetaQualityModel
from .simulate import (
    CampaignSpec,
    ScenarioConfig,
    default_scenario,
    generate_stream,
    load_scenario_config,
    run_experiment,
    synth_campaigns,
)
from .streams import ImpressionStream, load_stream_csv, save_stream_csv

__version__ = "0.1.0"

__all__ = [
    "BetaQualityModel",
    "CampaignSpec",
    "DeliveryTrace",
    "HindsightOptimum",
    "ImpressionStream",
    "MetricsReport",
    "PacingHyperParams",
    "PreparedStream",
    "RunConfig",
    "RUNNERS",
    "ScenarioConfig",
    "aggregate_rounds",
    "average_ctr",
    "build_report",
    "default_scenario",
    "delivery_rate",
    "generate_stream",
    "hindsight_optimum",
    "load_scenario_config",
    "load_stream_csv",
    "prepare",
    "regret",
    "run_dmd",
    "run_experiment",
    "run_rcpacing",
    "run_seed",
    "run_smart_baseline",
    "save_stream_csv",
    "synth_campaigns",
    "unsmoothness",
    "__version__",
]
