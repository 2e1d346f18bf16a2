"""Deterministic scenario simulator for universal mobile broadband planning.

Estimates, per country and population-density decile, the financial cost,
energy consumption and operational emissions (2023-2030) of strategies
combining radio generation, backhaul type, infrastructure sharing, fiscal
policy and off-grid energy sourcing.
"""

__version__ = "0.1.0"

from .core import (
    AdoptionScenario,
    Backhaul,
    CountryParams,
    Deciles,
    EnergyStrategy,
    Generation,
    IncomeGroup,
    Policy,
    Regions,
    ScenarioSpace,
    ScenarioSpec,
    Settlement,
    Sharing,
    StrategyBundle,
    StrategySpace,
    classify_settlement,
    enumerate_runs,
)
from .data_io import InputBundle, load_bundle, save_bundle
from .errors import BbandSimError, InputValidationError, MissingDataError, ValidationError


def __getattr__(name):
    # The pipeline exports resolve on first use, so importing the package does not import numpy.
    if name in ("PipelineOutput", "emit_results", "run_pipeline"):
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdoptionScenario",
    "Backhaul",
    "BbandSimError",
    "CountryParams",
    "Deciles",
    "EnergyStrategy",
    "Generation",
    "IncomeGroup",
    "InputBundle",
    "InputValidationError",
    "MissingDataError",
    "PipelineOutput",
    "Policy",
    "Regions",
    "ScenarioSpace",
    "ScenarioSpec",
    "Settlement",
    "Sharing",
    "StrategyBundle",
    "StrategySpace",
    "ValidationError",
    "classify_settlement",
    "emit_results",
    "enumerate_runs",
    "load_bundle",
    "run_pipeline",
    "save_bundle",
]
