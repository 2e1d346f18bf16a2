"""The run-matrix axes: their names, values, defaults and enumeration order, pinned.

The seven axes are declared once, in ``core.AXES``; the ``--runs`` filter,
the result run-key columns, the space defaults and the enumeration all
follow from that table, so each is pinned here as literal text.
"""

from dataclasses import fields

from bband_sim import core
from bband_sim.cli import RUN_FILTER_FIELDS, RUN_FILTER_VALUES
from bband_sim.core import (
    AdoptionScenario,
    Backhaul,
    EnergyStrategy,
    Generation,
    Policy,
    ScenarioSpace,
    ScenarioSpec,
    Sharing,
    StrategyBundle,
    StrategySpace,
    enumerate_runs,
)
from bband_sim.pipeline import RUN_KEY_COLUMNS


def test_run_filter_fields_and_values():
    assert RUN_FILTER_FIELDS == ("generation", "backhaul", "sharing", "policy", "energy", "capacity", "adoption")
    assert RUN_FILTER_VALUES == {
        "generation": ["4G", "5G"],
        "backhaul": ["wireless", "fiber"],
        "sharing": ["baseline", "passive", "active", "srn"],
        "policy": ["baseline", "low_tax", "high_tax", "low_spectrum", "high_spectrum"],
        "energy": ["baseline", "renewables"],
        "adoption": ["low", "baseline", "high"],
    }
    assert list(RUN_FILTER_VALUES) == ["generation", "backhaul", "sharing", "policy", "energy", "adoption"]


def test_run_key_columns():
    assert RUN_KEY_COLUMNS == (
        "generation", "backhaul", "sharing", "policy", "energy_strategy", "capacity_gb_month", "adoption",
    )


def test_space_defaults():
    assert StrategySpace() == StrategySpace(
        generations=(Generation.G4, Generation.G5),
        backhauls=(Backhaul.WIRELESS, Backhaul.FIBER),
        sharings=(Sharing.BASELINE, Sharing.PASSIVE, Sharing.ACTIVE, Sharing.SRN),
        policies=(Policy.BASELINE, Policy.LOW_TAX, Policy.HIGH_TAX, Policy.LOW_SPECTRUM, Policy.HIGH_SPECTRUM),
        energy_strategies=(EnergyStrategy.BASELINE, EnergyStrategy.RENEWABLES),
    )
    assert all(isinstance(v, tuple) for v in vars(StrategySpace()).values())
    assert ScenarioSpace() == ScenarioSpace(
        capacities_gb_month=(20.0, 30.0, 40.0),
        adoptions=(AdoptionScenario.LOW, AdoptionScenario.BASELINE, AdoptionScenario.HIGH),
        start_year=2023,
        end_year=2030,
        discount_rate=0.05,
    )
    assert isinstance(ScenarioSpace().adoptions, tuple)


def test_first_and_last_runs():
    runs = enumerate_runs(StrategySpace(), ScenarioSpace())
    assert runs[0] == (
        StrategyBundle(Generation.G4, Backhaul.WIRELESS, Sharing.BASELINE, Policy.BASELINE, EnergyStrategy.BASELINE),
        ScenarioSpec(20.0, AdoptionScenario.LOW, 2023, 2030, 0.05),
    )
    assert runs[1][1].adoption is AdoptionScenario.BASELINE  # the last axis varies fastest
    assert runs[-1] == (
        StrategyBundle(Generation.G5, Backhaul.FIBER, Sharing.SRN, Policy.HIGH_SPECTRUM, EnergyStrategy.RENEWABLES),
        ScenarioSpec(40.0, AdoptionScenario.HIGH, 2023, 2030, 0.05),
    )


def test_axes_table_matches_the_dataclasses():
    strategy = [f.name for f in fields(StrategyBundle)]
    scenario = [f.name for f in fields(ScenarioSpec)][:2]
    assert [axis.name for axis in core.AXES] == strategy + scenario
    spaces = [f.name for f in fields(StrategySpace)] + [f.name for f in fields(ScenarioSpace)][:2]
    assert [axis.field for axis in core.AXES] == spaces
    assert [f.name for f in fields(ScenarioSpace)][2:] == [f.name for f in fields(ScenarioSpec)][2:]
    assert [axis.kind for axis in core.AXES] == [
        Generation, Backhaul, Sharing, Policy, EnergyStrategy, float, AdoptionScenario,
    ]
