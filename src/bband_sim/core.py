"""Shared domain model: regions, density deciles, strategy and scenario spaces."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from enum import Enum
from functools import reduce
from operator import add
from typing import Iterable

from .errors import MissingDataError, ValidationError


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0, the same bits on every Python (``sum`` compensates from 3.12)."""
    return reduce(add, values, 0.0)


class Generation(str, Enum):
    """Radio access technology generation."""

    G4 = "4G"
    G5 = "5G"


class Backhaul(str, Enum):
    """Site-to-fiber-PoP connection type."""

    WIRELESS = "wireless"
    FIBER = "fiber"


class Sharing(str, Enum):
    """Infrastructure sharing business model."""

    BASELINE = "baseline"
    PASSIVE = "passive"
    ACTIVE = "active"
    SRN = "srn"


class Policy(str, Enum):
    """Fiscal policy variant (taxation and spectrum fee levels)."""

    BASELINE = "baseline"
    LOW_TAX = "low_tax"
    HIGH_TAX = "high_tax"
    LOW_SPECTRUM = "low_spectrum"
    HIGH_SPECTRUM = "high_spectrum"


class EnergyStrategy(str, Enum):
    """Off-grid power sourcing choice."""

    BASELINE = "baseline"
    RENEWABLES = "renewables"


class AdoptionScenario(str, Enum):
    LOW = "low"
    BASELINE = "baseline"
    HIGH = "high"


class Settlement(str, Enum):
    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


class IncomeGroup(str, Enum):
    LIC = "LIC"
    LMC = "LMC"
    UMC = "UMC"
    HIC = "HIC"


# Default density cutoffs (persons/km^2) above which a decile counts as
# urban / suburban. Config-overridable; there is no universal definition.
DEFAULT_URBAN_MIN_DENSITY = 1500.0
DEFAULT_SUBURBAN_MIN_DENSITY = 300.0


@dataclass(frozen=True)
class RegionRecord:
    """One local statistical area, pre-aggregated to a single row."""

    region_id: str
    country_iso3: str
    population: int
    area_km2: float
    existing_sites: int

    def __post_init__(self):
        if not self.region_id:
            raise ValidationError("region_id must be non-empty")
        if self.population < 0:
            raise ValidationError(f"region {self.region_id}: population < 0")
        if not (self.area_km2 > 0):
            raise ValidationError(f"region {self.region_id}: area_km2 must be > 0")
        if self.existing_sites < 0:
            raise ValidationError(f"region {self.region_id}: existing_sites < 0")

    @property
    def pop_density(self) -> float:
        return self.population / self.area_km2


#: Deciles per country: :func:`build_deciles` always returns this many.
N_DECILES = 10


@dataclass(frozen=True)
class DecileRecord:
    """One population-density decile of a country.

    Decile 1 holds the densest regions. A decile with no member regions
    (fewer than 10 regions in the country) is flagged ``degenerate`` and
    contributes nothing downstream.
    """

    country_iso3: str
    decile_index: int
    population: int
    area_km2: float
    existing_sites: int
    pop_density: float
    settlement: Settlement
    degenerate: bool = False

    def __post_init__(self):
        if not 1 <= self.decile_index <= 10:
            raise ValidationError(f"decile_index {self.decile_index} outside 1..10")
        if self.degenerate:
            return
        if not (self.area_km2 > 0):
            raise ValidationError("non-degenerate decile requires area_km2 > 0")
        expected = self.population / self.area_km2
        if not math.isclose(self.pop_density, expected, rel_tol=1e-9, abs_tol=1e-9):
            raise ValidationError(
                f"pop_density {self.pop_density} != population/area {expected}"
            )


@dataclass(frozen=True)
class SpectrumHolding:
    """One licensed carrier in a country's portfolio."""

    frequency_mhz: float
    bandwidth_mhz: float
    generation: Generation

    def __post_init__(self):
        if not (self.frequency_mhz > 0):
            raise ValidationError("frequency_mhz must be > 0")
        if not (self.bandwidth_mhz > 0):
            raise ValidationError("bandwidth_mhz must be > 0")


@dataclass(frozen=True)
class CountryParams:
    """Country-level model inputs for the hypothetical operator."""

    country_iso3: str
    income_group: IncomeGroup
    n_major_operators: int
    spectrum_portfolio: tuple[SpectrumHolding, ...]
    arpu_low: float
    arpu_base: float
    arpu_high: float
    on_grid_share: float
    grid_carbon_intensity_kg_kwh: float

    def __post_init__(self):
        if self.n_major_operators < 1:
            raise ValidationError(f"{self.country_iso3}: n_major_operators < 1")
        if not (0 <= self.arpu_low <= self.arpu_base <= self.arpu_high):
            raise ValidationError(f"{self.country_iso3}: ARPU tiers must be ordered low <= base <= high")
        if not (0 <= self.on_grid_share <= 1):
            raise ValidationError(f"{self.country_iso3}: on_grid_share outside [0, 1]")
        if self.grid_carbon_intensity_kg_kwh < 0:
            raise ValidationError(f"{self.country_iso3}: grid_carbon_intensity < 0")

    @property
    def market_share(self) -> float:
        """Operator market share, one over the number of major operators."""
        return 1.0 / self.n_major_operators

    def holdings(self, generation: Generation) -> tuple[SpectrumHolding, ...]:
        return tuple(h for h in self.spectrum_portfolio if h.generation == generation)


@dataclass(frozen=True)
class StrategyBundle:
    """One point in the strategy space."""

    generation: Generation
    backhaul: Backhaul
    sharing: Sharing
    policy: Policy
    energy_strategy: EnergyStrategy


@dataclass(frozen=True)
class ScenarioSpec:
    """Capacity target and adoption scenario over the assessment horizon."""

    capacity_gb_month: float
    adoption: AdoptionScenario
    start_year: int = 2023
    end_year: int = 2030
    discount_rate: float = 0.05

    def __post_init__(self):
        if not (self.capacity_gb_month > 0):
            raise ValidationError("capacity_gb_month must be > 0")
        if self.end_year < self.start_year:
            raise ValidationError("end_year before start_year")
        if self.discount_rate < 0:
            raise ValidationError("discount_rate must be >= 0")

    @property
    def n_years(self) -> int:
        return self.end_year - self.start_year + 1

    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)


@dataclass(frozen=True)
class StrategySpace:
    """Axes of the strategy enumeration, in definition order."""

    generations: tuple[Generation, ...] = (Generation.G4, Generation.G5)
    backhauls: tuple[Backhaul, ...] = (Backhaul.WIRELESS, Backhaul.FIBER)
    sharings: tuple[Sharing, ...] = (
        Sharing.BASELINE,
        Sharing.PASSIVE,
        Sharing.ACTIVE,
        Sharing.SRN,
    )
    policies: tuple[Policy, ...] = (
        Policy.BASELINE,
        Policy.LOW_TAX,
        Policy.HIGH_TAX,
        Policy.LOW_SPECTRUM,
        Policy.HIGH_SPECTRUM,
    )
    energy_strategies: tuple[EnergyStrategy, ...] = (
        EnergyStrategy.BASELINE,
        EnergyStrategy.RENEWABLES,
    )


@dataclass(frozen=True)
class ScenarioSpace:
    """Axes of the scenario enumeration plus the shared horizon."""

    capacities_gb_month: tuple[float, ...] = (20.0, 30.0, 40.0)
    adoptions: tuple[AdoptionScenario, ...] = (
        AdoptionScenario.LOW,
        AdoptionScenario.BASELINE,
        AdoptionScenario.HIGH,
    )
    start_year: int = 2023
    end_year: int = 2030
    discount_rate: float = 0.05


def classify_settlement(
    pop_density: float,
    thresholds: tuple[float, float] = (DEFAULT_URBAN_MIN_DENSITY, DEFAULT_SUBURBAN_MIN_DENSITY),
) -> Settlement:
    """Map a population density to urban / suburban / rural.

    ``thresholds`` is ``(urban_min, suburban_min)``; both boundaries are
    inclusive on the denser side.
    """
    urban_min, suburban_min = thresholds
    if not (urban_min > suburban_min > 0):
        raise ValidationError("thresholds must satisfy urban_min > suburban_min > 0")
    if not math.isfinite(pop_density) or pop_density < 0:
        raise ValidationError(f"pop_density {pop_density!r} is not a finite non-negative number")
    if pop_density >= urban_min:
        return Settlement.URBAN
    if pop_density >= suburban_min:
        return Settlement.SUBURBAN
    return Settlement.RURAL


def build_deciles(
    regions: list[RegionRecord],
    country_iso3: str,
    thresholds: tuple[float, float] = (DEFAULT_URBAN_MIN_DENSITY, DEFAULT_SUBURBAN_MIN_DENSITY),
) -> list[DecileRecord]:
    """Partition a country's regions into 10 population-density deciles.

    Regions are sorted by descending density (ties broken by ascending
    region_id) and split into 10 contiguous bins of equal region count;
    with ``n = 10q + r`` regions the first ``r`` bins take one extra
    region. Population and site totals are exact integer sums, so they
    are conserved exactly; area is the left-to-right float sum of the
    bin's regions in sorted order. Empty bins (fewer than 10 regions)
    come back degenerate with zero population and area.
    """
    if not regions:
        raise MissingDataError(f"{country_iso3}: no regions supplied")
    seen: set[str] = set()
    for r in regions:
        if r.country_iso3 != country_iso3:
            raise ValidationError(
                f"region {r.region_id} belongs to {r.country_iso3}, not {country_iso3}"
            )
        if r.region_id in seen:
            raise ValidationError(f"{country_iso3}: duplicate region_id {r.region_id}")
        seen.add(r.region_id)

    ordered = sorted(regions, key=lambda r: (-r.pop_density, r.region_id))
    n = len(ordered)
    q, rem = divmod(n, N_DECILES)
    sizes = [q + 1] * rem + [q] * (N_DECILES - rem)

    deciles: list[DecileRecord] = []
    start = 0
    for idx, size in enumerate(sizes, start=1):
        members = ordered[start:start + size]
        start += size
        if not members:
            deciles.append(
                DecileRecord(
                    country_iso3=country_iso3,
                    decile_index=idx,
                    population=0,
                    area_km2=0.0,
                    existing_sites=0,
                    pop_density=0.0,
                    settlement=Settlement.RURAL,
                    degenerate=True,
                )
            )
            continue
        population = sum(m.population for m in members)
        area = ordered_sum(m.area_km2 for m in members)
        sites = sum(m.existing_sites for m in members)
        density = population / area
        deciles.append(
            DecileRecord(
                country_iso3=country_iso3,
                decile_index=idx,
                population=population,
                area_km2=area,
                existing_sites=sites,
                pop_density=density,
                settlement=classify_settlement(density, thresholds),
            )
        )
    return deciles


def enumerate_runs(
    strategy_space: StrategySpace,
    scenario_space: ScenarioSpace,
) -> list[tuple[StrategyBundle, ScenarioSpec]]:
    """Cartesian product of the strategy and scenario axes.

    Order is deterministic: axes iterate in their definition order
    (generation, backhaul, sharing, policy, energy strategy, capacity,
    adoption), so repeated calls enumerate identically.
    """
    for name, axis in (
        ("generations", strategy_space.generations),
        ("backhauls", strategy_space.backhauls),
        ("sharings", strategy_space.sharings),
        ("policies", strategy_space.policies),
        ("energy_strategies", strategy_space.energy_strategies),
        ("capacities_gb_month", scenario_space.capacities_gb_month),
        ("adoptions", scenario_space.adoptions),
    ):
        if not axis:
            raise ValidationError(f"axis {name} is empty")

    runs = []
    for gen, bh, sh, pol, en, cap, ad in itertools.product(
        strategy_space.generations,
        strategy_space.backhauls,
        strategy_space.sharings,
        strategy_space.policies,
        strategy_space.energy_strategies,
        scenario_space.capacities_gb_month,
        scenario_space.adoptions,
    ):
        runs.append(
            (
                StrategyBundle(gen, bh, sh, pol, en),
                ScenarioSpec(
                    capacity_gb_month=cap,
                    adoption=ad,
                    start_year=scenario_space.start_year,
                    end_year=scenario_space.end_year,
                    discount_rate=scenario_space.discount_rate,
                ),
            )
        )
    return runs
