"""Input schemas, collect-all validation, and bundle (de)serialization.

All inputs are headered CSV files plus one YAML config document. Headers are
matched byte-for-byte against the documented schemas. Loading never stops at
the first problem: every diagnostic is collected with file and line context
and raised together as :class:`InputValidationError`.

File schemas (exact headers):

* ``regions.csv``            ``region_id,country_iso3,population,area_km2,existing_sites``
* ``countries.csv``          ``country_iso3,income_group,n_major_operators,arpu_low,arpu_base,arpu_high,on_grid_share,grid_carbon_intensity_kg_kwh``
* ``spectrum.csv``           ``country_iso3,generation,frequency_mhz,bandwidth_mhz``
* ``energy_mix.csv``         ``region,year,source,share``
* ``emission_factors.csv``   ``source,co2_kg_kwh,nox_g_kwh,sox_g_kwh,pm10_g_kwh``
* ``se_table.csv``           ``generation,min_sinr_db,se_bps_hz`` (optional; the
  packaged default is used when the file is absent)

The config is a YAML mapping with the sections ``axes``, ``horizon``,
``settlement``, ``adoption``, ``simulation``, ``cost``, ``energy`` and
``tables``; every key has a documented default, but when a ``cost`` section
is present it must be complete.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from .core import (
    AdoptionScenario,
    Backhaul,
    CountryParams,
    EnergyStrategy,
    Generation,
    IncomeGroup,
    Policy,
    RegionRecord,
    ScenarioSpace,
    Sharing,
    SpectrumHolding,
    StrategySpace,
    DEFAULT_SUBURBAN_MIN_DENSITY,
    DEFAULT_URBAN_MIN_DENSITY,
)
from .cost import CostInputs
from .demand import DEFAULT_ADOPTION_CAGR, AdoptionParams
from .energy import (
    DIESEL_SOURCE,
    EmissionFactors,
    EnergyParams,
    FactorRow,
    MIX_SOURCES,
    MIX_SUM_TOLERANCE,
)
from .errors import InputValidationError, ValidationError
from .radio import (
    Carrier,
    DEFAULT_DENSITY_GRID,
    FrequencySet,
    SimulationParams,
    SpectralEfficiencyTable,
)

REGIONS_HEADER = "region_id,country_iso3,population,area_km2,existing_sites"
COUNTRIES_HEADER = (
    "country_iso3,income_group,n_major_operators,arpu_low,arpu_base,arpu_high,"
    "on_grid_share,grid_carbon_intensity_kg_kwh"
)
SPECTRUM_HEADER = "country_iso3,generation,frequency_mhz,bandwidth_mhz"
ENERGY_MIX_HEADER = "region,year,source,share"
EMISSION_FACTORS_HEADER = "source,co2_kg_kwh,nox_g_kwh,sox_g_kwh,pm10_g_kwh"
SE_TABLE_HEADER = "generation,min_sinr_db,se_bps_hz"

# Frequency sets used by the `tables` command when the config does not
# override them: three 10 MHz carriers for 4G, 10 + 40 MHz for 5G.
DEFAULT_TABLE_PORTFOLIOS = (
    FrequencySet(Generation.G4, (Carrier(800.0, 10.0), Carrier(1800.0, 10.0), Carrier(2500.0, 10.0))),
    FrequencySet(Generation.G5, (Carrier(700.0, 10.0), Carrier(3500.0, 40.0))),
)

CONFIG_SECTIONS = ("axes", "horizon", "settlement", "adoption", "simulation", "cost", "energy", "tables")

COST_KEYS = (
    "equipment_usd", "backhaul_wireless_usd", "backhaul_fiber_usd", "civils_usd",
    "core_usd", "admin_share", "profit_margin", "tax_rate_low", "tax_rate_baseline",
    "tax_rate_high", "spectrum_coef_low_usd_mhz_pop", "spectrum_coef_baseline_usd_mhz_pop",
    "spectrum_coef_high_usd_mhz_pop",
)


@dataclass(frozen=True)
class Diagnostic:
    """One validation problem, with enough context to find it."""

    file: str
    line: int
    message: str

    def __str__(self) -> str:
        if self.line:
            return f"{self.file}:{self.line}: {self.message}"
        return f"{self.file}: {self.message}"


@dataclass(frozen=True)
class InputBundle:
    """Everything a pipeline run needs, validated and immutable."""

    countries: dict[str, CountryParams]
    regions: dict[str, tuple[RegionRecord, ...]]
    adoption: AdoptionParams
    energy_mix: dict[str, dict[int, dict[str, float]]]
    emission_factors: EmissionFactors
    se_table: SpectralEfficiencyTable
    cost_inputs: CostInputs
    sim_params: SimulationParams
    energy_params: EnergyParams
    strategy_space: StrategySpace
    scenario_space: ScenarioSpace
    settlement_thresholds: tuple[float, float]
    density_grid: tuple[float, ...]
    table_portfolios: tuple[FrequencySet, ...] = DEFAULT_TABLE_PORTFOLIOS

    def frequency_set(self, country_iso3: str, generation: Generation) -> FrequencySet:
        holdings = self.countries[country_iso3].holdings(generation)
        if not holdings:
            raise ValidationError(f"{country_iso3} has no {generation.value} spectrum")
        return FrequencySet(
            generation=generation,
            carriers=tuple(Carrier(h.frequency_mhz, h.bandwidth_mhz) for h in holdings),
        )


class _Collector:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def add(self, file: str, line: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(file, line, message))

    def raise_if_any(self) -> None:
        if self.diagnostics:
            raise InputValidationError(self.diagnostics)


def _read_rows(path: Path, expected_header: str, collector: _Collector) -> list[tuple[int, dict[str, str]]]:
    """Rows of a headered CSV as (line_number, dict); header must match exactly."""
    name = path.name
    if not path.is_file():
        collector.add(name, 0, "file is missing")
        return []
    with path.open(newline="", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\r\n")
        if first != expected_header:
            collector.add(name, 1, f"header must be exactly {expected_header!r}, got {first!r}")
            return []
        reader = csv.DictReader(fh, fieldnames=expected_header.split(","))
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if None in row or any(v is None for v in row.values()):
                collector.add(name, line_no, "wrong number of columns")
                continue
            rows.append((line_no, row))
        return rows


def _parse_number(
    raw: str, kind: type, file: str, line: int, column: str, collector: _Collector,
    minimum: float | None = None, strict_minimum: bool = False,
):
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        collector.add(file, line, f"{column}: {raw!r} is not a valid {kind.__name__}")
        return None
    if minimum is not None:
        if strict_minimum and not value > minimum:
            collector.add(file, line, f"{column}: {value} must be > {minimum}")
            return None
        if not strict_minimum and value < minimum:
            collector.add(file, line, f"{column}: {value} must be >= {minimum}")
            return None
    return value


def _parse_enum(raw: str, enum_cls, file: str, line: int, column: str, collector: _Collector):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        collector.add(file, line, f"{column}: {raw!r} is not one of {{{valid}}}")
        return None


def _load_countries(data_dir: Path, spectrum: dict[str, list[SpectrumHolding]], collector: _Collector) -> dict[str, CountryParams]:
    rows = _read_rows(data_dir / "countries.csv", COUNTRIES_HEADER, collector)
    countries: dict[str, CountryParams] = {}
    for line, row in rows:
        iso3 = row["country_iso3"].strip()
        if not iso3:
            collector.add("countries.csv", line, "country_iso3 is empty")
            continue
        if iso3 in countries:
            collector.add("countries.csv", line, f"duplicate country {iso3}")
            continue
        income = _parse_enum(row["income_group"], IncomeGroup, "countries.csv", line, "income_group", collector)
        n_ops = _parse_number(row["n_major_operators"], int, "countries.csv", line, "n_major_operators", collector, minimum=1)
        arpu_low = _parse_number(row["arpu_low"], float, "countries.csv", line, "arpu_low", collector, minimum=0)
        arpu_base = _parse_number(row["arpu_base"], float, "countries.csv", line, "arpu_base", collector, minimum=0)
        arpu_high = _parse_number(row["arpu_high"], float, "countries.csv", line, "arpu_high", collector, minimum=0)
        on_grid = _parse_number(row["on_grid_share"], float, "countries.csv", line, "on_grid_share", collector, minimum=0)
        intensity = _parse_number(row["grid_carbon_intensity_kg_kwh"], float, "countries.csv", line, "grid_carbon_intensity_kg_kwh", collector, minimum=0)
        if None in (income, n_ops, arpu_low, arpu_base, arpu_high, on_grid, intensity):
            continue
        if not arpu_low <= arpu_base <= arpu_high:
            collector.add("countries.csv", line, f"{iso3}: ARPU tiers must be ordered low <= base <= high")
            continue
        if on_grid > 1:
            collector.add("countries.csv", line, f"{iso3}: on_grid_share {on_grid} exceeds 1")
            continue
        countries[iso3] = CountryParams(
            country_iso3=iso3,
            income_group=income,
            n_major_operators=n_ops,
            spectrum_portfolio=tuple(spectrum.get(iso3, ())),
            arpu_low=arpu_low,
            arpu_base=arpu_base,
            arpu_high=arpu_high,
            on_grid_share=on_grid,
            grid_carbon_intensity_kg_kwh=intensity,
        )
    return countries


def _load_spectrum(data_dir: Path, collector: _Collector) -> dict[str, list[SpectrumHolding]]:
    rows = _read_rows(data_dir / "spectrum.csv", SPECTRUM_HEADER, collector)
    holdings: dict[str, list[SpectrumHolding]] = {}
    for line, row in rows:
        iso3 = row["country_iso3"].strip()
        gen = _parse_enum(row["generation"], Generation, "spectrum.csv", line, "generation", collector)
        freq = _parse_number(row["frequency_mhz"], float, "spectrum.csv", line, "frequency_mhz", collector, minimum=0, strict_minimum=True)
        bw = _parse_number(row["bandwidth_mhz"], float, "spectrum.csv", line, "bandwidth_mhz", collector, minimum=0, strict_minimum=True)
        if None in (gen, freq, bw):
            continue
        holdings.setdefault(iso3, []).append(SpectrumHolding(freq, bw, gen))
    return holdings


def _load_regions(data_dir: Path, countries: Mapping[str, CountryParams], collector: _Collector) -> dict[str, tuple[RegionRecord, ...]]:
    rows = _read_rows(data_dir / "regions.csv", REGIONS_HEADER, collector)
    regions: dict[str, list[RegionRecord]] = {}
    seen_ids: dict[tuple[str, str], int] = {}
    for line, row in rows:
        region_id = row["region_id"].strip()
        iso3 = row["country_iso3"].strip()
        population = _parse_number(row["population"], int, "regions.csv", line, "population", collector, minimum=0)
        area = _parse_number(row["area_km2"], float, "regions.csv", line, "area_km2", collector, minimum=0, strict_minimum=True)
        sites = _parse_number(row["existing_sites"], int, "regions.csv", line, "existing_sites", collector, minimum=0)
        if None in (population, area, sites):
            continue
        if not region_id:
            collector.add("regions.csv", line, "region_id is empty")
            continue
        if countries and iso3 not in countries:
            collector.add("regions.csv", line, f"region {region_id} references unknown country {iso3}")
            continue
        key = (iso3, region_id)
        if key in seen_ids:
            collector.add("regions.csv", line, f"duplicate region_id {region_id} in {iso3} (first seen line {seen_ids[key]})")
            continue
        seen_ids[key] = line
        regions.setdefault(iso3, []).append(
            RegionRecord(region_id=region_id, country_iso3=iso3, population=population, area_km2=area, existing_sites=sites)
        )
    return {iso3: tuple(rs) for iso3, rs in regions.items()}


def _load_energy_mix(
    data_dir: Path, countries: Mapping[str, CountryParams], years: range, collector: _Collector
) -> dict[str, dict[int, dict[str, float]]]:
    rows = _read_rows(data_dir / "energy_mix.csv", ENERGY_MIX_HEADER, collector)
    mix: dict[str, dict[int, dict[str, float]]] = {}
    for line, row in rows:
        region = row["region"].strip()
        year = _parse_number(row["year"], int, "energy_mix.csv", line, "year", collector)
        source = row["source"].strip()
        share = _parse_number(row["share"], float, "energy_mix.csv", line, "share", collector, minimum=0)
        if None in (year, share):
            continue
        if source not in MIX_SOURCES:
            collector.add("energy_mix.csv", line, f"source {source!r} is not one of {MIX_SOURCES}")
            continue
        year_row = mix.setdefault(region, {}).setdefault(year, {})
        if source in year_row:
            collector.add("energy_mix.csv", line, f"duplicate source {source} for {region}/{year}")
            continue
        year_row[source] = share

    for region, by_year in sorted(mix.items()):
        for year, shares in sorted(by_year.items()):
            total = sum(shares.values())
            if abs(total - 1.0) > MIX_SUM_TOLERANCE:
                collector.add("energy_mix.csv", 0, f"{region}/{year}: shares sum to {total:.6f}, expected 1")
    for iso3 in sorted(countries):
        if iso3 not in mix:
            collector.add("energy_mix.csv", 0, f"country {iso3} has no energy mix rows")
            continue
        missing_years = [y for y in years if y not in mix[iso3]]
        if missing_years:
            collector.add("energy_mix.csv", 0, f"{iso3}: missing mix years {missing_years}")
    return mix


def _load_emission_factors(data_dir: Path, collector: _Collector) -> EmissionFactors | None:
    rows = _read_rows(data_dir / "emission_factors.csv", EMISSION_FACTORS_HEADER, collector)
    by_source: dict[str, FactorRow] = {}
    for line, row in rows:
        source = row["source"].strip()
        if source not in (*MIX_SOURCES, DIESEL_SOURCE):
            collector.add("emission_factors.csv", line, f"unknown source {source!r}")
            continue
        values = [
            _parse_number(row[c], float, "emission_factors.csv", line, c, collector, minimum=0)
            for c in ("co2_kg_kwh", "nox_g_kwh", "sox_g_kwh", "pm10_g_kwh")
        ]
        if None in values:
            continue
        if source in by_source:
            collector.add("emission_factors.csv", line, f"duplicate source {source}")
            continue
        by_source[source] = FactorRow(*values)
    try:
        return EmissionFactors(by_source=by_source)
    except ValidationError as err:
        collector.add("emission_factors.csv", 0, str(err))
        return None


def _load_se_table(path: Path, mimo_efficiency: float, collector: _Collector) -> SpectralEfficiencyTable | None:
    rows_by_gen: dict[Generation, list[tuple[float, float]]] = {}
    name = path.name
    if not path.is_file():
        collector.add(name, 0, "file is missing")
        return None
    with path.open(newline="", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\r\n")
        if first != SE_TABLE_HEADER:
            collector.add(name, 1, f"header must be exactly {SE_TABLE_HEADER!r}, got {first!r}")
            return None
        reader = csv.DictReader(fh, fieldnames=SE_TABLE_HEADER.split(","))
        for line_no, row in enumerate(reader, start=2):
            gen = _parse_enum(row["generation"], Generation, name, line_no, "generation", collector)
            min_sinr = _parse_number(row["min_sinr_db"], float, name, line_no, "min_sinr_db", collector)
            se = _parse_number(row["se_bps_hz"], float, name, line_no, "se_bps_hz", collector, minimum=0, strict_minimum=True)
            if None in (gen, min_sinr, se):
                continue
            rows_by_gen.setdefault(gen, []).append((min_sinr, se))
    for gen in Generation:
        if gen not in rows_by_gen:
            collector.add(name, 0, f"no rows for generation {gen.value}")
            return None
    try:
        return SpectralEfficiencyTable(
            rows={g: tuple(r) for g, r in rows_by_gen.items()},
            mimo_efficiency=mimo_efficiency,
        )
    except ValidationError as err:
        collector.add(name, 0, str(err))
        return None


def default_se_table_path() -> Path:
    return Path(str(resources.files("bband_sim").joinpath("data/se_table.csv")))


def _se_table_path(data_dir: Path | str | None) -> Path:
    """``<data_dir>/se_table.csv`` when that file exists, else the packaged table."""
    if data_dir:
        candidate = Path(data_dir) / "se_table.csv"
        if candidate.is_file():
            return candidate
    return default_se_table_path()


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _expect_mapping(value: Any, where: str, collector: _Collector) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        collector.add("config", 0, f"{where} must be a mapping")
        return {}
    return value


def _config_scalar(section: dict, key: str, default, where: str, collector: _Collector, cast=float):
    if key not in section:
        return default
    try:
        return cast(section[key])
    except (TypeError, ValueError):
        collector.add("config", 0, f"{where}.{key}: {section[key]!r} is not a valid {cast.__name__}")
        return default


def _axis_values(raw, enum_cls, name: str, collector: _Collector):
    values = []
    for item in raw:
        try:
            values.append(enum_cls(item))
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            collector.add("config", 0, f"axes.{name}: {item!r} is not one of {{{valid}}}")
    if not values:
        collector.add("config", 0, f"axes.{name} is empty")
    return tuple(values)


def validate_axes(config: Mapping[str, Any]) -> tuple[StrategySpace, ScenarioSpace]:
    """Normalize the strategy/scenario axes from a parsed config mapping.

    Omitted axes take the documented defaults (all strategies; capacity
    targets 20/30/40 GB/month; low/baseline/high adoption); unknown enum
    values are rejected with the list of valid ones.
    """
    collector = _Collector()
    space = _validate_axes_collect(config, collector)
    collector.raise_if_any()
    return space


def _validate_axes_collect(config: Mapping[str, Any], collector: _Collector) -> tuple[StrategySpace, ScenarioSpace]:
    axes = _expect_mapping(config.get("axes"), "axes", collector)
    horizon = _expect_mapping(config.get("horizon"), "horizon", collector)

    known = {"generation", "backhaul", "sharing", "policy", "energy_strategy", "capacity_gb_month", "adoption"}
    for key in axes:
        if key not in known:
            collector.add("config", 0, f"axes.{key} is not a recognised axis ({sorted(known)})")

    defaults = StrategySpace()
    generations = _axis_values(axes["generation"], Generation, "generation", collector) if "generation" in axes else defaults.generations
    backhauls = _axis_values(axes["backhaul"], Backhaul, "backhaul", collector) if "backhaul" in axes else defaults.backhauls
    sharings = _axis_values(axes["sharing"], Sharing, "sharing", collector) if "sharing" in axes else defaults.sharings
    policies = _axis_values(axes["policy"], Policy, "policy", collector) if "policy" in axes else defaults.policies
    energies = _axis_values(axes["energy_strategy"], EnergyStrategy, "energy_strategy", collector) if "energy_strategy" in axes else defaults.energy_strategies

    if "capacity_gb_month" in axes:
        capacities = []
        for item in axes["capacity_gb_month"]:
            try:
                value = float(item)
            except (TypeError, ValueError):
                collector.add("config", 0, f"axes.capacity_gb_month: {item!r} is not a number")
                continue
            if value <= 0:
                collector.add("config", 0, f"axes.capacity_gb_month: {value} must be > 0")
                continue
            capacities.append(value)
        if not capacities:
            collector.add("config", 0, "axes.capacity_gb_month is empty")
        capacities = tuple(capacities)
    else:
        capacities = ScenarioSpace().capacities_gb_month

    adoptions = _axis_values(axes["adoption"], AdoptionScenario, "adoption", collector) if "adoption" in axes else ScenarioSpace().adoptions

    start_year = _config_scalar(horizon, "start_year", 2023, "horizon", collector, cast=int)
    end_year = _config_scalar(horizon, "end_year", 2030, "horizon", collector, cast=int)
    discount = _config_scalar(horizon, "discount_rate", 0.05, "horizon", collector)
    if end_year < start_year:
        collector.add("config", 0, f"horizon: end_year {end_year} before start_year {start_year}")
    if discount < 0:
        collector.add("config", 0, "horizon.discount_rate must be >= 0")

    strategy_space = StrategySpace(
        generations=generations,
        backhauls=backhauls,
        sharings=sharings,
        policies=policies,
        energy_strategies=energies,
    )
    scenario_space = ScenarioSpace(
        capacities_gb_month=capacities,
        adoptions=adoptions,
        start_year=start_year,
        end_year=end_year,
        discount_rate=discount,
    )
    return strategy_space, scenario_space


def _build_adoption(config: Mapping[str, Any], collector: _Collector) -> AdoptionParams:
    section = _expect_mapping(config.get("adoption"), "adoption", collector)
    cagr = {g: dict(v) for g, v in DEFAULT_ADOPTION_CAGR.items()}
    raw_cagr = _expect_mapping(section.get("cagr"), "adoption.cagr", collector)
    for group_name, by_scenario in raw_cagr.items():
        try:
            group = IncomeGroup(group_name)
        except ValueError:
            collector.add("config", 0, f"adoption.cagr: unknown income group {group_name!r}")
            continue
        for scen_name, rate in _expect_mapping(by_scenario, f"adoption.cagr.{group_name}", collector).items():
            try:
                scen = AdoptionScenario(scen_name)
            except ValueError:
                collector.add("config", 0, f"adoption.cagr.{group_name}: unknown scenario {scen_name!r}")
                continue
            cagr[group][scen] = float(rate)
    try:
        return AdoptionParams(
            base_cell_penetration=_config_scalar(section, "base_cell_penetration", 0.55, "adoption", collector),
            smartphone_penetration_urban=_config_scalar(section, "smartphone_penetration_urban", 0.65, "adoption", collector),
            smartphone_penetration_rural=_config_scalar(section, "smartphone_penetration_rural", 0.40, "adoption", collector),
            penetration_cap=_config_scalar(section, "penetration_cap", 1.0, "adoption", collector),
            cagr_by_income=cagr,
        )
    except ValidationError as err:
        collector.add("config", 0, f"adoption: {err}")
        return AdoptionParams()


def _build_sim_params(config: Mapping[str, Any], collector: _Collector) -> tuple[SimulationParams, tuple[float, ...]]:
    section = _expect_mapping(config.get("simulation"), "simulation", collector)
    grid = tuple(float(x) for x in section.get("density_grid", DEFAULT_DENSITY_GRID))
    kwargs = {}
    numeric_fields = {
        "tx_power_dbm": 40.0, "tx_gain_db": 16.0, "tx_losses_db": 1.0,
        "rx_gain_db": 0.0, "rx_losses_db": 4.0, "rx_misc_losses_db": 4.0,
        "tx_height_m": 30.0, "rx_height_m": 1.5, "network_load": 1.0,
        "los_breakpoint_m": 500.0, "shadow_mu_db": 2.0, "shadow_sigma_db": 10.0,
        "temperature_k": 290.0, "noise_figure_db": 1.5, "nlos_excess_db": 12.0,
        "min_distance_m": 10.0, "reliability": 0.90, "mimo_efficiency": 0.85,
    }
    for name, default in numeric_fields.items():
        kwargs[name] = _config_scalar(section, name, default, "simulation", collector)
    for name, default in (("sectors_per_site", 3), ("trials", 10_000), ("seed", 42), ("interferer_rings", 1)):
        kwargs[name] = _config_scalar(section, name, default, "simulation", collector, cast=int)
    try:
        return SimulationParams(**kwargs), grid
    except ValidationError as err:
        collector.add("config", 0, f"simulation: {err}")
        return SimulationParams(), grid


def _build_cost_inputs(config: Mapping[str, Any], collector: _Collector) -> CostInputs:
    section = _expect_mapping(config.get("cost"), "cost", collector)
    if not section:
        return CostInputs()
    missing = [k for k in COST_KEYS if k not in section]
    if missing:
        collector.add("config", 0, f"cost: missing mandatory keys {missing}")
    unknown = [k for k in section if k not in COST_KEYS]
    if unknown:
        collector.add("config", 0, f"cost: unknown keys {unknown}")
    if missing or unknown:
        return CostInputs()
    try:
        return CostInputs(**{k: float(section[k]) for k in COST_KEYS})
    except (TypeError, ValueError, ValidationError) as err:
        collector.add("config", 0, f"cost: {err}")
        return CostInputs()


def _build_energy_params(config: Mapping[str, Any], collector: _Collector) -> EnergyParams:
    section = _expect_mapping(config.get("energy"), "energy", collector)
    try:
        return EnergyParams(
            site_kwh_per_hour=_config_scalar(section, "site_kwh_per_hour", 0.249, "energy", collector),
            backhaul_wireless_kwh_per_hour=_config_scalar(section, "backhaul_wireless_kwh_per_hour", 0.025, "energy", collector),
            backhaul_fiber_kwh_per_hour=_config_scalar(section, "backhaul_fiber_kwh_per_hour", 0.010, "energy", collector),
        )
    except ValidationError as err:
        collector.add("config", 0, f"energy: {err}")
        return EnergyParams()


def _build_table_portfolios(config: Mapping[str, Any], collector: _Collector) -> tuple[FrequencySet, ...]:
    section = _expect_mapping(config.get("tables"), "tables", collector)
    raw = section.get("portfolios")
    if raw is None:
        return DEFAULT_TABLE_PORTFOLIOS
    portfolios = []
    for entry in raw:
        entry = _expect_mapping(entry, "tables.portfolios[]", collector)
        try:
            gen = Generation(entry.get("generation"))
            carriers = tuple(Carrier(float(f), float(b)) for f, b in entry.get("carriers", ()))
            portfolios.append(FrequencySet(gen, carriers))
        except (TypeError, ValueError, ValidationError) as err:
            collector.add("config", 0, f"tables.portfolios: {err}")
    return tuple(portfolios) if portfolios else DEFAULT_TABLE_PORTFOLIOS


def load_config(config_path: Path | str, collector: _Collector | None = None) -> dict[str, Any]:
    """Parse the YAML config document and check its top-level structure."""
    own = collector is None
    collector = collector or _Collector()
    path = Path(config_path)
    if not path.is_file():
        collector.add(path.name, 0, "config file is missing")
        if own:
            collector.raise_if_any()
        return {}
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as err:
        collector.add(path.name, 0, f"invalid YAML: {err}")
        if own:
            collector.raise_if_any()
        return {}
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        collector.add(path.name, 0, "config must be a mapping at the top level")
        raw = {}
    for key in raw:
        if key not in CONFIG_SECTIONS:
            collector.add(path.name, 0, f"unknown config section {key!r} (valid: {CONFIG_SECTIONS})")
    if own:
        collector.raise_if_any()
    return raw


def load_bundle(data_dir: Path | str, config_path: Path | str) -> InputBundle:
    """Load and validate every input; raise with all diagnostics on failure."""
    data_dir = Path(data_dir)
    collector = _Collector()
    if not data_dir.is_dir():
        collector.add(str(data_dir), 0, "data directory is missing")
        collector.raise_if_any()

    config = load_config(config_path, collector)
    strategy_space, scenario_space = _validate_axes_collect(config, collector)
    adoption = _build_adoption(config, collector)
    sim_params, density_grid = _build_sim_params(config, collector)
    cost_inputs = _build_cost_inputs(config, collector)
    energy_params = _build_energy_params(config, collector)
    portfolios = _build_table_portfolios(config, collector)

    settlement_section = _expect_mapping(config.get("settlement"), "settlement", collector)
    urban_min = _config_scalar(settlement_section, "urban_min_density", DEFAULT_URBAN_MIN_DENSITY, "settlement", collector)
    suburban_min = _config_scalar(settlement_section, "suburban_min_density", DEFAULT_SUBURBAN_MIN_DENSITY, "settlement", collector)
    if not urban_min > suburban_min > 0:
        collector.add("config", 0, "settlement thresholds must satisfy urban_min > suburban_min > 0")

    spectrum = _load_spectrum(data_dir, collector)
    countries = _load_countries(data_dir, spectrum, collector)
    for iso3 in sorted(spectrum):
        if countries and iso3 not in countries:
            collector.add("spectrum.csv", 0, f"spectrum row references unknown country {iso3}")
    for iso3, params in sorted(countries.items()):
        for gen in strategy_space.generations:
            if not params.holdings(gen):
                collector.add("spectrum.csv", 0, f"{iso3}: no {gen.value} carriers in portfolio")

    regions = _load_regions(data_dir, countries, collector)
    for iso3 in sorted(countries):
        if iso3 not in regions:
            collector.add("regions.csv", 0, f"country {iso3} has no regions")

    years = range(scenario_space.start_year, scenario_space.end_year + 1)
    energy_mix = _load_energy_mix(data_dir, countries, years, collector)
    emission_factors = _load_emission_factors(data_dir, collector)

    se_table = _load_se_table(_se_table_path(data_dir), sim_params.mimo_efficiency, collector)

    collector.raise_if_any()
    return InputBundle(
        countries=countries,
        regions=regions,
        adoption=adoption,
        energy_mix=energy_mix,
        emission_factors=emission_factors,
        se_table=se_table,
        cost_inputs=cost_inputs,
        sim_params=sim_params,
        energy_params=energy_params,
        strategy_space=strategy_space,
        scenario_space=scenario_space,
        settlement_thresholds=(urban_min, suburban_min),
        density_grid=density_grid,
        table_portfolios=portfolios,
    )


@dataclass(frozen=True)
class TableInputs:
    """What building capacity tables needs, without the rest of a bundle."""

    sim_params: SimulationParams
    density_grid: tuple[float, ...]
    se_table: SpectralEfficiencyTable
    portfolios: tuple[FrequencySet, ...]


def load_table_inputs(config_path: Path | str, data_dir: Path | str | None = None) -> TableInputs:
    """Load and validate the inputs of the ``tables`` command.

    Reads the config's ``simulation`` and ``tables`` sections and the SE
    table (``<data_dir>/se_table.csv`` if present, else the packaged one).
    Like :func:`load_bundle`, raises one :class:`InputValidationError`
    carrying every diagnostic.
    """
    collector = _Collector()
    config = load_config(config_path, collector)
    sim_params, density_grid = _build_sim_params(config, collector)
    portfolios = _build_table_portfolios(config, collector)
    se_table = _load_se_table(_se_table_path(data_dir), sim_params.mimo_efficiency, collector)
    collector.raise_if_any()
    return TableInputs(sim_params, density_grid, se_table, portfolios)


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def save_bundle(bundle: InputBundle, data_dir: Path | str, config_path: Path | str) -> None:
    """Write a bundle back out in the documented schemas.

    ``load_bundle(save_bundle(b)) == b`` field for field: numbers are
    written with ``repr`` so floats survive the text round trip exactly.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)

    with (data_dir / "regions.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REGIONS_HEADER.split(","))
        for iso3 in sorted(bundle.regions):
            for r in bundle.regions[iso3]:
                writer.writerow([r.region_id, r.country_iso3, r.population, repr(r.area_km2), r.existing_sites])

    with (data_dir / "countries.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTRIES_HEADER.split(","))
        for iso3 in sorted(bundle.countries):
            c = bundle.countries[iso3]
            writer.writerow([
                c.country_iso3, c.income_group.value, c.n_major_operators,
                repr(c.arpu_low), repr(c.arpu_base), repr(c.arpu_high),
                repr(c.on_grid_share), repr(c.grid_carbon_intensity_kg_kwh),
            ])

    with (data_dir / "spectrum.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPECTRUM_HEADER.split(","))
        for iso3 in sorted(bundle.countries):
            for h in bundle.countries[iso3].spectrum_portfolio:
                writer.writerow([iso3, h.generation.value, repr(h.frequency_mhz), repr(h.bandwidth_mhz)])

    with (data_dir / "energy_mix.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENERGY_MIX_HEADER.split(","))
        for region in sorted(bundle.energy_mix):
            for year in sorted(bundle.energy_mix[region]):
                for source in MIX_SOURCES:
                    shares = bundle.energy_mix[region][year]
                    if source in shares:
                        writer.writerow([region, year, source, repr(shares[source])])

    with (data_dir / "emission_factors.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EMISSION_FACTORS_HEADER.split(","))
        for source in (*MIX_SOURCES, DIESEL_SOURCE):
            row = bundle.emission_factors.by_source[source]
            writer.writerow([source, repr(row.co2_kg_kwh), repr(row.nox_g_kwh), repr(row.sox_g_kwh), repr(row.pm10_g_kwh)])

    with (data_dir / "se_table.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SE_TABLE_HEADER.split(","))
        for gen in Generation:
            for min_sinr, se in bundle.se_table.rows[gen]:
                writer.writerow([gen.value, repr(min_sinr), repr(se)])

    config = {
        "axes": {
            "generation": [g.value for g in bundle.strategy_space.generations],
            "backhaul": [b.value for b in bundle.strategy_space.backhauls],
            "sharing": [s.value for s in bundle.strategy_space.sharings],
            "policy": [p.value for p in bundle.strategy_space.policies],
            "energy_strategy": [e.value for e in bundle.strategy_space.energy_strategies],
            "capacity_gb_month": list(bundle.scenario_space.capacities_gb_month),
            "adoption": [a.value for a in bundle.scenario_space.adoptions],
        },
        "horizon": {
            "start_year": bundle.scenario_space.start_year,
            "end_year": bundle.scenario_space.end_year,
            "discount_rate": bundle.scenario_space.discount_rate,
        },
        "settlement": {
            "urban_min_density": bundle.settlement_thresholds[0],
            "suburban_min_density": bundle.settlement_thresholds[1],
        },
        "adoption": {
            "base_cell_penetration": bundle.adoption.base_cell_penetration,
            "smartphone_penetration_urban": bundle.adoption.smartphone_penetration_urban,
            "smartphone_penetration_rural": bundle.adoption.smartphone_penetration_rural,
            "penetration_cap": bundle.adoption.penetration_cap,
            "cagr": {
                g.value: {s.value: rate for s, rate in by_scen.items()}
                for g, by_scen in bundle.adoption.cagr_by_income.items()
            },
        },
        "simulation": {
            **{k: v for k, v in vars(bundle.sim_params).items()},
            "density_grid": list(bundle.density_grid),
        },
        "cost": {k: getattr(bundle.cost_inputs, k) for k in COST_KEYS},
        "energy": {
            "site_kwh_per_hour": bundle.energy_params.site_kwh_per_hour,
            "backhaul_wireless_kwh_per_hour": bundle.energy_params.backhaul_wireless_kwh_per_hour,
            "backhaul_fiber_kwh_per_hour": bundle.energy_params.backhaul_fiber_kwh_per_hour,
        },
        "tables": {
            "portfolios": [
                {
                    "generation": fs.generation.value,
                    "carriers": [[c.frequency_mhz, c.bandwidth_mhz] for c in fs.carriers],
                }
                for fs in bundle.table_portfolios
            ],
        },
    }
    Path(config_path).write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
