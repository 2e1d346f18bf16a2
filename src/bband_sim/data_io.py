"""Input schemas, collect-all validation, and bundle (de)serialization.

All inputs are headered CSV files plus one YAML config document. Each CSV is
declared once, in :data:`SCHEMAS`, as one ``(column, kind, bounds)`` row per
column in file order; the header, the reader and :func:`save_bundle` all walk
it. A ``str`` cell is stripped of surrounding blanks; an enum cell must be one
of the enum's values exactly as written; an ``int`` or ``float`` cell is parsed
by that builtin and must be finite. Config numbers are parsed the same way.
A column's bounds are those ``core`` declares on the field it fills
(:func:`core.bounded`), and each cell is checked against them once, here: a
cell outside them gives the one text ``<column>: <value> must be <op> <limit>``,
as does a self-checking record built with that value. ``regions.csv`` is read
into one :class:`core.Regions` of columns per country, in file order, which
nothing checks again.

Headers must match byte for byte. Loading never stops at the first problem:
each bad cell, and each row with the wrong number of cells, is reported with
file and line and its row dropped; the rules across cells, rows and files
(duplicates, unknown countries, ARPU order, mix sums, SE rows per generation
...) run on the rows that parsed. All diagnostics are raised together as
:class:`InputValidationError`. ``se_table.csv`` is optional; the packaged
table is used when it is absent.

The config is a YAML mapping with the sections ``axes``, ``horizon``,
``settlement``, ``adoption``, ``simulation``, ``cost``, ``energy`` and
``tables``; every key has a documented default, but when a ``cost`` section
is present it must be complete. A key that no section reads is rejected,
in ``tables`` and its portfolio entries too.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

import yaml

from .core import (
    AXES, DEFAULT_ADOPTION_CAGR, DEFAULT_DENSITY_GRID, BOUND_OPS, DIESEL_SOURCE, MIX_SHARE_BOUNDS, MIX_SOURCES,
    MIX_SUM_TOLERANCE, AdoptionParams, AdoptionScenario, Carrier, CostInputs, CountryParams, EmissionFactors,
    EnergyParams, FactorRow, FrequencySet, Generation, Horizon, IncomeGroup, Regions, ScenarioSpace, ScenarioSpec,
    SettlementThresholds, SimulationParams, SpectralEfficiencyTable, StrategySpace, broken_bound, declared_bounds,
    density_grid_rules, raise_broken,
)
from .errors import InputValidationError, ValidationError

_REGION, _COUNTRY, _CARRIER, _FACTOR = map(declared_bounds, (Regions, CountryParams, Carrier, FactorRow))

#: Every input CSV: one ``(column, kind, bounds)`` row per column, in file order, the bounds ``core``'s.
SCHEMAS = {
    "regions.csv": (
        ("region_id", str, _REGION["region_id"]),
        ("country_iso3", str, ()),
        ("population", int, _REGION["population"]),
        ("area_km2", float, _REGION["area_km2"]),
        ("existing_sites", int, _REGION["existing_sites"]),
    ),
    "countries.csv": (
        ("country_iso3", str, _COUNTRY["country_iso3"]),
        ("income_group", IncomeGroup, ()),
        ("n_major_operators", int, _COUNTRY["n_major_operators"]),
        ("arpu_low", float, _COUNTRY["arpu_low"]),
        ("arpu_base", float, _COUNTRY["arpu_base"]),
        ("arpu_high", float, _COUNTRY["arpu_high"]),
        ("on_grid_share", float, _COUNTRY["on_grid_share"]),
        ("grid_carbon_intensity_kg_kwh", float, _COUNTRY["grid_carbon_intensity_kg_kwh"]),
    ),
    "spectrum.csv": (
        ("country_iso3", str, ()),
        ("generation", Generation, ()),
        ("frequency_mhz", float, _CARRIER["frequency_mhz"]),
        ("bandwidth_mhz", float, _CARRIER["bandwidth_mhz"]),
    ),
    "energy_mix.csv": (
        ("region", str, ()),
        ("year", int, ()),
        ("source", str, ()),
        ("share", float, MIX_SHARE_BOUNDS),
    ),
    "emission_factors.csv": (
        ("source", str, ()),
        ("co2_kg_kwh", float, _FACTOR["co2_kg_kwh"]),
        ("nox_g_kwh", float, _FACTOR["nox_g_kwh"]),
        ("sox_g_kwh", float, _FACTOR["sox_g_kwh"]),
        ("pm10_g_kwh", float, _FACTOR["pm10_g_kwh"]),
    ),
    "se_table.csv": (
        ("generation", Generation, ()),
        ("min_sinr_db", float, ()),
        ("se_bps_hz", float, SpectralEfficiencyTable.SE_BPS_HZ_BOUNDS),
    ),
}

# Frequency sets used by the `tables` command when the config does not
# override them: three 10 MHz carriers for 4G, 10 + 40 MHz for 5G.
DEFAULT_TABLE_PORTFOLIOS = (
    FrequencySet(Generation.G4, (Carrier(800.0, 10.0), Carrier(1800.0, 10.0), Carrier(2500.0, 10.0))),
    FrequencySet(Generation.G5, (Carrier(700.0, 10.0), Carrier(3500.0, 40.0))),
)

CONFIG_SECTIONS = ("axes", "horizon", "settlement", "adoption", "simulation", "cost", "energy", "tables")

COST_KEYS = tuple(f.name for f in fields(CostInputs))


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
    regions: dict[str, Regions]
    adoption: AdoptionParams
    energy_mix: dict[str, dict[int, dict[str, float]]]
    emission_factors: EmissionFactors
    se_table: SpectralEfficiencyTable
    cost_inputs: CostInputs
    sim_params: SimulationParams
    energy_params: EnergyParams
    strategy_space: StrategySpace
    scenario_space: ScenarioSpace
    settlement_thresholds: SettlementThresholds
    density_grid: tuple[float, ...]
    table_portfolios: tuple[FrequencySet, ...] = DEFAULT_TABLE_PORTFOLIOS

    def frequency_set(self, country_iso3: str, generation: Generation) -> FrequencySet:
        """:meth:`CountryParams.frequency_set` of one country; ``bench/run.py`` calls it."""
        return self.countries[country_iso3].frequency_set(generation)


class _Collector:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def add(self, file: str, line: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(file, line, message))

    def check(self, file: str, line: int, prefix: str, build, /, *args, **kwargs):
        """``build(*args, **kwargs)``, or None and one diagnostic per broken rule it reports, led by ``prefix``."""
        try:
            return build(*args, **kwargs)
        except ValidationError as err:
            for message in err.args:
                self.add(file, line, prefix + message)
            return None

    def raise_if_any(self) -> None:
        if self.diagnostics:
            raise InputValidationError(self.diagnostics)


def _parse(raw, kind, bounds, where: str):
    """``raw`` as a ``kind`` within ``bounds``, else ValueError: the diagnostic, led by ``where``."""
    if kind is str:
        value = raw.strip()
    elif kind is not int and kind is not float:
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"{where}: {raw!r} is not one of {{{', '.join(e.value for e in kind)}}}") from None
    else:
        try:
            value = kind(raw)
            if isinstance(raw, bool) or kind is int and isinstance(raw, float) and value != raw:
                raise ValueError  # a YAML boolean (yes, on, true), or int() would drop the fraction
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where}: {raw!r} is not a valid {kind.__name__}") from None
        if kind is float and not -math.inf < value < math.inf:
            raise ValueError(f"{where}: {raw!r} is not finite")
    for op, limit in bounds:
        if not BOUND_OPS[op](value, limit):  # only a broken bound needs the message
            raise ValueError(broken_bound(where, value, bounds))
    return value


#: Parsed rows of one CSV: ``(line, values)``, values in column order.
Rows = Iterable[tuple[int, list]]


def _read_utf8(path: Path, collector: _Collector) -> str | None:
    """The text of ``path``, a leading byte-order mark dropped.

    None, with a diagnostic, if it is not UTF-8: the diagnostic gives the
    first bad byte and its offset in the file, a byte-order mark counted.
    """
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        collector.add(path.name, 0, f"not valid UTF-8: byte 0x{data[err.start]:02x} at offset {err.start}")
        return None


def _read_csv(path: Path, collector: _Collector) -> Rows:
    """Yield ``(line, values)`` for each row whose cells all parse as the schema of the file's name.

    Reports a missing file, a header other than the declared one, a row with
    the wrong number of cells and each bad cell, in column order. Blank lines
    are skipped but counted: ``line`` is the physical line on which the row
    ends. A file that is not UTF-8 gives one diagnostic and no rows.
    """
    name = path.name
    if not path.is_file():
        collector.add(name, 0, "file is missing")
        return
    columns = SCHEMAS[name]
    header = ",".join(column for column, _, _ in columns)
    text = _read_utf8(path, collector)
    if text is None:
        return
    fh = io.StringIO(text, newline="")
    first = fh.readline().rstrip("\r\n")
    if first != header:
        collector.add(name, 1, f"header must be exactly {header!r}, got {first!r}")
        return
    reader = csv.reader(fh)
    for cells in filter(None, reader):
        line = reader.line_num + 1  # the header was read before the reader
        if len(cells) != len(columns):
            collector.add(name, line, "wrong number of columns")
            continue
        values = []
        for raw, (column, kind, bounds) in zip(cells, columns):
            try:
                values.append(_parse(raw, kind, bounds, column))
            except ValueError as err:
                collector.add(name, line, str(err))
        if len(values) == len(columns):
            yield line, values


def _spectrum(rows: Rows) -> dict[str, list[tuple[Generation, Carrier]]]:
    """Each country's ``(generation, carrier)`` pairs, in file order."""
    portfolios: dict[str, list[tuple[Generation, Carrier]]] = {}
    for _, (iso3, gen, freq, bw) in rows:
        portfolios.setdefault(iso3, []).append((gen, Carrier(freq, bw)))
    return portfolios


def _countries(rows: Rows, spectrum: Mapping[str, list[tuple[Generation, Carrier]]], collector: _Collector) -> dict[str, CountryParams]:
    countries: dict[str, CountryParams] = {}
    for line, (iso3, income, n_ops, *tariffs) in rows:
        if iso3 in countries:
            collector.add("countries.csv", line, f"duplicate country {iso3}")
        elif (params := collector.check("countries.csv", line, "", CountryParams, iso3, income, n_ops,
                                        tuple(spectrum.get(iso3, ())), *tariffs)) is not None:
            countries[iso3] = params
    return countries


def _regions(rows: Rows, countries: Mapping[str, CountryParams], collector: _Collector) -> dict[str, Regions]:
    """Each country's :class:`Regions`, its rows in file order; a row with an unknown country or a repeated id is reported."""
    columns: dict[str, tuple[list, ...]] = {}
    seen_ids: dict[tuple[str, str], int] = {}
    for line, (region_id, iso3, *values) in rows:
        if countries and iso3 not in countries:
            collector.add("regions.csv", line, f"region {region_id} references unknown country {iso3}")
        elif (iso3, region_id) in seen_ids:
            collector.add("regions.csv", line, f"duplicate region_id {region_id} in {iso3} (first seen line {seen_ids[iso3, region_id]})")
        else:
            seen_ids[iso3, region_id] = line
            for column, value in zip(columns.setdefault(iso3, ([], [], [], [])), (region_id, *values)):
                column.append(value)
    return {iso3: Regions(*map(tuple, cs)) for iso3, cs in columns.items()}


def _energy_mix(rows: Rows, countries: Mapping[str, CountryParams], years: range, collector: _Collector) -> dict:
    mix: dict[str, dict[int, dict[str, float]]] = {}
    for line, (region, year, source, share) in rows:
        if source not in MIX_SOURCES:
            collector.add("energy_mix.csv", line, f"source {source!r} is not one of {MIX_SOURCES}")
            continue
        year_row = mix.setdefault(region, {}).setdefault(year, {})
        if source in year_row:
            collector.add("energy_mix.csv", line, f"duplicate source {source} for {region}/{year}")
            continue
        year_row[source] = share

    for region in sorted(set(mix) - set(countries) if countries else ()):
        collector.add("energy_mix.csv", 0, f"mix row references unknown country {region}")
        del mix[region]
    for region, by_year in sorted(mix.items()):
        for year, shares in sorted(by_year.items()):
            total = sum(shares.values())
            if abs(total - 1.0) > MIX_SUM_TOLERANCE:
                collector.add("energy_mix.csv", 0, f"{region}/{year}: shares sum to {total:.6f}, expected 1")
    for iso3 in sorted(countries):
        missing_years = [y for y in years if y not in mix.get(iso3, ())]
        if iso3 not in mix:
            collector.add("energy_mix.csv", 0, f"country {iso3} has no energy mix rows")
        elif missing_years:
            collector.add("energy_mix.csv", 0, f"{iso3}: missing mix years {_year_ranges(missing_years)}")
    return mix


def _year_ranges(years: list[int], shown: int = 5) -> str:
    """Ascending ``years`` as ``[2024, 2026-2030]``: the first ``shown`` runs, then ``(+K more)``."""
    runs: list[list[int]] = []
    for year in years:
        if runs and runs[-1][1] == year - 1:
            runs[-1][1] = year
        else:
            runs.append([year, year])
    text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs[:shown])
    return f"[{text}]" + (f" (+{len(runs) - shown} more)" if len(runs) > shown else "")


def _emission_factors(rows: Rows, collector: _Collector) -> EmissionFactors | None:
    by_source: dict[str, FactorRow] = {}
    for line, (source, *factors) in rows:
        if source not in (*MIX_SOURCES, DIESEL_SOURCE):
            collector.add("emission_factors.csv", line, f"unknown source {source!r}")
        elif source in by_source:
            collector.add("emission_factors.csv", line, f"duplicate source {source}")
        else:
            by_source[source] = FactorRow(*factors)
    return collector.check("emission_factors.csv", 0, "", EmissionFactors, by_source)


def _se_table(path: Path, collector: _Collector) -> SpectralEfficiencyTable | None:
    rows_by_gen: dict[Generation, list[tuple[float, float]]] = {}
    for _, (gen, min_sinr, se) in _read_csv(path, collector):
        rows_by_gen.setdefault(gen, []).append((min_sinr, se))
    missing = [gen for gen in Generation if gen not in rows_by_gen]
    for gen in missing:
        collector.add(path.name, 0, f"no rows for generation {gen.value}")
    if missing:
        return None
    return collector.check(path.name, 0, "", SpectralEfficiencyTable, {g: tuple(r) for g, r in rows_by_gen.items()})


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


def _config_scalar(section: dict, key: str, default, where: str, collector: _Collector, cast=float, bounds=()):
    if key not in section:
        return default
    try:
        return _parse(section[key], cast, bounds, f"{where}.{key}")
    except ValueError as err:
        collector.add("config", 0, str(err))
        return default


def _config_list(raw, kind, where: str, collector: _Collector, bounds=()) -> tuple | None:
    """The items of a config list that parse as ``kind``; None when ``raw`` is not a list."""
    if not isinstance(raw, (list, tuple)):
        collector.add("config", 0, f"{where} must be a list")
        return None
    values = []
    for item in raw:
        try:
            values.append(_parse(item, kind, bounds, where))
        except ValueError as err:
            collector.add("config", 0, str(err))
    return tuple(values)


def _unknown_keys(section: dict, known: Iterable[str], where: str, collector: _Collector) -> list:
    """The keys of a config section that nothing reads, all reported in one diagnostic."""
    unknown = [k for k in section if k not in known]
    if unknown:
        collector.add("config", 0, f"{where}: unknown keys {unknown}")
    return unknown


def _config_params(cls, section: dict, where: str, collector: _Collector, extra_keys=(), **given):
    """A ``cls`` with each field from the config section, parsed as the type of its default.

    Absent fields keep their default; ``given`` fields are passed as they are.
    A key that is neither a read field nor one of ``extra_keys`` is reported.
    """
    read = [f for f in fields(cls) if f.name not in given]
    _unknown_keys(section, [*extra_keys, *(f.name for f in read)], where, collector)
    kwargs = {f.name: _config_scalar(section, f.name, f.default, where, collector, cast=type(f.default)) for f in read}
    return collector.check("config", 0, f"{where}: ", cls, **kwargs, **given) or cls()


def _validate_axes(config: Mapping[str, Any], collector: _Collector) -> tuple[StrategySpace, ScenarioSpace]:
    """The strategy and scenario spaces of the ``axes`` and ``horizon`` sections; omitted axes take their defaults."""
    axes = _expect_mapping(config.get("axes"), "axes", collector)

    names = [axis.name for axis in AXES]
    for key in axes:
        if key not in names:
            collector.add("config", 0, f"axes.{key} is not a recognised axis ({sorted(names)})")
    values = {}
    for name, field_name, kind in AXES:
        if name in axes:
            bounds = declared_bounds(ScenarioSpec).get(name, ())
            items = _config_list(axes[name], kind, f"axes.{name}", collector, bounds)
            if items == ():
                collector.add("config", 0, f"axes.{name} is empty")
            values[field_name] = items or ()

    horizon = _config_params(Horizon, _expect_mapping(config.get("horizon"), "horizon", collector), "horizon", collector)
    _check_compounding(horizon.discount_rate, horizon.n_years, "horizon.discount_rate", collector)

    strategy_space = StrategySpace(**{f.name: values.pop(f.name) for f in fields(StrategySpace) if f.name in values})
    return strategy_space, ScenarioSpace(**values, horizon=horizon)


def _check_compounding(rate: float, n_years: int, where: str, collector: _Collector) -> None:
    """Report ``rate`` when ``(1 + rate) ** n_years``, its growth over the horizon, overflows a float."""
    try:
        (1.0 + rate) ** n_years
    except OverflowError:
        collector.add("config", 0, f"{where}: (1 + {rate}) ** {n_years} overflows")


def _build_adoption(config: Mapping[str, Any], horizon: Horizon, collector: _Collector) -> AdoptionParams:
    section = _expect_mapping(config.get("adoption"), "adoption", collector)
    cagr = {g: dict(v) for g, v in DEFAULT_ADOPTION_CAGR.items()}
    for group_name, by_scenario in _expect_mapping(section.get("cagr"), "adoption.cagr", collector).items():
        try:
            group = IncomeGroup(group_name)
        except ValueError:
            collector.add("config", 0, f"adoption.cagr: unknown income group {group_name!r}")
            continue
        rates = _expect_mapping(by_scenario, f"adoption.cagr.{group_name}", collector)
        for scen_name in rates:
            try:
                scen = AdoptionScenario(scen_name)
            except ValueError:
                collector.add("config", 0, f"adoption.cagr.{group_name}: unknown scenario {scen_name!r}")
                continue
            cagr[group][scen] = _config_scalar(rates, scen_name, cagr[group][scen], f"adoption.cagr.{group_name}",
                                               collector, bounds=((">=", -1),))
    for group, by_scenario in cagr.items():
        for scen, rate in by_scenario.items():
            _check_compounding(rate, horizon.n_years, f"adoption.cagr.{group.value}.{scen.value}", collector)
    return _config_params(AdoptionParams, section, "adoption", collector, ("cagr",), cagr_by_income=cagr)


def _build_sim_params(config: Mapping[str, Any], collector: _Collector) -> tuple[SimulationParams, tuple[float, ...]]:
    section = _expect_mapping(config.get("simulation"), "simulation", collector)
    raw = section.get("density_grid", DEFAULT_DENSITY_GRID)
    grid = _config_list(raw, float, "simulation.density_grid", collector)
    if grid is not None and len(grid) == len(raw):  # a bad item is reported already
        collector.check("config", 0, "simulation: ", raise_broken, density_grid_rules(grid))
    return _config_params(SimulationParams, section, "simulation", collector, ("density_grid",)), grid or ()


def _build_cost_inputs(config: Mapping[str, Any], collector: _Collector) -> CostInputs:
    section = _expect_mapping(config.get("cost"), "cost", collector)
    if not section:
        return CostInputs()
    missing = [k for k in COST_KEYS if k not in section]
    if missing:
        collector.add("config", 0, f"cost: missing mandatory keys {missing}")
    unknown = _unknown_keys(section, COST_KEYS, "cost", collector)
    if missing or unknown:
        return CostInputs()
    return _config_params(CostInputs, section, "cost", collector)


def _build_table_portfolios(config: Mapping[str, Any], collector: _Collector) -> tuple[FrequencySet, ...]:
    section = _expect_mapping(config.get("tables"), "tables", collector)
    _unknown_keys(section, ("portfolios",), "tables", collector)
    raw = section.get("portfolios")
    if raw is None:
        return DEFAULT_TABLE_PORTFOLIOS
    if not isinstance(raw, list):
        collector.add("config", 0, "tables.portfolios must be a list")
        return DEFAULT_TABLE_PORTFOLIOS
    portfolios = []
    for entry in raw:
        entry = _expect_mapping(entry, "tables.portfolios[]", collector)
        _unknown_keys(entry, ("generation", "carriers"), "tables.portfolios[]", collector)
        try:
            gen = Generation(entry.get("generation"))
            carriers = tuple(Carrier(*(_parse(x, float, (), "carriers") for x in pair)) for pair in entry.get("carriers", ()))
        except (TypeError, ValueError, ValidationError) as err:
            collector.add("config", 0, f"tables.portfolios: {err}")
            continue
        if freq_set := collector.check("config", 0, "tables.portfolios: ", FrequencySet, gen, carriers):
            portfolios.append(freq_set)
    return tuple(portfolios) if portfolios else DEFAULT_TABLE_PORTFOLIOS


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that records each key repeated within its mapping, as ``(line, column, key)``."""

    repeated: tuple[tuple[int, int, Any], ...] = ()  # a tuple: ``+=`` gives each loader its own

    def construct_mapping(self, node, deep=False):
        written = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]  # before merge keys are added
        mapping = super().construct_mapping(node, deep=deep)
        keys = [self.construct_object(k) for k in written]  # each built already: the same objects
        self.repeated += tuple((n.start_mark.line + 1, n.start_mark.column, key)
                               for i, (n, key) in enumerate(zip(written, keys)) if key in keys[:i])
        return mapping


def load_config(config_path: Path | str, collector: _Collector) -> dict[str, Any]:
    """Parse the YAML config document and report its repeated keys and problems with its top-level structure."""
    path = Path(config_path)
    raw = None
    if not path.is_file():
        collector.add(path.name, 0, "config file is missing")
    elif (text := _read_utf8(path, collector)) is not None:
        loader = _ConfigLoader(text)
        try:
            raw = loader.get_single_data()
        except yaml.YAMLError as err:
            collector.add(path.name, 0, f"invalid YAML: {err}")
        for line, _, key in sorted(loader.repeated):  # in line order: YAML builds nested mappings last
            collector.add(path.name, line, f"duplicate key {key!r}")
    if raw is not None and not isinstance(raw, dict):
        collector.add(path.name, 0, "config must be a mapping at the top level")
    raw = raw if isinstance(raw, dict) else {}
    for key in raw:
        if key not in CONFIG_SECTIONS:
            collector.add(path.name, 0, f"unknown config section {key!r} (valid: {CONFIG_SECTIONS})")
    return raw


def load_bundle(data_dir: Path | str, config_path: Path | str) -> InputBundle:
    """Load and validate every input; raise with all diagnostics on failure."""
    data_dir = Path(data_dir)
    collector = _Collector()
    if not data_dir.is_dir():
        collector.add(str(data_dir), 0, "data directory is missing")
        collector.raise_if_any()

    config = load_config(config_path, collector)
    strategy_space, scenario_space = _validate_axes(config, collector)
    adoption = _build_adoption(config, scenario_space.horizon, collector)
    sim_params, density_grid = _build_sim_params(config, collector)
    cost_inputs = _build_cost_inputs(config, collector)
    energy_params = _config_params(EnergyParams, _expect_mapping(config.get("energy"), "energy", collector), "energy", collector)
    portfolios = _build_table_portfolios(config, collector)

    settlement = _config_params(SettlementThresholds, _expect_mapping(config.get("settlement"), "settlement", collector),
                                "settlement", collector)

    spectrum = _spectrum(_read_csv(data_dir / "spectrum.csv", collector))
    countries = _countries(_read_csv(data_dir / "countries.csv", collector), spectrum, collector)
    for iso3 in sorted(spectrum):
        if countries and iso3 not in countries:
            collector.add("spectrum.csv", 0, f"spectrum row references unknown country {iso3}")
    for iso3, params in sorted(countries.items()):
        for gen in strategy_space.generations:
            if all(g != gen for g, _ in params.spectrum_portfolio):
                collector.add("spectrum.csv", 0, f"{iso3}: no {gen.value} carriers in portfolio")
            else:
                collector.check("spectrum.csv", 0, f"{iso3}: {gen.value} ", params.frequency_set, gen)

    regions = _regions(_read_csv(data_dir / "regions.csv", collector), countries, collector)
    for iso3 in sorted(countries):
        if iso3 not in regions:
            collector.add("regions.csv", 0, f"country {iso3} has no regions")
    for iso3, columns in sorted(regions.items()):
        # a run holds decile sums as 64-bit integers, and a country's total bounds them all
        over = [c for c in ("population", "existing_sites") if sum(getattr(columns, c)) > 2**63 - 1]
        if over:
            collector.add("regions.csv", 0, f"{iso3}: total {' and total '.join(over)} above 2**63 - 1")

    energy_mix = _energy_mix(_read_csv(data_dir / "energy_mix.csv", collector), countries,
                             scenario_space.horizon.years(), collector)
    emission_factors = _emission_factors(_read_csv(data_dir / "emission_factors.csv", collector), collector)

    se_table = _se_table(_se_table_path(data_dir), collector)

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
        settlement_thresholds=settlement,
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
    se_table = _se_table(_se_table_path(data_dir), collector)
    collector.raise_if_any()
    return TableInputs(sim_params, density_grid, se_table, portfolios)


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def _text(value):
    """A cell's text: an enum's value; ``csv`` writes numbers with ``repr``."""
    return value.value if isinstance(value, Enum) else value


def save_bundle(bundle: InputBundle, data_dir: Path | str, config_path: Path | str) -> None:
    """Write a bundle back out in the documented schemas.

    Each CSV is written by walking its :data:`SCHEMAS` columns over the
    bundle's records, numbers with ``repr`` and enums as their values, so
    ``load_bundle(save_bundle(b)) == b`` field for field.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)

    records = {
        "regions.csv": (
            {"country_iso3": iso3, **dict(zip(vars(columns), row))}
            for iso3, columns in sorted(bundle.regions.items())
            for row in zip(*vars(columns).values())
        ),
        "countries.csv": (vars(bundle.countries[iso3]) for iso3 in sorted(bundle.countries)),
        "spectrum.csv": (
            {"country_iso3": iso3, "generation": gen, **vars(carrier)}
            for iso3 in sorted(bundle.countries)
            for gen, carrier in bundle.countries[iso3].spectrum_portfolio
        ),
        "energy_mix.csv": (
            {"region": region, "year": year, "source": source, "share": shares[source]}
            for region, by_year in sorted(bundle.energy_mix.items())
            for year, shares in sorted(by_year.items())
            for source in MIX_SOURCES
            if source in shares
        ),
        "emission_factors.csv": (
            {"source": source, **vars(bundle.emission_factors.by_source[source])}
            for source in (*MIX_SOURCES, DIESEL_SOURCE)
        ),
        "se_table.csv": (
            {"generation": gen, "min_sinr_db": min_sinr, "se_bps_hz": se}
            for gen in Generation
            for min_sinr, se in bundle.se_table.rows[gen]
        ),
    }
    for name, columns in SCHEMAS.items():
        with (data_dir / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(column for column, _, _ in columns)
            for record in records[name]:
                writer.writerow(_text(record[column]) for column, _, _ in columns)

    spaces = {**vars(bundle.strategy_space), **vars(bundle.scenario_space)}
    config = {
        "axes": {axis.name: [_text(v) for v in spaces[axis.field]] for axis in AXES},
        "horizon": vars(bundle.scenario_space.horizon),
        "settlement": vars(bundle.settlement_thresholds),
        "adoption": {
            **{k: v for k, v in vars(bundle.adoption).items() if k != "cagr_by_income"},
            "cagr": {
                g.value: {s.value: rate for s, rate in by_scen.items()}
                for g, by_scen in bundle.adoption.cagr_by_income.items()
            },
        },
        "simulation": {**vars(bundle.sim_params), "density_grid": list(bundle.density_grid)},
        "cost": vars(bundle.cost_inputs),
        "energy": vars(bundle.energy_params),
        "tables": {"portfolios": [
            {"generation": fs.generation.value, "carriers": [[c.frequency_mhz, c.bandwidth_mhz] for c in fs.carriers]}
            for fs in bundle.table_portfolios
        ]},
    }
    Path(config_path).write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
