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
...) run on the rows that parsed, and last the link budget's float ranges
(:func:`core.link_budget_rules`) on each carrier a command would simulate.
All diagnostics are raised together as :class:`InputValidationError`.
``se_table.csv`` is optional; the packaged table is used when it is absent.

The config is a YAML mapping of the :data:`CONFIG_SECTIONS`, each checked once
to be a mapping and read as empty when absent. One reader reads each section of
:data:`CONFIG_RECORDS` into its record: a key as the type of its field's default,
an absent key left at that default. The ``cost`` record is ``ALL_OR_NONE``: a
partial section is reported. A key that no section reads is rejected, in
``tables`` and its portfolio entries too.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import reprlib
import time
from dataclasses import dataclass, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import yaml

from .core import (
    ADOPTION_CAGR_BOUNDS, AXES, BOUND_OPS, DEFAULT_ADOPTION_CAGR, DEFAULT_DENSITY_GRID, DIESEL_SOURCE,
    MIX_SHARE_BOUNDS, MIX_SOURCES, N_DECILES, AdoptionParams, AdoptionScenario, Carrier, CostInputs,
    CountryParams, EmissionFactors, EnergyParams, FactorRow, FrequencySet, Generation, Horizon, IncomeGroup,
    Regions, ScenarioSpace, ScenarioSpec, SettlementThresholds, SimulationParams, SpectralEfficiencyTable,
    StrategySpace, broken_bound, declared_bounds, density_grid_rules, link_budget_rules, mix_sum_problem,
    ordered_sum, raise_broken,
)
from .errors import InputValidationError, ValidationError

logger = logging.getLogger(__name__)

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

#: Each config section read as a record, in section order, and its record.
CONFIG_RECORDS = {"horizon": Horizon, "settlement": SettlementThresholds, "adoption": AdoptionParams,
                  "simulation": SimulationParams, "cost": CostInputs, "energy": EnergyParams}

#: Every config section, in order: the run-matrix axes, the records, then the ``tables`` command's portfolios.
CONFIG_SECTIONS = ("axes", *CONFIG_RECORDS, "tables")


@dataclass(frozen=True)
class Diagnostic:
    """One validation problem, with enough context to find it."""

    file: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.message}" if self.line else f"{self.file}: {self.message}"


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
        self.rows: dict[str, int] = {}  # file name -> data rows, for each CSV read with its header right

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


#: The one rendering of a config or cell value in a diagnostic: its repr, cut past two levels of nesting, six
#: items and 60 characters, so that a YAML alias nest, whose full repr grows tenfold per level, stays one short line.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxdict, _SHOWN.maxstring, _SHOWN.maxlong, _SHOWN.maxother = 2, 6, 60, 60, 60


def _parse(raw, where: str, kind, bounds=()):
    """``raw`` as a ``kind`` within ``bounds``, else ValidationError: the diagnostic, led by ``where``."""
    if kind is str:
        value = raw.strip()
    elif kind is not int and kind is not float:
        try:  # only a string can be a value: the enum's own error would repr any other in full
            return kind(raw if isinstance(raw, str) else None)
        except ValueError:
            raise ValidationError(f"{where}: {_SHOWN.repr(raw)} is not one of "
                                  f"{{{', '.join(e.value for e in kind)}}}") from None
    else:
        try:
            value = kind(raw)
            if isinstance(raw, bool) or kind is int and isinstance(raw, float) and value != raw:
                raise ValueError  # a YAML boolean (yes, on, true), or int() would drop the fraction
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{where}: {_SHOWN.repr(raw)} is not a valid {kind.__name__}") from None
        if kind is float and not -math.inf < value < math.inf:
            raise ValidationError(f"{where}: {_SHOWN.repr(raw)} is not finite")
    for op, limit in bounds:  # only a broken bound builds its text
        if not BOUND_OPS[op](value, limit):
            raise ValidationError(broken_bound(where, value, bounds))
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
    ends. A file that is not UTF-8 gives one diagnostic and no rows; a record
    csv cannot read (a stray quote can run a field past csv's size limit)
    gives one diagnostic at the line where it starts, and ends the rows.
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
    line = 1  # the line the last record ended on: the header was read before the reader
    rows = 0
    try:
        for cells in reader:
            line = reader.line_num + 1
            if not cells:
                continue
            rows += 1
            if len(cells) != len(columns):
                collector.add(name, line, "wrong number of columns")
                continue
            try:  # a good cell costs one _parse call
                yield line, [_parse(raw, *column) for raw, column in zip(cells, columns)]
            except ValidationError:  # the row again, cell by cell: one diagnostic per bad cell, in column order
                for raw, column in zip(cells, columns):
                    collector.check(name, line, "", _parse, raw, *column)
    except csv.Error as err:
        collector.add(name, line + 1, f"unreadable record: {err}")
    collector.rows[name] = rows


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
            population, area = values[:2]  # a population above 2**63 - 1 is reported with its country's total
            if population <= 2**63 - 1 and not math.isfinite(population / area):
                collector.add("regions.csv", line, f"region {region_id}: population / area_km2 is not finite")
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
            if (problem := mix_sum_problem(shares.values())) is not None:
                collector.add("energy_mix.csv", 0, f"{region}/{year}: {problem}")
    for iso3 in sorted(countries):
        if iso3 not in mix:
            collector.add("energy_mix.csv", 0, f"country {iso3} has no energy mix rows")
        elif missing := _missing_years(years, mix[iso3]):
            collector.add("energy_mix.csv", 0, f"{iso3}: missing mix years {missing}")
    return mix


def _missing_years(years: range, present: Iterable[int], shown: int = 5) -> str:
    """The ``years`` not ``present`` as ``[2024, 2026-2030]``: the first ``shown`` runs, then ``(+K more)``; "" if none.

    Each run is a gap between present years, so the work grows with those, not with the horizon.
    """
    runs, start = [], years.start
    for year in [*sorted(y for y in present if y in years), years.stop]:  # the stop ends the last gap
        if year > start:
            runs.append((start, year - 1))
        start = year + 1
    text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs[:shown])
    more = f" (+{len(runs) - shown} more)" if len(runs) > shown else ""
    return f"[{text}]{more}" if runs else ""


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
    """``value`` if it is a mapping, else empty: reported, unless it is None (an empty YAML value)."""
    if value is not None and not isinstance(value, dict):
        collector.add("config", 0, f"{where} must be a mapping")
    return value if isinstance(value, dict) else {}


def _config_list(raw, where: str, collector: _Collector, kind, bounds=()) -> tuple | None:
    """The items of a config list that parse as ``kind``; None when ``raw`` is not a list."""
    if not isinstance(raw, (list, tuple)):
        collector.add("config", 0, f"{where} must be a list")
        return None
    items = [collector.check("config", 0, "", _parse, item, where, kind, bounds) for item in raw]
    return tuple(item for item in items if item is not None)


def _unknown_keys(section: dict, known: Iterable[str], where: str, collector: _Collector) -> None:
    """Report the keys of a config section that nothing reads, all in one diagnostic."""
    if unknown := [k for k in section if k not in known]:
        collector.add("config", 0, f"{where}: unknown keys {unknown}")


def _config_params(name: str, config: Mapping[str, dict], collector: _Collector, extra_keys=(), **given):
    """The :data:`CONFIG_RECORDS` record of section ``name``: each field's key parsed as the type of its default.

    An absent key leaves the field's default; ``given`` fields are passed as they are. A key that is neither
    a read field nor one of ``extra_keys`` is reported. A record with ``ALL_OR_NONE`` takes every field's key
    or none: a partial section is reported and gives the defaults, its rules unchecked.
    """
    record, section = CONFIG_RECORDS[name], config[name]
    read = [f for f in fields(record) if f.name not in given]
    all_or_none = section and getattr(record, "ALL_OR_NONE", False)
    missing = [f.name for f in read if f.name not in section] if all_or_none else []
    if missing:
        collector.add("config", 0, f"{name}: missing mandatory keys {missing}")
    _unknown_keys(section, [*extra_keys, *(f.name for f in read)], name, collector)
    for f in (f for f in read if f.name in section):
        value = collector.check("config", 0, "", _parse, section[f.name], f"{name}.{f.name}", type(f.default))
        if value is not None:
            given[f.name] = value
    if missing:
        return record()
    return collector.check("config", 0, f"{name}: ", record, **given) or record()


def _axes(section: dict, collector: _Collector) -> dict[str, tuple]:
    """The values of each axis the ``axes`` section gives, by the name of the space field that holds them."""
    names = [axis.name for axis in AXES]
    for key in section:
        if key not in names:
            collector.add("config", 0, f"axes.{key} is not a recognised axis ({sorted(names)})")
    values = {}
    for name, field_name, kind in AXES:
        if name in section:
            bounds = declared_bounds(ScenarioSpec).get(name, ())
            items = _config_list(section[name], f"axes.{name}", collector, kind, bounds)
            if items == ():
                collector.add("config", 0, f"axes.{name} is empty")
            values[field_name] = items or ()
    return values


def _check_compounding(rate: float, n_years: int, where: str, collector: _Collector) -> None:
    """Report ``rate`` when ``(1 + rate) ** n_years``, its growth over the horizon, overflows a float."""
    try:
        (1.0 + rate) ** n_years
    except OverflowError:
        collector.add("config", 0, f"{where}: (1 + {rate}) ** {n_years} overflows")


def _adoption(config: Mapping[str, dict], horizon: Horizon, collector: _Collector) -> AdoptionParams:
    """The ``adoption`` record, its ``cagr`` table's rates over the defaults and each rate's growth checked."""
    cagr = {g: dict(v) for g, v in DEFAULT_ADOPTION_CAGR.items()}
    for group_name, by_scenario in _expect_mapping(config["adoption"].get("cagr"), "adoption.cagr", collector).items():
        try:
            group = IncomeGroup(group_name)
        except ValueError:
            collector.add("config", 0, f"adoption.cagr: unknown income group {group_name!r}")
            continue
        where = f"adoption.cagr.{group_name}"
        for scen_name, raw in _expect_mapping(by_scenario, where, collector).items():
            try:
                scen = AdoptionScenario(scen_name)
            except ValueError:
                collector.add("config", 0, f"{where}: unknown scenario {scen_name!r}")
                continue
            rate = collector.check("config", 0, "", _parse, raw, f"{where}.{scen_name}", float, ADOPTION_CAGR_BOUNDS)
            if rate is not None:
                cagr[group][scen] = rate
    for group, by_scenario in cagr.items():
        for scen, rate in by_scenario.items():
            _check_compounding(rate, horizon.n_years, f"adoption.cagr.{group.value}.{scen.value}", collector)
    return _config_params("adoption", config, collector, ("cagr",), cagr_by_income=cagr)


def _sim_params(config: Mapping[str, dict], collector: _Collector) -> tuple[SimulationParams, tuple[float, ...]]:
    """The ``simulation`` record, and its ``density_grid``: the default when the section gives none."""
    raw = config["simulation"].get("density_grid", DEFAULT_DENSITY_GRID)
    grid = _config_list(raw, "simulation.density_grid", collector, float)
    if grid is not None and len(grid) == len(raw):  # a bad item is reported already
        collector.check("config", 0, "simulation: ", raise_broken, density_grid_rules(grid))
    return _config_params("simulation", config, collector, ("density_grid",)), grid or ()


def _table_portfolios(section: dict, collector: _Collector) -> tuple[FrequencySet, ...]:
    """The frequency sets of the ``tables`` section, or :data:`DEFAULT_TABLE_PORTFOLIOS` if none is given and valid."""
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
        generation, pairs = entry.get("generation"), entry.get("carriers", [])
        try:
            if generation not in [g.value for g in Generation]:  # a list: an unhashable value is compared, not hashed
                raise ValidationError(f"{_SHOWN.repr(generation)} is not a valid Generation")
            gen = Generation(generation)
            if not isinstance(pairs, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
                raise ValidationError(f"carriers: {_SHOWN.repr(pairs)} is not a list of [frequency_mhz, "
                                      "bandwidth_mhz] pairs")
            carriers = tuple(Carrier(*(_parse(x, "carriers", float) for x in pair)) for pair in pairs)
        except ValidationError as err:
            collector.add("config", 0, f"tables.portfolios: {err}")
            continue
        if freq_set := collector.check("config", 0, "tables.portfolios: ", FrequencySet, gen, carriers):
            portfolios.append(freq_set)
    return tuple(portfolios) or DEFAULT_TABLE_PORTFOLIOS


def _check_link_budget(params: SimulationParams, carriers: Iterable[Carrier], collector: _Collector) -> None:
    """Report each float range that the link budget of ``carriers`` leaves (:func:`link_budget_rules`)."""
    collector.check("config", 0, "simulation: ", raise_broken, link_budget_rules(params, carriers))


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


def load_config(config_path: Path | str, collector: _Collector) -> dict[str, dict]:
    """Each of :data:`CONFIG_SECTIONS` of the YAML config document as a mapping, empty when it is absent.

    Reports the document's repeated keys, problems with its top-level structure, and each section that is
    not a mapping, which is then read as empty.
    """
    path = Path(config_path)
    raw = None
    if not path.is_file():
        collector.add(path.name, 0, "config file is missing")
    elif (text := _read_utf8(path, collector)) is not None:
        loader = _ConfigLoader(text)
        try:
            raw = loader.get_single_data()
        except (yaml.YAMLError, RecursionError) as err:  # a document nested too deep for the parser's recursion
            collector.add(path.name, 0, f"invalid YAML: {err}")
        for line, _, key in sorted(loader.repeated):  # in line order: YAML builds nested mappings last
            collector.add(path.name, line, f"duplicate key {key!r}")
    if raw is not None and not isinstance(raw, dict):
        collector.add(path.name, 0, "config must be a mapping at the top level")
    raw = raw if isinstance(raw, dict) else {}
    for key in raw:
        if key not in CONFIG_SECTIONS:
            collector.add(path.name, 0, f"unknown config section {key!r} (valid: {CONFIG_SECTIONS})")
    return {name: _expect_mapping(raw.get(name), name, collector) for name in CONFIG_SECTIONS}


def load_bundle(data_dir: Path | str, config_path: Path | str) -> InputBundle:
    """Load and validate every input, the link budget of every carrier last; raise with all diagnostics on failure.

    A ``countries.csv`` with its header and no data row is a diagnostic: there is nothing to model. Logs one INFO
    line: the CSV files read, their data rows, the countries, their deciles, the degenerate ones (those a country
    with fewer than :data:`core.N_DECILES` regions leaves empty) and the seconds taken.
    """
    start = time.perf_counter()
    data_dir = Path(data_dir)
    collector = _Collector()
    if not data_dir.is_dir():
        collector.add(str(data_dir), 0, "data directory is missing")
        collector.raise_if_any()

    config = load_config(config_path, collector)
    axes = _axes(config["axes"], collector)
    horizon = _config_params("horizon", config, collector)
    _check_compounding(horizon.discount_rate, horizon.n_years, "horizon.discount_rate", collector)
    settlement = _config_params("settlement", config, collector)
    adoption = _adoption(config, horizon, collector)
    sim_params, density_grid = _sim_params(config, collector)
    cost_inputs, energy_params = (_config_params(name, config, collector) for name in ("cost", "energy"))
    portfolios = _table_portfolios(config["tables"], collector)
    strategy_space = StrategySpace(**{f.name: axes.pop(f.name) for f in fields(StrategySpace) if f.name in axes})
    scenario_space = ScenarioSpace(**axes, horizon=horizon)

    spectrum = _spectrum(_read_csv(data_dir / "spectrum.csv", collector))
    countries = _countries(_read_csv(data_dir / "countries.csv", collector), spectrum, collector)
    if collector.rows.get("countries.csv") == 0:
        collector.add("countries.csv", 0, "no country rows")
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
        if not math.isfinite(ordered_sum(columns.area_km2)):  # a decile's area sums a part of it
            collector.add("regions.csv", 0, f"{iso3}: total area_km2 is not finite")

    energy_mix = _energy_mix(_read_csv(data_dir / "energy_mix.csv", collector), countries, horizon.years(), collector)
    emission_factors = _emission_factors(_read_csv(data_dir / "emission_factors.csv", collector), collector)

    se_table = _se_table(_se_table_path(data_dir), collector)

    spectrum_carriers = [c for params in countries.values() for _, c in params.spectrum_portfolio]
    _check_link_budget(sim_params, [*spectrum_carriers, *(c for fs in portfolios for c in fs.carriers)], collector)
    collector.raise_if_any()
    logger.info("input load: %d files, %d data rows, %d countries, %d deciles, %d degenerate deciles, %.3f s",
                len(collector.rows), sum(collector.rows.values()), len(countries), N_DECILES * len(countries),
                sum(max(0, N_DECILES - len(r)) for r in regions.values()), time.perf_counter() - start)
    return InputBundle(
        countries=countries, regions=regions, adoption=adoption, energy_mix=energy_mix,
        emission_factors=emission_factors, se_table=se_table, cost_inputs=cost_inputs, sim_params=sim_params,
        energy_params=energy_params, strategy_space=strategy_space, scenario_space=scenario_space,
        settlement_thresholds=settlement, density_grid=density_grid, table_portfolios=portfolios,
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

    Reads the config's ``simulation`` and ``tables`` sections, after
    :func:`load_config` has checked that every section is a mapping, and the
    SE table (``<data_dir>/se_table.csv`` if present, else the packaged one),
    then the link budget of the portfolios' carriers. Like :func:`load_bundle`,
    raises one :class:`InputValidationError` carrying every diagnostic.
    """
    collector = _Collector()
    config = load_config(config_path, collector)
    sim_params, density_grid = _sim_params(config, collector)
    portfolios = _table_portfolios(config["tables"], collector)
    se_table = _se_table(_se_table_path(data_dir), collector)
    _check_link_budget(sim_params, (c for fs in portfolios for c in fs.carriers), collector)
    collector.raise_if_any()
    return TableInputs(sim_params, density_grid, se_table, portfolios)


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def _text(value):
    """A cell's text: an enum's value; ``csv`` writes numbers with ``repr``."""
    return value.value if isinstance(value, Enum) else value


def write_files(files: Mapping[Path, Iterable[str]]) -> None:
    """Write each path's text chunks, all the files as one set: the one way bband-sim writes a file.

    Each file's directory is made when that file is written, and each chunk is one ``write`` to
    ``.<name>.<pid>.tmp`` beside it. Only once every file is written are they renamed over their paths, in order.
    On any exception, ``KeyboardInterrupt`` included, the temporary files are removed, so the files already there
    stay as they were. A failed write raises ``OSError("cannot write <path>: <error>")``.
    """
    temporary: dict[Path, Path] = {}
    try:
        for path, chunks in files.items():
            tmp = temporary[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with tmp.open("w", newline="", encoding="utf-8") as fh:
                    for chunk in chunks:
                        fh.write(chunk)
            except OSError as err:
                raise OSError(f"cannot write {path}: {err}") from err
        for path, tmp in temporary.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temporary.values():
            tmp.unlink(missing_ok=True)
        raise


def save_bundle(bundle: InputBundle, data_dir: Path | str, config_path: Path | str) -> None:
    """Write a bundle back out in the documented schemas, the six CSVs and the config as one :func:`write_files` set.

    Each CSV is written by walking its :data:`SCHEMAS` columns over the
    bundle's records, numbers with ``repr`` and enums as their values, so
    ``load_bundle(save_bundle(b)) == b`` field for field.
    """
    data_dir = Path(data_dir)

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

    def csv_text(name: str) -> Iterator[str]:
        columns = [column for column, _, _ in SCHEMAS[name]]
        csv.writer(text := io.StringIO()).writerows([columns, *([_text(r[c]) for c in columns] for r in records[name])])
        yield text.getvalue()

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
    write_files({**{data_dir / name: csv_text(name) for name in SCHEMAS},
                 Path(config_path): [yaml.safe_dump(config, sort_keys=True)]})
