"""End-to-end orchestration: demand -> capacity -> sites -> cost -> energy.

Capacity tables are built once per (country, generation) and cached on disk
keyed by a content hash of everything that determines them; cold builds of
one call share a carrier memo, so a carrier that several countries hold is
simulated once per density. With a warm cache the run matrix and result
emission, not table construction, dominate runtime, so each stage of a run
is computed once per the axes it depends on and shared by every run with
the same stage key:

* demand and sites: (country, generation, scenario)
* cost and cross-subsidy: (country, generation, backhaul, sharing, policy, scenario)
* energy and emissions: (country, generation, backhaul, sharing, energy strategy, scenario)

Results come back in deterministic run order (runs as given, countries
sorted, deciles in order); emission sorts them by run key, so output files
never depend on the order of the runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DecileRecord,
    Generation,
    ScenarioSpec,
    Settlement,
    StrategyBundle,
    build_deciles,
    enumerate_runs,
)
from .cost import (
    DecileCost,
    apply_sharing,
    cross_subsidize,
    decile_components,
    private_cost,
)
from .data_io import InputBundle
from .demand import (
    DemandResult,
    arpu_for_settlement,
    area_demand,
    decile_revenue_pv,
    penetration_series,
    per_user_busy_hour_rate,
)
from .dimensioning import SiteRequirement, required_sites
from .energy import (
    Emissions,
    GridSplit,
    YearEnergy,
    annual_energy,
    apply_renewables_strategy,
    build_schedule,
    cumulate_horizon,
    emissions,
    sharing_energy_divisor,
    split_energy,
)
from .errors import BbandSimError, ValidationError
from .radio import (
    CapacityTable,
    FrequencySet,
    build_capacity_table,
    load_capacity_tables,
    save_capacity_tables,
    table_cache_key,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunResult:
    """One (country, decile, strategy, scenario) outcome row."""

    country_iso3: str
    decile_index: int
    settlement: Settlement
    population: int
    area_km2: float
    strategy: StrategyBundle
    scenario: ScenarioSpec
    demand: DemandResult
    sites: SiteRequirement
    cost: DecileCost
    energy_kwh: float
    on_grid_kwh: float
    off_grid_kwh: float
    emissions: Emissions

    def sort_key(self):
        s, sc = self.strategy, self.scenario
        return (
            self.country_iso3,
            self.decile_index,
            s.generation.value,
            s.backhaul.value,
            s.sharing.value,
            s.policy.value,
            s.energy_strategy.value,
            sc.capacity_gb_month,
            sc.adoption.value,
        )


@dataclass(frozen=True)
class RunFailure:
    strategy: StrategyBundle
    scenario: ScenarioSpec
    error: str


@dataclass(frozen=True)
class PipelineOutput:
    results: list[RunResult]
    failures: list[RunFailure]


def country_deciles(bundle: InputBundle) -> dict[str, list[DecileRecord]]:
    """Density deciles for every country in the bundle."""
    return {
        iso3: build_deciles(list(bundle.regions[iso3]), iso3, bundle.settlement_thresholds)
        for iso3 in sorted(bundle.regions)
    }


def _load_cached_table(path: Path, freq_set: FrequencySet, density_grid: Sequence[float]) -> CapacityTable | None:
    """The table cached at ``path``, or None (with a warning) if it does not match its key."""
    try:
        loaded = load_capacity_tables(path)
    except (ValidationError, ValueError) as err:
        logger.warning("capacity table cache %s is unreadable (%s); rebuilding", path, err)
        return None
    table = loaded[0] if len(loaded) == 1 else None
    if (
        table is None
        or table.generation != freq_set.generation
        or table.freq_label != freq_set.label
        or tuple(d for d, _ in table.rows) != tuple(density_grid)
    ):
        logger.warning("capacity table cache %s does not match its key; rebuilding", path)
        return None
    return table


def capacity_tables(
    bundle: InputBundle,
    cache_dir: Path | str | None = None,
    jobs: int = 1,
    generations: Sequence[Generation] | None = None,
) -> dict[tuple[str, Generation], CapacityTable]:
    """Build (or load from cache) one capacity table per country and generation.

    A cached table whose generation, frequency label or density grid differs
    from the inputs behind its key is rebuilt and rewritten, never used.
    Tables built in one call share a carrier memo (see
    :func:`radio.simulate_density`), so identical portfolios, and carriers
    common to several, are simulated once per density.
    """
    if generations is None:
        generations = bundle.strategy_space.generations
    tables: dict[tuple[str, Generation], CapacityTable] = {}
    memo: dict = {}
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
    for iso3 in sorted(bundle.countries):
        for gen in generations:
            freq_set = bundle.frequency_set(iso3, gen)
            key = table_cache_key(bundle.sim_params, bundle.se_table, freq_set, bundle.density_grid)
            cache_file = cache / f"{key}.csv" if cache is not None else None
            table = None
            if cache_file is not None and cache_file.is_file():
                table = _load_cached_table(cache_file, freq_set, bundle.density_grid)
                if table is not None:
                    logger.debug("capacity table cache hit: %s %s", iso3, gen.value)
            if table is None:
                logger.info("building capacity table for %s %s (%s)", iso3, gen.value, freq_set.label)
                table = build_capacity_table(
                    bundle.sim_params, bundle.se_table, freq_set, bundle.density_grid, jobs=jobs, memo=memo
                )
                if cache_file is not None:
                    save_capacity_tables([table], cache_file)
            tables[(iso3, gen)] = table
    return tables


def _decile_demand(
    bundle: InputBundle,
    decile: DecileRecord,
    scenario: ScenarioSpec,
) -> DemandResult:
    country = bundle.countries[decile.country_iso3]
    cagr = bundle.adoption.cagr(country.income_group, scenario.adoption)
    cap = bundle.adoption.penetration_cap
    pen = penetration_series(bundle.adoption.base_cell_penetration, cagr, scenario.n_years, cap)
    sp = penetration_series(bundle.adoption.smartphone_base(decile.settlement), cagr, scenario.n_years, cap)
    rate = per_user_busy_hour_rate(scenario.capacity_gb_month)
    demand = area_demand(decile, pen, sp, rate, country.market_share)
    revenue = decile_revenue_pv(
        decile, pen, sp,
        arpu_for_settlement(country, decile.settlement),
        country.market_share,
        scenario.discount_rate,
    )
    users = max(decile.population * p * s for p, s in zip(pen, sp)) if decile.population else 0.0
    return DemandResult(
        smartphone_users=users,
        busy_hour_rate_mbps=rate,
        area_demand_mbps_km2=demand,
        revenue_pv_usd=revenue,
    )


def _decile_energy(
    bundle: InputBundle,
    decile: DecileRecord,
    sites: SiteRequirement,
    strategy: StrategyBundle,
    scenario: ScenarioSpec,
) -> tuple[float, float, float, Emissions]:
    country = bundle.countries[decile.country_iso3]
    divisor = sharing_energy_divisor(strategy.sharing, decile.settlement, country.n_major_operators)
    grid = apply_renewables_strategy(GridSplit(country.on_grid_share), strategy.energy_strategy)
    builds = build_schedule(sites.new_sites, scenario.n_years)

    per_year: list[YearEnergy] = []
    cumulative_new = 0
    for offset, year in enumerate(scenario.years()):
        cumulative_new += builds[offset]
        energy = annual_energy(decile.existing_sites, cumulative_new, bundle.energy_params, strategy.backhaul)
        energy /= divisor
        on, off = split_energy(energy, grid)
        mix_row = bundle.energy_mix[decile.country_iso3].get(year)
        if mix_row is None:
            raise ValidationError(f"{decile.country_iso3}: no energy mix for year {year}")
        species = emissions(on, off, mix_row, bundle.emission_factors, grid)
        per_year.append(YearEnergy(year, energy, on, off, species))
    totals = cumulate_horizon(per_year)
    return totals.energy_kwh, totals.on_grid_kwh, totals.off_grid_kwh, totals.emissions


def _country_sites(
    bundle: InputBundle,
    deciles: Sequence[DecileRecord],
    table: CapacityTable,
    scenario: ScenarioSpec,
) -> list[tuple[DecileRecord, DemandResult, SiteRequirement]]:
    rows = []
    for decile in deciles:
        demand = _decile_demand(bundle, decile, scenario)
        rows.append((decile, demand, required_sites(decile, demand.area_demand_mbps_km2, table)))
    return rows


def _country_costs(
    bundle: InputBundle,
    iso3: str,
    sited: Sequence[tuple[DecileRecord, DemandResult, SiteRequirement]],
    strategy: StrategyBundle,
) -> list[DecileCost]:
    country = bundle.countries[iso3]
    mhz_held = bundle.frequency_set(iso3, strategy.generation).total_bandwidth_mhz
    costs = []
    for decile, demand, sites in sited:
        components = decile_components(sites.new_sites, sites.upgraded_sites, strategy.backhaul, bundle.cost_inputs)
        shared = apply_sharing(components, strategy.sharing, country.n_major_operators, decile.settlement)
        costs.append(
            private_cost(
                shared.total,
                bundle.cost_inputs,
                strategy.policy,
                demand.revenue_pv_usd,
                spectrum_mhz=mhz_held,
                population=decile.population,
                country_iso3=iso3,
                decile_index=decile.decile_index,
            )
        )
    return cross_subsidize(costs)


def _stage(memo: dict, key: tuple, compute: Callable[[], list]) -> list:
    """The value memoised under ``key``, computed on first use.

    A failing computation stores nothing, so every run that needs the key
    fails on its own.
    """
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _run_one(
    bundle: InputBundle,
    deciles: dict[str, list[DecileRecord]],
    tables: dict[tuple[str, Generation], CapacityTable],
    strategy: StrategyBundle,
    scenario: ScenarioSpec,
    memo: dict,
) -> list[RunResult]:
    s = strategy
    results: list[RunResult] = []
    for iso3 in sorted(deciles):
        sited = _stage(memo, ("sites", iso3, s.generation, scenario), lambda: _country_sites(
            bundle, deciles[iso3], tables[(iso3, s.generation)], scenario))
        costs = _stage(memo, ("cost", iso3, s.generation, s.backhaul, s.sharing, s.policy, scenario),
                       lambda: _country_costs(bundle, iso3, sited, strategy))
        energy = _stage(memo, ("energy", iso3, s.generation, s.backhaul, s.sharing, s.energy_strategy, scenario),
                        lambda: [_decile_energy(bundle, d, sites, strategy, scenario) for d, _, sites in sited])
        for (decile, demand, sites), cost, totals in zip(sited, costs, energy):
            results.append(RunResult(iso3, decile.decile_index, decile.settlement, decile.population,
                                     decile.area_km2, strategy, scenario, demand, sites, cost, *totals))
    return results


def run_pipeline(
    bundle: InputBundle,
    runs: Sequence[tuple[StrategyBundle, ScenarioSpec]] | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
) -> PipelineOutput:
    """Execute the run matrix and return per-decile results.

    ``runs`` defaults to the full enumeration of the bundle's axes. A
    failing run is recorded with its run key and does not abort the rest.
    ``jobs`` is the thread count for capacity-table builds; the runs
    themselves execute in one thread. Results come back in deterministic
    run order: runs as given, then countries sorted, then deciles;
    :func:`emit_results` sorts them by run key.
    """
    if runs is None:
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
    deciles = country_deciles(bundle)
    needed = sorted({strategy.generation for strategy, _ in runs}, key=lambda g: g.value)
    tables = capacity_tables(bundle, cache_dir=cache_dir, jobs=jobs, generations=needed)

    memo: dict = {}
    results: list[RunResult] = []
    failures: list[RunFailure] = []
    for strategy, scenario in runs:
        try:
            results.extend(_run_one(bundle, deciles, tables, strategy, scenario, memo))
        except BbandSimError as err:
            failures.append(RunFailure(strategy, scenario, f"{type(err).__name__}: {err}"))
            logger.error("run failed (%s, %s): %s", strategy, scenario, failures[-1].error)
    return PipelineOutput(results=results, failures=failures)


# ---------------------------------------------------------------------------
# Emission of result files
# ---------------------------------------------------------------------------

def _fmt_any(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


_FMT_BY_TYPE = {str: str, int: str, float: "{:.6g}".format}


def _fmt(value) -> str:
    """Fixed formatting: integers verbatim, floats at 6 significant digits."""
    return _FMT_BY_TYPE.get(type(value), _fmt_any)(value)


DECILE_COLUMNS = [
    "country_iso3", "decile_index", "settlement", "population", "area_km2",
    "generation", "backhaul", "sharing", "policy", "energy_strategy",
    "capacity_gb_month", "adoption",
    "demand_mbps_km2", "total_sites", "existing_sites", "new_sites",
    "upgraded_sites", "unserviceable",
    "revenue_pv_usd", "network_usd", "administration_usd", "spectrum_usd",
    "tax_usd", "profit_usd", "private_cost_usd", "subsidy_usd",
    "government_cost_usd", "financial_cost_usd",
    "energy_kwh", "on_grid_kwh", "off_grid_kwh",
    "co2_kg", "nox_g", "sox_g", "pm10_g",
]

COUNTRY_COLUMNS = [
    "country_iso3", "generation", "backhaul", "sharing", "policy",
    "energy_strategy", "capacity_gb_month", "adoption",
    "population", "total_sites", "new_sites", "upgraded_sites",
    "unserviceable_deciles",
    "revenue_pv_usd", "network_usd", "administration_usd", "spectrum_usd",
    "tax_usd", "profit_usd", "private_cost_usd", "subsidy_usd",
    "government_cost_usd", "financial_cost_usd",
    "energy_kwh", "on_grid_kwh", "off_grid_kwh",
    "co2_kg", "nox_g", "sox_g", "pm10_g",
]

_SUM_FIELDS = [
    "revenue_pv_usd", "network_usd", "administration_usd", "spectrum_usd",
    "tax_usd", "profit_usd", "private_cost_usd", "subsidy_usd",
    "government_cost_usd", "financial_cost_usd",
    "energy_kwh", "on_grid_kwh", "off_grid_kwh",
    "co2_kg", "nox_g", "sox_g", "pm10_g",
]


def decile_row(r: RunResult) -> dict:
    s, sc, c = r.strategy, r.scenario, r.cost
    return {
        "country_iso3": r.country_iso3,
        "decile_index": r.decile_index,
        "settlement": r.settlement.value,
        "population": r.population,
        "area_km2": r.area_km2,
        "generation": s.generation.value,
        "backhaul": s.backhaul.value,
        "sharing": s.sharing.value,
        "policy": s.policy.value,
        "energy_strategy": s.energy_strategy.value,
        "capacity_gb_month": sc.capacity_gb_month,
        "adoption": sc.adoption.value,
        "demand_mbps_km2": r.demand.area_demand_mbps_km2,
        "total_sites": r.sites.total_sites,
        "existing_sites": r.sites.existing_sites,
        "new_sites": r.sites.new_sites,
        "upgraded_sites": r.sites.upgraded_sites,
        "unserviceable": r.sites.unserviceable,
        "revenue_pv_usd": c.revenue_pv,
        "network_usd": c.network,
        "administration_usd": c.administration,
        "spectrum_usd": c.spectrum,
        "tax_usd": c.tax,
        "profit_usd": c.profit,
        "private_cost_usd": c.private_cost,
        "subsidy_usd": c.subsidy,
        "government_cost_usd": c.government_cost,
        "financial_cost_usd": c.financial_cost,
        "energy_kwh": r.energy_kwh,
        "on_grid_kwh": r.on_grid_kwh,
        "off_grid_kwh": r.off_grid_kwh,
        "co2_kg": r.emissions.co2_kg,
        "nox_g": r.emissions.nox_g,
        "sox_g": r.emissions.sox_g,
        "pm10_g": r.emissions.pm10_g,
    }


class _GroupSums:
    """Per-group sums of decile-row fields, added in the order rows are fed.

    ``sums`` holds ``(column, source field, zero)`` triples; rows that
    differ from ``where`` in any field are skipped. :meth:`rows` returns one
    row per group, sorted by the group fields.
    """

    def __init__(self, group_fields: Sequence[str], sums: Sequence[tuple[str, str, float]], where: dict | None = None):
        self.group_fields = tuple(group_fields)
        self.sums = tuple(sums)
        self.where = tuple((where or {}).items())
        self.groups: dict[tuple, dict] = {}

    def add(self, d: dict) -> None:
        for f, v in self.where:
            if d[f] != v:
                return
        key = tuple(d[f] for f in self.group_fields)
        row = self.groups.get(key)
        if row is None:
            row = self.groups[key] = dict(zip(self.group_fields, key))
            row.update((column, zero) for column, _, zero in self.sums)
        for column, field, _ in self.sums:
            row[column] += d[field]

    def rows(self) -> list[dict]:
        return [self.groups[k] for k in sorted(self.groups)]


def _country_sums() -> _GroupSums:
    counts = [(f, f, 0) for f in ("population", "total_sites", "new_sites", "upgraded_sites")]
    counts.append(("unserviceable_deciles", "unserviceable", 0))
    group = COUNTRY_COLUMNS[:COUNTRY_COLUMNS.index("population")]  # country and run key
    return _GroupSums(group, [*counts, *((f, f, 0.0) for f in _SUM_FIELDS)])


def aggregate_country_rows(results: Sequence[RunResult]) -> list[dict]:
    """Country-level aggregation of the per-decile results, full precision."""
    sums = _country_sums()
    for r in results:
        sums.add(decile_row(r))
    return sums.rows()


_COST_ENERGY = ["financial_cost_usd", "energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g"]

#: (file name, group fields, value fields, baseline filter) of each summary file.
_SUMMARIES = [
    ("summary_by_technology.csv", ["generation", "backhaul", "capacity_gb_month", "adoption"], _COST_ENERGY,
     {"sharing": "baseline", "policy": "baseline", "energy_strategy": "baseline"}),
    ("summary_by_sharing.csv", ["sharing"], _COST_ENERGY, {"policy": "baseline", "energy_strategy": "baseline"}),
    ("summary_by_policy.csv", ["policy"],
     ["financial_cost_usd", "private_cost_usd", "government_cost_usd", "subsidy_usd"],
     {"sharing": "baseline", "energy_strategy": "baseline"}),
    ("summary_emissions.csv", ["energy_strategy", "generation", "backhaul"],
     ["energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g"], {"sharing": "baseline", "policy": "baseline"}),
]


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[dict]) -> None:
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join([_fmt(row[c]) for c in columns]) + "\n")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def _feeding(rows: Iterable[dict], sinks: Sequence[_GroupSums]) -> Iterator[dict]:
    """Yield ``rows`` unchanged, adding each one to every sink on the way."""
    for d in rows:
        for sink in sinks:
            sink.add(d)
        yield d


def emit_results(results: Sequence[RunResult], out_dir: Path | str) -> list[Path]:
    """Write the decile, country and summary CSVs; returns the paths written.

    Output is byte-stable: rows are fully sorted, floats carry 6 significant
    digits, and re-running with identical inputs rewrites identical files.
    One sorted pass formats each decile row once, streams it to
    ``results_decile.csv`` and adds it to the country and summary sums, so
    every sum accumulates in sorted row order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    country = _country_sums()
    summaries = [(name, [*group, *values], _GroupSums(group, [(f, f, 0.0) for f in values], where))
                 for name, group, values, where in _SUMMARIES]
    sinks = [country, *(sums for _, _, sums in summaries)]
    rows = (decile_row(r) for r in sorted(results, key=RunResult.sort_key))

    paths = [out / "results_decile.csv", out / "results_country.csv"]
    _write_csv(paths[0], DECILE_COLUMNS, _feeding(rows, sinks))
    _write_csv(paths[1], COUNTRY_COLUMNS, country.rows())
    for name, columns, sums in summaries:
        paths.append(out / name)
        _write_csv(paths[-1], columns, sums.rows())
    return paths
