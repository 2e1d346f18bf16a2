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

Each stage computes a whole country's deciles at once: demand and sites
through the per-decile functions, cost through :func:`cost.cost_columns`
and energy through the array kernel :func:`energy.energy`, each bit for
bit equal to its per-decile chain. Stage outputs are numpy columns, and
:func:`run_pipeline` returns them as one :class:`ResultTable`, in
deterministic run order (runs as given, countries sorted, deciles in
order); :class:`RunResult` rows are built only when asked for.

:func:`emit_results` sorts the table by run key with one ``np.lexsort``,
so output files never depend on the order of the runs. It writes
``results_decile.csv`` in blocks of sorted rows, formatting each distinct
value of a column once per block, and computes the country file and the
four summaries as group-bys (``np.bincount``/``np.add.at``), which add in
sorted row order, exactly as a running total would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    DecileRecord,
    Generation,
    ScenarioSpec,
    Settlement,
    StrategyBundle,
    build_deciles,
    enumerate_runs,
)
from .cost import DecileCost, cost_columns
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
from .energy import Emissions, GridSplit, apply_renewables_strategy, energy
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
        return (self.country_iso3, self.decile_index, *run_key(self.strategy, self.scenario))


@dataclass(frozen=True)
class RunFailure:
    strategy: StrategyBundle
    scenario: ScenarioSpec
    error: str


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

#: Result columns set by the run (strategy and scenario), in sort order.
RUN_KEY_COLUMNS = ("generation", "backhaul", "sharing", "policy", "energy_strategy", "capacity_gb_month", "adoption")

#: The per-row columns of a :class:`ResultTable`: every decile column
#: outside the run key, and the two demand fields only :class:`RunResult` carries.
TABLE_COLUMNS = [c for c in DECILE_COLUMNS if c not in RUN_KEY_COLUMNS] + ["smartphone_users", "busy_hour_rate_mbps"]


def run_key(strategy: StrategyBundle, scenario: ScenarioSpec) -> tuple:
    """The values of :data:`RUN_KEY_COLUMNS` for one run."""
    s = strategy
    return (s.generation.value, s.backhaul.value, s.sharing.value, s.policy.value,
            s.energy_strategy.value, scenario.capacity_gb_month, scenario.adoption.value)


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Per-decile results as numpy columns, one row per (run, country, decile).

    ``runs`` lists each run once and ``run`` holds each row's index into
    it; ``columns`` maps every name in :data:`TABLE_COLUMNS` to a per-row
    array. The run-key columns are per run, in :attr:`run_values`.
    """

    runs: Sequence[tuple[StrategyBundle, ScenarioSpec]]
    run: np.ndarray
    columns: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.run)

    @cached_property
    def run_keys(self) -> list[tuple]:
        """:func:`run_key` of each run."""
        return [run_key(*r) for r in self.runs]

    @cached_property
    def run_values(self) -> dict[str, np.ndarray]:
        """Each run-key column's value per run (not per row)."""
        return {name: np.array([k[i] for k in self.run_keys]) for i, name in enumerate(RUN_KEY_COLUMNS)}

    def column(self, name: str, rows: np.ndarray) -> np.ndarray:
        """The values of any decile column at row indices ``rows``."""
        if name in self.run_values:
            return self.run_values[name][self.run[rows]]
        return self.columns[name][rows]

    def sort_order(self) -> np.ndarray:
        """Row indices in :meth:`RunResult.sort_key` order; equal keys keep row order."""
        rank = {k: i for i, k in enumerate(sorted(set(self.run_keys)))}
        run_rank = np.array([rank[k] for k in self.run_keys], dtype=np.int64)
        return np.lexsort((run_rank[self.run], self.columns["decile_index"], self.columns["country_iso3"]))

    def rows(self) -> list[RunResult]:
        """The table as :class:`RunResult` rows, in table order."""
        names = ("country_iso3", "decile_index", "settlement", "population", "area_km2",
                 "smartphone_users", "busy_hour_rate_mbps", "demand_mbps_km2", "revenue_pv_usd",
                 "total_sites", "existing_sites", "new_sites", "upgraded_sites", "unserviceable",
                 "network_usd", "administration_usd", "spectrum_usd", "tax_usd", "profit_usd",
                 "private_cost_usd", "subsidy_usd", "energy_kwh", "on_grid_kwh", "off_grid_kwh",
                 "co2_kg", "nox_g", "sox_g", "pm10_g")
        out = []
        for run, row in zip(self.run.tolist(), zip(*(self.columns[n].tolist() for n in names))):
            (iso3, index, settlement, population, area, users, rate, demand, revenue,
             total, existing, new, upgraded, unserviceable,
             network, administration, spectrum, tax, profit, private, subsidy,
             kwh, on, off, co2, nox, sox, pm10) = row
            out.append(RunResult(
                iso3, index, Settlement(settlement), population, area, *self.runs[run],
                DemandResult(users, rate, demand, revenue),
                SiteRequirement(iso3, index, total, existing, new, upgraded, unserviceable),
                DecileCost(iso3, index, network, administration, spectrum, tax, profit, private, revenue, subsidy),
                kwh, on, off, Emissions(co2, nox, sox, pm10),
            ))
        return out

    @classmethod
    def from_rows(cls, results: Sequence[RunResult]) -> ResultTable:
        """The table of a list of rows, in list order.

        Each column takes its dtype from its values (int, float, bool or
        str), so each value is written as its type says; a column mixing
        ints and floats is float.
        """
        index: dict = {}
        run = [index.setdefault((r.strategy, r.scenario), len(index)) for r in results]
        rows = [decile_row(r) for r in results]
        extra = {
            "smartphone_users": [r.demand.smartphone_users for r in results],
            "busy_hour_rate_mbps": [r.demand.busy_hour_rate_mbps for r in results],
        }
        columns = {
            name: np.array(extra[name] if name in extra else [d[name] for d in rows])
            for name in TABLE_COLUMNS
        }
        return cls(list(index), np.array(run, dtype=np.intp), columns)


@dataclass(frozen=True)
class PipelineOutput:
    """The result table of a run matrix, and the runs that failed."""

    table: ResultTable
    failures: list[RunFailure]

    @cached_property
    def results(self) -> list[RunResult]:
        """The table as :class:`RunResult` rows, built on first use."""
        return self.table.rows()


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


def _decile_columns(deciles: Sequence[DecileRecord]) -> dict[str, np.ndarray]:
    return {
        "country_iso3": np.array([d.country_iso3 for d in deciles]),
        "decile_index": np.array([d.decile_index for d in deciles], dtype=np.int64),
        "settlement": np.array([d.settlement.value for d in deciles]),
        "population": np.array([d.population for d in deciles], dtype=np.int64),
        "area_km2": np.array([d.area_km2 for d in deciles], dtype=np.float64),
    }


def _country_sites(
    bundle: InputBundle,
    deciles: Sequence[DecileRecord],
    table: CapacityTable,
    scenario: ScenarioSpec,
) -> dict[str, np.ndarray]:
    demand = [_decile_demand(bundle, decile, scenario) for decile in deciles]
    sites = [required_sites(decile, d.area_demand_mbps_km2, table) for decile, d in zip(deciles, demand)]
    floats = {
        "smartphone_users": [d.smartphone_users for d in demand],
        "busy_hour_rate_mbps": [d.busy_hour_rate_mbps for d in demand],
        "demand_mbps_km2": [d.area_demand_mbps_km2 for d in demand],
        "revenue_pv_usd": [d.revenue_pv_usd for d in demand],
    }
    ints = {name: [getattr(s, name) for s in sites]
            for name in ("total_sites", "existing_sites", "new_sites", "upgraded_sites")}
    return {
        **{name: np.array(v, dtype=np.float64) for name, v in floats.items()},
        **{name: np.array(v, dtype=np.int64) for name, v in ints.items()},
        "unserviceable": np.array([s.unserviceable for s in sites], dtype=bool),
    }


def _country_costs(
    bundle: InputBundle,
    deciles: Sequence[DecileRecord],
    sited: Mapping[str, np.ndarray],
    strategy: StrategyBundle,
) -> dict[str, np.ndarray]:
    iso3 = deciles[0].country_iso3
    return cost_columns(
        sited["new_sites"],
        sited["upgraded_sites"],
        [d.settlement for d in deciles],
        sited["revenue_pv_usd"],
        [d.population for d in deciles],
        [d.decile_index for d in deciles],
        strategy,
        bundle.countries[iso3].n_major_operators,
        bundle.frequency_set(iso3, strategy.generation).total_bandwidth_mhz,
        bundle.cost_inputs,
    )


def _country_energy(
    bundle: InputBundle,
    deciles: Sequence[DecileRecord],
    sited: Mapping[str, np.ndarray],
    strategy: StrategyBundle,
    scenario: ScenarioSpec,
) -> dict[str, np.ndarray]:
    iso3 = deciles[0].country_iso3
    country = bundle.countries[iso3]
    mix = bundle.energy_mix[iso3]
    mix_rows = []
    for year in scenario.years():
        row = mix.get(year)
        if row is None:
            raise ValidationError(f"{iso3}: no energy mix for year {year}")
        mix_rows.append(row)
    grid = apply_renewables_strategy(GridSplit(country.on_grid_share), strategy.energy_strategy)
    return energy(
        sited["existing_sites"],
        sited["new_sites"],
        [d.settlement for d in deciles],
        strategy.sharing,
        country.n_major_operators,
        strategy.backhaul,
        grid,
        mix_rows,
        bundle.energy_params,
        bundle.emission_factors,
    )


def _stage(memo: dict, key: tuple, compute: Callable[[], dict]) -> dict:
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
    decile_columns: dict[str, dict[str, np.ndarray]],
    tables: dict[tuple[str, Generation], CapacityTable],
    strategy: StrategyBundle,
    scenario: ScenarioSpec,
    memo: dict,
) -> list[tuple[dict[str, np.ndarray], ...]]:
    """One block per country of one run: its decile, site, cost and energy columns."""
    s = strategy
    blocks = []
    for iso3 in sorted(deciles):
        ds = deciles[iso3]
        sited = _stage(memo, ("sites", iso3, s.generation, scenario), lambda: _country_sites(
            bundle, ds, tables[(iso3, s.generation)], scenario))
        costs = _stage(memo, ("cost", iso3, s.generation, s.backhaul, s.sharing, s.policy, scenario),
                       lambda: _country_costs(bundle, ds, sited, strategy))
        used = _stage(memo, ("energy", iso3, s.generation, s.backhaul, s.sharing, s.energy_strategy, scenario),
                      lambda: _country_energy(bundle, ds, sited, strategy, scenario))
        blocks.append((decile_columns[iso3], sited, costs, used))
    return blocks


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
    themselves execute in one thread. The result table holds rows in
    deterministic run order: runs as given, then countries sorted, then
    deciles; :func:`emit_results` sorts them by run key.
    """
    if runs is None:
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
    deciles = country_deciles(bundle)
    decile_columns = {iso3: _decile_columns(ds) for iso3, ds in deciles.items()}
    needed = sorted({strategy.generation for strategy, _ in runs}, key=lambda g: g.value)
    tables = capacity_tables(bundle, cache_dir=cache_dir, jobs=jobs, generations=needed)

    memo: dict = {}
    blocks: list[tuple[dict[str, np.ndarray], ...]] = []
    block_runs: list[int] = []
    failures: list[RunFailure] = []
    for i, (strategy, scenario) in enumerate(runs):
        try:
            run_blocks = _run_one(bundle, deciles, decile_columns, tables, strategy, scenario, memo)
        except BbandSimError as err:
            failures.append(RunFailure(strategy, scenario, f"{type(err).__name__}: {err}"))
            logger.error("run failed (%s, %s): %s", strategy, scenario, failures[-1].error)
            continue
        blocks.extend(run_blocks)
        block_runs.extend([i] * len(run_blocks))
    if not blocks:
        return PipelineOutput(ResultTable.from_rows([]), failures)
    run = np.repeat(np.array(block_runs, dtype=np.intp), [len(b[0]["decile_index"]) for b in blocks])
    columns = {name: np.concatenate([b[stage][name] for b in blocks])
               for stage in range(len(blocks[0])) for name in blocks[0][stage]}
    return PipelineOutput(ResultTable(list(runs), run, columns), failures)


# ---------------------------------------------------------------------------
# Emission of result files
# ---------------------------------------------------------------------------

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

#: Group fields (country and run key) and (column, source, zero) sums of the country file.
_COUNTRY_GROUP = COUNTRY_COLUMNS[:COUNTRY_COLUMNS.index("population")]
_COUNTRY_SUMS = [
    *((f, f, 0) for f in ("population", "total_sites", "new_sites", "upgraded_sites")),
    ("unserviceable_deciles", "unserviceable", 0),
    *((f, f, 0.0) for f in COUNTRY_COLUMNS[COUNTRY_COLUMNS.index("revenue_pv_usd"):]),
]

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

#: Rows of ``results_decile.csv`` formatted and written per block.
EMIT_BLOCK = 4096


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


def format_column(values: np.ndarray) -> np.ndarray:
    """The CSV text of each value, as an object array.

    Integers verbatim, bools as 1/0, floats at 6 significant digits,
    strings as they are. Each distinct value is formatted once; floats are
    told apart by bit pattern, so -0.0 and 0.0 keep their own text.
    """
    if values.dtype.kind == "b":
        return np.array(["0", "1"], dtype=object)[values.astype(np.intp)]
    if values.dtype.kind == "f":
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        text = ["{:.6g}".format(v) for v in distinct.view(np.float64).tolist()]
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        text = [str(v) for v in distinct.tolist()]
    return np.array(text, dtype=object)[inverse]


def _group_sums(
    table: ResultTable,
    order: np.ndarray,
    group: Sequence[str],
    sums: Sequence[tuple[str, str, float]],
    where: Mapping[str, str] | None = None,
) -> dict[str, np.ndarray]:
    """Per-group sums over the rows ``order`` lists, as columns.

    ``group`` names ``country_iso3`` (first, if at all) and run-key
    columns; groups come sorted by their values. ``sums`` holds
    ``(column, source, zero)`` triples: a float zero sums as float, an int
    zero counts in integers. Rows whose run differs from ``where`` are
    skipped. Each sum adds its rows in ``order`` (``np.bincount`` and
    ``np.add.at`` add in index order), as a running total would.
    """
    run_ok = np.ones(len(table.runs), dtype=bool)
    for f, v in (where or {}).items():
        run_ok &= table.run_values[f] == v
    run_code, radix = np.zeros(len(table.runs), dtype=np.int64), 1
    for f in group:
        if f != "country_iso3":
            labels, code = np.unique(table.run_values[f], return_inverse=True)
            run_code, radix = run_code * len(labels) + code, radix * len(labels)

    rows = order[run_ok[table.run[order]]]
    key = run_code[table.run[rows]]
    if "country_iso3" in group:
        _, country = np.unique(table.columns["country_iso3"][rows], return_inverse=True)
        key = country * radix + key
    _, first, gid = np.unique(key, return_index=True, return_inverse=True)
    out = {f: table.column(f, rows[first]) for f in group}
    for column, source, zero in sums:
        values = table.columns[source][rows]
        if isinstance(zero, float) or values.dtype.kind == "f":
            out[column] = np.bincount(gid, weights=values, minlength=len(first))
        else:
            out[column] = np.zeros(len(first), dtype=np.int64)
            np.add.at(out[column], gid, values)
    return out


def aggregate_country_rows(results: Sequence[RunResult]) -> list[dict]:
    """Country-level aggregation of the per-decile results, full precision.

    Rows are summed in list order, one dict per (country, run key), sorted.
    """
    table = ResultTable.from_rows(results)
    sums = _group_sums(table, np.arange(len(table)), _COUNTRY_GROUP, _COUNTRY_SUMS)
    return [dict(zip(COUNTRY_COLUMNS, row)) for row in zip(*(sums[c].tolist() for c in COUNTRY_COLUMNS))]


def _write_csv(path: Path, columns: Sequence[str], blocks: Iterable[Sequence[Sequence[str]]]) -> None:
    """Write ``columns`` as the header, then each block of per-column texts as rows."""
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            for block in blocks:
                fh.writelines(",".join(row) + "\n" for row in zip(*block))
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def _decile_blocks(table: ResultTable, order: np.ndarray) -> Iterable[list[list[str]]]:
    run_text = {name: format_column(values) for name, values in table.run_values.items()}
    for start in range(0, len(order), EMIT_BLOCK):
        rows = order[start:start + EMIT_BLOCK]
        run = table.run[rows]
        yield [(run_text[c][run] if c in run_text else format_column(table.columns[c][rows])).tolist()
               for c in DECILE_COLUMNS]


def emit_results(results: ResultTable | Sequence[RunResult], out_dir: Path | str) -> list[Path]:
    """Write the decile, country and summary CSVs; returns the paths written.

    Output is byte-stable: rows are fully sorted, floats carry 6 significant
    digits, and re-running with identical inputs rewrites identical files.
    A list of :class:`RunResult` rows is first turned into a
    :class:`ResultTable`. Every sum adds its rows in sorted order.
    """
    table = results if isinstance(results, ResultTable) else ResultTable.from_rows(results)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    order = table.sort_order()

    def write(path: Path, columns: Sequence[str], sums: Mapping[str, np.ndarray]) -> None:
        _write_csv(path, columns, [[format_column(sums[c]).tolist() for c in columns]])

    paths = [out / "results_decile.csv", out / "results_country.csv"]
    _write_csv(paths[0], DECILE_COLUMNS, _decile_blocks(table, order))
    write(paths[1], COUNTRY_COLUMNS, _group_sums(table, order, _COUNTRY_GROUP, _COUNTRY_SUMS))
    for name, group, values, where in _SUMMARIES:
        paths.append(out / name)
        write(paths[-1], [*group, *values], _group_sums(table, order, group, [(f, f, 0.0) for f in values], where))
    return paths
