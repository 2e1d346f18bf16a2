"""The scalar and unblocked chains that the src kernels equal bit for bit.

:func:`bband_sim.energy.energy` equals, element for element, the chain
:func:`build_schedule` -> :func:`annual_energy` -> divide by
:func:`sharing_energy_divisor` -> :func:`split_energy` (with the
:class:`GridSplit` of :func:`apply_renewables_strategy`) ->
:func:`emissions` -> :func:`cumulate_horizon`, and
:func:`bband_sim.cost.cost_columns` the chain :func:`decile_components` ->
:func:`apply_sharing` -> :func:`private_cost` -> :func:`cross_subsidize`.
The sites stage, :func:`bband_sim.demand.demand_columns` ->
:func:`bband_sim.dimensioning.site_counts`, equals :func:`sites_chain`.
:func:`bband_sim.radio.sinr_blocks`, its blocks joined, equals :func:`reference_sinr_db`,
the whole-array link chain :func:`free_space_path_loss` ->
:func:`received_signal` -> :func:`sinr` with no trial blocks, and
:func:`bband_sim.radio.carrier_capacity` equals :func:`reference_capacity`,
that chain -> :func:`se_lookup` per trial -> ``np.percentile``.
The tests in ``test_energy.py``, ``test_cost.py``, ``test_pipeline.py``
and ``test_radio.py`` check the kernels against these; the run path uses only
the kernels. :func:`country_sums` and :func:`summary_lines` fold a result
table's rows into country and summary totals, without the group-bys that
write the result files.
"""

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from bband_sim import radio
from bband_sim.core import (
    AXES, DIESEL_SOURCE, MIMO_STREAMS, MIX_SOURCES, Backhaul, CostInputs, Deciles, EmissionFactors, EnergyParams,
    EnergyStrategy, Generation, Policy, Settlement, Sharing, SimulationParams, SpectralEfficiencyTable, ordered_sum,
    run_key,
)
from bband_sim.cost import subsidies
from bband_sim.demand import arpu_for_settlement, per_user_busy_hour_rate
from bband_sim.energy import HOURS_PER_YEAR, check_mix_row
from bband_sim.errors import ValidationError
from bband_sim.radio import inter_site_distance_km, noise_floor, shadow_fading_draws


# ---------------------------------------------------------------------------
# Demand and sites
# ---------------------------------------------------------------------------


def density_for(table, demand: float) -> tuple[float, bool]:
    """``(density, unserviceable)`` of one demand: a walk up the table's rows from the (0, 0) point."""
    if demand > table.max_capacity:
        return table.max_density, True
    prev_d, prev_c = 0.0, 0.0
    for d, c in table.rows:
        if demand > 0 and c >= demand:
            return (d if c == prev_c else min(prev_d + (demand - prev_c) / (c - prev_c) * (d - prev_d), d)), False
        prev_d, prev_c = d, c
    return 0.0, False


def sites_chain(deciles, country, adoption, horizon, scenario, table) -> list[dict]:
    """The seven sites-stage columns of each decile under one scenario and capacity table, one decile at a time.

    Year t = 1..n: each penetration grows to ``min(base * (1 + cagr) ** t,
    cap)``, users are population x cell x smartphone penetration, the
    busy-hour demand ``users * rate * share`` peaks by ``>``, and revenue is
    ``users * share * arpu * 12 / (1 + r) ** t`` as a running total from the
    first year, plus 0.0. Demand per km2 meets the table in
    :func:`density_for`; sites are ``ceil(density * area - 1e-9)``,
    existing towers upgraded first. An inactive decile has none of them.
    """
    cagr, cap = adoption.cagr(country.income_group, scenario.adoption), adoption.penetration_cap
    share, rate = country.market_share, per_user_busy_hour_rate(scenario.capacity_gb_month)
    out = []
    for population, area, existing, settlement, active in zip(
            deciles.population, deciles.area_km2, deciles.existing_sites, deciles.settlement, deciles.active):
        peak, revenue = None, None
        for t in range(1, horizon.n_years + 1):
            growth = (1.0 + cagr) ** t
            users = (population * min(adoption.base_cell_penetration * growth, cap)
                     * min(adoption.smartphone_base(settlement) * growth, cap))
            busy = users * rate * share
            peak = busy if peak is None or busy > peak else peak
            arpu = arpu_for_settlement(country, settlement)
            term = users * share * arpu * 12.0 / (1.0 + horizon.discount_rate) ** t
            revenue = term if revenue is None else revenue + term
        demand = peak / area if active else 0.0
        density, unserviceable = density_for(table, demand)
        total = math.ceil(density * area - 1e-9) if active else 0
        out.append({
            "demand_mbps_km2": demand, "total_sites": total, "existing_sites": existing,
            "new_sites": max(0, total - existing), "upgraded_sites": min(existing, total),
            "unserviceable": unserviceable and active, "revenue_pv_usd": revenue + 0.0 if active else 0.0,
        })
    return out


# ---------------------------------------------------------------------------
# Energy and emissions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSplit:
    """Share of site energy drawn from the grid, and the off-grid source."""

    on_grid_share: float
    off_grid_source: str = DIESEL_SOURCE  # "diesel" or "renewable"

    def __post_init__(self):
        if not (0 <= self.on_grid_share <= 1):
            raise ValidationError("on_grid_share must be in [0, 1]")
        if self.off_grid_source not in (DIESEL_SOURCE, "renewable"):
            raise ValidationError(f"unknown off_grid_source {self.off_grid_source!r}")


def apply_renewables_strategy(grid: GridSplit, strategy: EnergyStrategy) -> GridSplit:
    """Swap off-grid diesel generators for renewables when the strategy says so."""
    if strategy == EnergyStrategy.RENEWABLES:
        return replace(grid, off_grid_source="renewable")
    return grid


def sharing_energy_divisor(sharing: Sharing, settlement: Settlement, n_sharers: int) -> float:
    """Operator share of site energy under each sharing model.

    Active sharing runs one set of radio equipment for all sharers, so the
    modeled operator accounts for 1/n of the site energy; the shared rural
    network does the same in rural deciles only. Passive sharing leaves the
    radio equipment duplicated, so energy matches the baseline exactly.
    """
    if n_sharers < 1:
        raise ValidationError("n_sharers must be >= 1")
    if sharing == Sharing.ACTIVE or (sharing == Sharing.SRN and settlement == Settlement.RURAL):
        return float(n_sharers)
    return 1.0


@dataclass(frozen=True)
class Emissions:
    """The four tracked species. CO2 in kg, the others in grams."""

    co2_kg: float = 0.0
    nox_g: float = 0.0
    sox_g: float = 0.0
    pm10_g: float = 0.0

    def __add__(self, other: "Emissions") -> "Emissions":
        return Emissions(
            self.co2_kg + other.co2_kg,
            self.nox_g + other.nox_g,
            self.sox_g + other.sox_g,
            self.pm10_g + other.pm10_g,
        )


@dataclass(frozen=True)
class YearEnergy:
    """One year's energy and emissions for a decile."""

    year: int
    energy_kwh: float
    on_grid_kwh: float
    off_grid_kwh: float
    emissions: Emissions


@dataclass(frozen=True)
class HorizonTotals:
    energy_kwh: float
    on_grid_kwh: float
    off_grid_kwh: float
    emissions: Emissions


def annual_energy(
    existing_sites: int,
    new_cumulative: int,
    params: EnergyParams,
    backhaul: Backhaul,
) -> float:
    """kWh consumed in one year by all sites in operation, backhaul included."""
    if existing_sites < 0 or new_cumulative < 0:
        raise ValidationError("site counts must be >= 0")
    per_site = params.site_kwh_per_hour + params.backhaul_kwh_per_hour(backhaul)
    return (existing_sites + new_cumulative) * per_site * HOURS_PER_YEAR


def split_energy(energy_kwh: float, grid: GridSplit) -> tuple[float, float]:
    """Proportional on/off-grid split; the parts sum back to the total exactly."""
    if energy_kwh < 0:
        raise ValidationError("energy_kwh must be >= 0")
    on = energy_kwh * grid.on_grid_share
    return on, energy_kwh - on


def emissions(
    on_grid_kwh: float,
    off_grid_kwh: float,
    mix_row: Mapping[str, float],
    factors: EmissionFactors,
    grid: GridSplit,
) -> Emissions:
    """Emission species from one year's energy.

    On-grid energy is split across the year's generation mix, its sources
    in ``MIX_SOURCES`` order, and each source's factors applied; off-grid
    energy uses the diesel generator row, or nothing at all once converted
    to renewables.
    """
    check_mix_row(mix_row)
    co2 = nox = sox = pm10 = 0.0
    for source in filter(mix_row.__contains__, MIX_SOURCES):
        row = factors.by_source[source]
        kwh = on_grid_kwh * mix_row[source]
        co2 += kwh * row.co2_kg_kwh
        nox += kwh * row.nox_g_kwh
        sox += kwh * row.sox_g_kwh
        pm10 += kwh * row.pm10_g_kwh
    if grid.off_grid_source == DIESEL_SOURCE:
        row = factors.diesel
        co2 += off_grid_kwh * row.co2_kg_kwh
        nox += off_grid_kwh * row.nox_g_kwh
        sox += off_grid_kwh * row.sox_g_kwh
        pm10 += off_grid_kwh * row.pm10_g_kwh
    return Emissions(co2, nox, sox, pm10)


def build_schedule(total_new: int, n_years: int) -> list[int]:
    """Spread new builds uniformly across the horizon, remainder up front."""
    if total_new < 0:
        raise ValidationError("total_new must be >= 0")
    if n_years < 1:
        raise ValidationError("n_years must be >= 1")
    q, r = divmod(total_new, n_years)
    return [q + 1 if t < r else q for t in range(n_years)]


def cumulate_horizon(per_year: Sequence[YearEnergy]) -> HorizonTotals:
    """Sum a contiguous run of per-year results into horizon totals."""
    if not per_year:
        raise ValidationError("no yearly results to cumulate")
    years = [y.year for y in per_year]
    expected = list(range(years[0], years[0] + len(years)))
    if years != expected:
        raise ValidationError(f"years {years} are not contiguous from {years[0]}")
    total = Emissions()
    for y in per_year:
        total = total + y.emissions
    return HorizonTotals(
        energy_kwh=ordered_sum(y.energy_kwh for y in per_year),
        on_grid_kwh=ordered_sum(y.on_grid_kwh for y in per_year),
        off_grid_kwh=ordered_sum(y.off_grid_kwh for y in per_year),
        emissions=total,
    )


def energy_chain(existing_sites, new_sites, strategy, settlements, n_sharers, on_grid_share, mix_rows, params,
                 factors) -> list[tuple[float, ...]]:
    """Per-decile horizon totals of one strategy, in ``ENERGY_FIELDS`` order, one decile-year at a time."""
    grid = apply_renewables_strategy(GridSplit(on_grid_share), strategy.energy_strategy)
    out = []
    for existing, new, settlement in zip(existing_sites, new_sites, settlements):
        divisor = sharing_energy_divisor(strategy.sharing, settlement, n_sharers)
        per_year, cumulative = [], 0
        for year, (builds, mix) in enumerate(zip(build_schedule(new, len(mix_rows)), mix_rows), start=2023):
            cumulative += builds
            kwh = annual_energy(existing, cumulative, params, strategy.backhaul)
            kwh /= divisor
            on, off = split_energy(kwh, grid)
            per_year.append(YearEnergy(year, kwh, on, off, emissions(on, off, mix, factors, grid)))
        t = cumulate_horizon(per_year)
        e = t.emissions
        out.append((t.energy_kwh, t.on_grid_kwh, t.off_grid_kwh, e.co2_kg, e.nox_g, e.sox_g, e.pm10_g))
    return out


# ---------------------------------------------------------------------------
# Cost and cross-subsidy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostComponents:
    """Network investment split by asset class, summed over a decile's sites."""

    equipment: float = 0.0
    backhaul: float = 0.0
    civils: float = 0.0
    core: float = 0.0

    @property
    def total(self) -> float:
        return self.equipment + self.backhaul + self.civils + self.core


@dataclass(frozen=True)
class DecileCost:
    """Full cost decomposition of one decile under one strategy."""

    country_iso3: str
    decile_index: int
    network: float
    administration: float
    spectrum: float
    tax: float
    profit: float
    private_cost: float
    revenue_pv: float
    subsidy: float = 0.0

    @property
    def government_cost(self) -> float:
        """State subsidy net of spectrum and tax receipts."""
        return self.subsidy - (self.spectrum + self.tax)

    @property
    def financial_cost(self) -> float:
        return self.private_cost + self.government_cost


def site_network_cost(kind: str, backhaul: Backhaul, costs: CostInputs) -> float:
    """Per-site network investment; upgrades reuse the existing tower (no civils)."""
    if kind not in ("new", "upgrade"):
        raise ValidationError(f"kind must be 'new' or 'upgrade', got {kind!r}")
    total = costs.equipment_usd + costs.backhaul_unit_cost(backhaul) + costs.core_usd
    if kind == "new":
        total += costs.civils_usd
    return total


def decile_components(
    new_sites: int,
    upgraded_sites: int,
    backhaul: Backhaul,
    costs: CostInputs,
) -> CostComponents:
    """Asset-class totals for a decile's new builds plus upgrades."""
    if new_sites < 0 or upgraded_sites < 0:
        raise ValidationError("site counts must be >= 0")
    n = new_sites + upgraded_sites
    return CostComponents(
        equipment=n * costs.equipment_usd,
        backhaul=n * costs.backhaul_unit_cost(backhaul),
        civils=new_sites * costs.civils_usd,
        core=n * costs.core_usd,
    )


def apply_sharing(
    components: CostComponents,
    sharing: Sharing,
    n_sharers: int,
    settlement: Settlement,
) -> CostComponents:
    """Divide shared asset classes by the number of sharing operators.

    Passive sharing splits the civil works; active sharing also splits the
    radio equipment and backhaul. The shared rural network applies the
    active rule in rural deciles only. The core network stays per-operator
    in every model.
    """
    if n_sharers < 1:
        raise ValidationError("n_sharers must be >= 1")
    if sharing == Sharing.BASELINE:
        return components
    if sharing == Sharing.PASSIVE:
        return replace(components, civils=components.civils / n_sharers)
    if sharing == Sharing.ACTIVE or (sharing == Sharing.SRN and settlement == Settlement.RURAL):
        return CostComponents(
            equipment=components.equipment / n_sharers,
            backhaul=components.backhaul / n_sharers,
            civils=components.civils / n_sharers,
            core=components.core,
        )
    return components  # SRN outside rural areas behaves like baseline


def private_cost(
    network: float,
    costs: CostInputs,
    policy: Policy,
    revenue_pv: float,
    spectrum_mhz: float,
    population: int,
    country_iso3: str = "",
    decile_index: int = 0,
) -> DecileCost:
    """Operator-side cost stack for one decile.

    Administration and profit scale with the network investment; tax is
    levied on the revenue present value; the spectrum fee prices the MHz
    held against the decile population at the policy's coefficient.
    """
    if network < 0:
        raise ValidationError("network must be >= 0")
    administration = costs.admin_share * network
    profit = costs.profit_margin * network
    tax = costs.tax_rate(policy) * revenue_pv
    spectrum = costs.spectrum_coef(policy) * spectrum_mhz * population
    total = network + administration + spectrum + tax + profit
    return DecileCost(
        country_iso3=country_iso3,
        decile_index=decile_index,
        network=network,
        administration=administration,
        spectrum=spectrum,
        tax=tax,
        profit=profit,
        private_cost=total,
        revenue_pv=revenue_pv,
    )


def cross_subsidize(decile_costs: list[DecileCost]) -> list[DecileCost]:
    """Reallocate viable deciles' surplus to unviable ones within a country.

    The pooled surplus (revenue above private cost) pays down deficits in
    descending-viability order, most viable deficit first, ties broken by
    decile index; whatever deficit remains becomes the state subsidy.
    :func:`subsidies` breaks ties by position, so the records go to it in
    decile order. Returns new records in the original order.
    """
    if not decile_costs:
        return []
    countries = {c.country_iso3 for c in decile_costs}
    if len(countries) > 1:
        raise ValidationError(f"cross_subsidize spans countries: {sorted(countries)}")

    order = sorted(range(len(decile_costs)), key=lambda i: decile_costs[i].decile_index)
    revenue, private = zip(*((decile_costs[i].revenue_pv, decile_costs[i].private_cost) for i in order))
    subsidy = dict(zip(order, subsidies([revenue], [private])[0].tolist()))
    return [replace(c, subsidy=subsidy[i]) for i, c in enumerate(decile_costs)]


def cost_chain(new_sites, upgraded_sites, revenue_pv, deciles, strategy, country, costs) -> list[DecileCost]:
    """Each decile's cost stack under one strategy, cross-subsidised within the country.

    The spectrum fee prices the MHz the country holds for the strategy's
    generation, added left to right from 0.0.
    """
    held_mhz = ordered_sum(c.bandwidth_mhz for g, c in country.spectrum_portfolio if g == strategy.generation)
    return cross_subsidize([
        private_cost(
            apply_sharing(decile_components(new, upgraded, strategy.backhaul, costs), strategy.sharing,
                          country.n_major_operators, settlement).total,
            costs, strategy.policy, revenue, spectrum_mhz=held_mhz, population=population,
            country_iso3=country.country_iso3, decile_index=index,
        )
        for index, (new, upgraded, revenue, settlement, population) in enumerate(
            zip(new_sites, upgraded_sites, revenue_pv, deciles.settlement, deciles.population), start=1)
    ])


def financial_cost_total(decile_costs: list[DecileCost]) -> float:
    """Total cost to society: private plus net government cost.

    Spectrum fees and taxes cancel between the operator and government
    sides, so the sum equals network + administration + profit + subsidy.
    """
    return ordered_sum(c.private_cost + c.government_cost for c in decile_costs)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def country_sums(table, fields: Sequence[str]) -> dict[tuple, dict[str, float]]:
    """Each (country, run key)'s totals of ``fields``: a left-to-right fold of its rows in table order."""
    groups = zip(*(table.column(f).tolist() for f in ("country_iso3", *(axis.name for axis in AXES))))
    columns = [table.column(f).tolist() for f in fields]
    sums: dict[tuple, dict[str, float]] = {}
    for row, key in enumerate(groups):
        totals = sums.setdefault(key, dict.fromkeys(fields, 0))
        for f, values in zip(fields, columns):
            totals[f] += values[row]
    return sums


def summary_lines(
    table, group: Sequence[str], values: Sequence[str | tuple[str, str]], baseline: Mapping[str, str],
) -> list[str]:
    """A summary file's lines: totals of ``values`` per ``group``, over the rows whose fields equal ``baseline``.

    A value is a column that totals the field of its name, or a ``(column,
    source)`` pair that totals ``source``. A left-to-right fold: rows are
    walked in (country, decile, run key) order, and each group's totals add
    its rows' values from 0.0, or from 0 for an integer or bool source.
    Groups come sorted by their values; integers are written as they are,
    other numbers with ``{:.6g}``.
    """
    pairs = [(v, v) if isinstance(v, str) else v for v in values]
    order = ("country_iso3", "decile_index", *(axis.name for axis in AXES))
    arrays = {f: table.column(f) for f in {*order, *group, *(source for _, source in pairs), *baseline}}
    columns = {f: array.tolist() for f, array in arrays.items()}
    zeros = [0 if arrays[source].dtype.kind in "biu" else 0.0 for _, source in pairs]
    sums: dict[tuple, list] = {}
    for row in sorted(range(len(table)), key=lambda r: [columns[f][r] for f in order]):
        if all(columns[f][row] == v for f, v in baseline.items()):
            totals = sums.setdefault(tuple(columns[f][row] for f in group), list(zeros))
            for i, (_, source) in enumerate(pairs):
                totals[i] += columns[source][row]

    def text(v):
        return v if isinstance(v, str) else f"{v:d}" if isinstance(v, int) else f"{v:.6g}"

    lines = (",".join(map(text, (*key, *totals))) for key, totals in sorted(sums.items()))
    return [",".join((*group, *(column for column, _ in pairs))), *lines]


# ---------------------------------------------------------------------------
# Whole result lines
# ---------------------------------------------------------------------------


def format_value(value) -> str:
    """A result cell as emission writes it: integers verbatim, bools as 1/0, floats at 6 significant digits."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(int(value)) if isinstance(value, bool) else str(value)


def decile_line(bundle, tables, run, country_iso3: str, decile_index: int) -> str:
    """The ``results_decile.csv`` line of one run, country and decile, from the scalar chains alone.

    The decile's own columns, the run key, then :func:`sites_chain`,
    and :func:`cost_chain` over the country's deciles (cross-subsidy pools
    them), and :func:`energy_chain` of the decile, formatted as
    :func:`format_value`. ``tables`` maps (country, generation)
    to the capacity table a run reads.
    """
    strategy, scenario = run
    country = bundle.countries[country_iso3]
    deciles = Deciles.of(bundle.regions[country_iso3], country_iso3, bundle.settlement_thresholds)
    horizon = bundle.scenario_space.horizon
    sites = sites_chain(deciles, country, bundle.adoption, horizon, scenario, tables[country_iso3, strategy.generation])
    column = {name: [row[name] for row in sites] for name in sites[0]}
    cost = cost_chain(column["new_sites"], column["upgraded_sites"], column["revenue_pv_usd"], deciles, strategy,
                      country, bundle.cost_inputs)
    i = decile_index - 1
    c = cost[i]
    [used] = energy_chain([deciles.existing_sites[i]], column["new_sites"][i:i + 1], strategy, [deciles.settlement[i]],
                          country.n_major_operators, country.on_grid_share,
                          [bundle.energy_mix[country_iso3][year] for year in horizon.years()], bundle.energy_params,
                          bundle.emission_factors)
    values = (
        country_iso3, decile_index, deciles.settlement[i].value, deciles.population[i], deciles.area_km2[i],
        *run_key(strategy, scenario),
        *sites[i].values(), c.network, c.administration, c.spectrum, c.tax, c.profit, c.private_cost, c.subsidy,
        c.government_cost, c.financial_cost, *used,
    )
    return ",".join(map(format_value, values))


# ---------------------------------------------------------------------------
# Radio link
# ---------------------------------------------------------------------------


def free_space_path_loss(
    distance_km,
    freq_mhz: float,
    los_breakpoint_m: float = 500.0,
    nlos_excess_db: float = 12.0,
    min_distance_m: float = 10.0,
):
    """Free-space path loss in dB, with a fixed NLoS penalty past the breakpoint.

    ``20 log10(d_km) + 20 log10(f_MHz) + 32.44``; distances are clamped to
    ``min_distance_m`` to avoid the origin singularity, and paths strictly
    longer than the breakpoint take ``nlos_excess_db`` extra loss. Accepts
    scalars or arrays.
    """
    if freq_mhz <= 0:
        raise ValidationError("freq_mhz must be > 0")
    d = np.maximum(np.asarray(distance_km, dtype=float), min_distance_m / 1000.0)
    loss = 20.0 * np.log10(d) + 20.0 * np.log10(freq_mhz) + 32.44
    loss = loss + np.where(d * 1000.0 > los_breakpoint_m, nlos_excess_db, 0.0)
    if loss.ndim == 0:
        return float(loss)
    return loss


def received_signal(params: SimulationParams, path_loss_db, shadow_db):
    """Received power in dBm for one path (works elementwise on arrays)."""
    out = (
        params.tx_power_dbm
        + params.tx_gain_db
        - params.tx_losses_db
        - np.asarray(path_loss_db, dtype=float)
        - np.asarray(shadow_db, dtype=float)
        + params.rx_gain_db
        - params.rx_losses_db
        - params.rx_misc_losses_db
    )
    if np.ndim(out) == 0:
        return float(out)
    return out


def sinr(signal_dbm, interferers_dbm, noise_dbm: float, network_load: float = 1.0):
    """SINR in dB from dBm inputs.

    Powers are summed in the linear domain; interference is scaled by the
    network load (1.0 means all co-channel cells transmit). ``signal_dbm``
    may be an array of trials with ``interferers_dbm`` shaped
    ``(trials, n_interferers)``; an empty interferer list gives the SNR.
    """
    s = np.power(10.0, np.asarray(signal_dbm, dtype=float) / 10.0)
    interferers = np.asarray(interferers_dbm, dtype=float)
    if interferers.size == 0:
        total_i = 0.0
    else:
        total_i = np.power(10.0, interferers / 10.0).sum(axis=-1) * network_load
    n = 10.0 ** (noise_dbm / 10.0)
    # A deep shadow-fading draw can push the signal below float range, so its
    # linear power is 0 and the SINR is -inf; se_lookup maps that to SE 0.
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(s / (total_i + n))
    if np.ndim(out) == 0:
        return float(out)
    return out


def reference_sinr_db(params, generation, carrier, site_density, receiver_positions=None):
    """The unblocked whole-array chain that sinr_blocks, its blocks joined, must match bit for bit."""
    isd = inter_site_distance_km(site_density)
    sites = radio.interferer_positions(isd, params.interferer_rings)
    dh_km = (params.tx_height_m - params.rx_height_m) / 1000.0
    rng = radio.carrier_rng(params.seed, generation, carrier, site_density)
    if receiver_positions is None:
        n, r = params.trials, isd / math.sqrt(3.0)
        tri = rng.integers(0, 6, n)
        u = rng.random(n)
        v = rng.random(n)
        over = u + v > 1.0
        u[over] = 1.0 - u[over]
        v[over] = 1.0 - v[over]
        a0 = tri * (math.pi / 3.0)
        a1 = a0 + math.pi / 3.0
        x = u * r * np.cos(a0) + v * r * np.cos(a1)
        y = u * r * np.sin(a0) + v * r * np.sin(a1)
    else:
        pos = np.asarray(receiver_positions, dtype=float)
        x, y = pos[:, 0], pos[:, 1]
    n = len(x)
    shadow_signal = shadow_fading_draws(rng, params.shadow_mu_db, params.shadow_sigma_db, n)
    shadow_interf = shadow_fading_draws(rng, params.shadow_mu_db, params.shadow_sigma_db, (n, len(sites)))

    def received(d_km, shadow):
        loss = free_space_path_loss(d_km, carrier.frequency_mhz, params.los_breakpoint_m,
                                    params.nlos_excess_db, params.min_distance_m)
        return received_signal(params, loss, shadow)

    signal = received(np.sqrt(x**2 + y**2 + dh_km**2), shadow_signal)
    if len(sites):
        dx = x[:, None] - sites[:, 0][None, :]
        dy = y[:, None] - sites[:, 1][None, :]
        interferers = received(np.sqrt(dx**2 + dy**2 + dh_km**2), shadow_interf)
    else:
        interferers = np.empty((n, 0))
    return sinr(signal, interferers, noise_floor(params, carrier.bandwidth_mhz * 1e6), params.network_load)


def se_lookup(table: SpectralEfficiencyTable, sinr_db, generation: Generation) -> np.ndarray:
    """Single-stream spectral efficiency in bps/Hz for each SINR, as an array of the SINRs' shape.

    Step function: the largest row whose ``min_sinr_db`` the SINR meets is
    selected; below the lowest row (-inf included) returns 0 (no service);
    above the top row saturates at the top row.
    """
    rows = table.rows[generation]
    mins = np.array([r[0] for r in rows])
    ses = np.array([0.0, *(r[1] for r in rows)])  # ses[i]: the SE of an SINR that meets i thresholds
    return ses[np.searchsorted(mins, np.asarray(sinr_db, dtype=float), side="right")]


def reference_capacity(params, se_table, generation, carrier, site_density) -> float:
    """The whole-array capacity chain that carrier_capacity must match bit for bit: every trial's SE, then its
    percentile. A nan SINR is not checked here."""
    se = se_lookup(se_table, reference_sinr_db(params, generation, carrier, site_density), generation)
    se *= MIMO_STREAMS[generation] * params.mimo_efficiency
    se_reliable = float(np.percentile(se, (1.0 - params.reliability) * 100.0))
    return se_reliable * carrier.bandwidth_mhz * params.sectors_per_site * site_density
