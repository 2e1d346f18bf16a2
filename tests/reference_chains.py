"""The per-decile scalar chains that the cost and energy kernels equal bit for bit.

:func:`bband_sim.energy.energy` equals, element for element, the chain
:func:`build_schedule` -> :func:`annual_energy` -> divide ->
:func:`split_energy` -> :func:`emissions` -> :func:`cumulate_horizon`, and
:func:`bband_sim.cost.cost_columns` the chain :func:`decile_components` ->
:func:`apply_sharing` -> :func:`private_cost` -> :func:`cross_subsidize`.
The property tests in ``test_energy.py`` and ``test_cost.py`` check both
against these one decile at a time; the run path uses only the kernels.
"""

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from bband_sim.core import Backhaul, CostInputs, EmissionFactors, EnergyParams, Policy, Settlement, Sharing, ordered_sum
from bband_sim.cost import subsidies
from bband_sim.energy import DIESEL_SOURCE, HOURS_PER_YEAR, GridSplit, check_mix_row
from bband_sim.errors import ValidationError


# ---------------------------------------------------------------------------
# Energy and emissions
# ---------------------------------------------------------------------------


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

    On-grid energy is split across the year's generation mix and each
    source's factors applied; off-grid energy uses the diesel generator row,
    or nothing at all once converted to renewables.
    """
    check_mix_row(mix_row)
    co2 = nox = sox = pm10 = 0.0
    for source, share in mix_row.items():
        row = factors.by_source[source]
        kwh = on_grid_kwh * share
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
    Returns new records in the original order.
    """
    if not decile_costs:
        return []
    countries = {c.country_iso3 for c in decile_costs}
    if len(countries) > 1:
        raise ValidationError(f"cross_subsidize spans countries: {sorted(countries)}")

    revenue, private, index = zip(*((c.revenue_pv, c.private_cost, c.decile_index) for c in decile_costs))
    subsidy = subsidies([revenue], [private], index)[0].tolist()
    return [replace(c, subsidy=s) for c, s in zip(decile_costs, subsidy)]


def financial_cost_total(decile_costs: list[DecileCost]) -> float:
    """Total cost to society: private plus net government cost.

    Spectrum fees and taxes cancel between the operator and government
    sides, so the sum equals network + administration + profit + subsidy.
    """
    return ordered_sum(c.private_cost + c.government_cost for c in decile_costs)
