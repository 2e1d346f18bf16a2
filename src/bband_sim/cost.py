"""Cost side: site pricing, sharing models, policy variants, cross-subsidy."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Backhaul, CostInputs, Policy, Settlement, Sharing, StrategyBundle, ordered_sum
from .errors import ValidationError


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


def subsidies(revenue_pv: np.ndarray, private_costs: np.ndarray, decile_index: Sequence[int]) -> np.ndarray:
    """State subsidy per decile by the rule of :func:`cross_subsidize`, for (keys, deciles) arrays.

    Each key's pool is the left-to-right sum of its surpluses; deficits are
    paid one rank at a time across keys, in stable (deficit, decile index)
    order. ``np.where`` spells ``max(0.0, x)`` and ``min(pool, deficit)``
    exactly, so every value equals the per-key loop bit for bit.
    """
    revenue = np.asarray(revenue_pv, dtype=np.float64)
    private = np.asarray(private_costs, dtype=np.float64)
    surplus = revenue - private
    pool = np.cumsum(np.where(surplus > 0.0, surplus, 0.0), axis=1)[:, -1]  # sequential, as a running total
    short = private > revenue
    deficit = private - revenue
    # non-deficit deciles sort last; their steps below change nothing
    rank = np.lexsort((np.broadcast_to(decile_index, revenue.shape), np.where(short, deficit, np.inf)), axis=-1)
    keys = np.arange(len(revenue))
    out = np.zeros(revenue.shape)
    for i in rank.T:
        d = deficit[keys, i]
        grant = np.where(d < pool, d, pool)
        paid = short[keys, i]
        pool = np.where(paid, pool - grant, pool)
        out[keys, i] = np.where(paid, d - grant, 0.0)
    return out


def financial_cost_total(decile_costs: list[DecileCost]) -> float:
    """Total cost to society: private plus net government cost.

    Spectrum fees and taxes cancel between the operator and government
    sides, so the sum equals network + administration + profit + subsidy.
    """
    return ordered_sum(c.private_cost + c.government_cost for c in decile_costs)


def cost_columns(
    new_sites: np.ndarray,
    upgraded_sites: np.ndarray,
    settlements: Sequence[Settlement],
    revenue_pv: np.ndarray,
    population: Sequence[int],
    decile_index: Sequence[int],
    strategies: Sequence[StrategyBundle],
    n_sharers: int,
    spectrum_mhz: Sequence[float],
    costs: CostInputs,
) -> dict[str, np.ndarray]:
    """Cost columns of one country's deciles under a batch of strategies.

    Site counts and revenue are (keys, deciles), with one strategy and one
    MHz figure per key. The chain :func:`decile_components` ->
    :func:`apply_sharing` -> :func:`private_cost` -> :func:`cross_subsidize`
    over the block, bit for bit (an unshared asset class is divided by 1.0,
    which is exact). Keys are the ``*_usd`` result columns.
    """
    new = np.asarray(new_sites, dtype=np.int64)
    n = new + np.asarray(upgraded_sites, dtype=np.int64)
    if (new < 0).any() or (n < new).any():
        raise ValidationError("site counts must be >= 0")
    if n_sharers < 1:
        raise ValidationError("n_sharers must be >= 1")
    sharing = np.array([s.sharing.value for s in strategies])[:, None]
    rural = np.array([s == Settlement.RURAL for s in settlements], dtype=bool)
    # deciles whose radio equipment and backhaul are shared (see apply_sharing)
    radio = (sharing == Sharing.ACTIVE.value) | ((sharing == Sharing.SRN.value) & rural)
    radio_div = np.where(radio, float(n_sharers), 1.0)
    civils_div = np.where(sharing == Sharing.PASSIVE.value, float(n_sharers), radio_div)
    backhaul = np.array([costs.backhaul_unit_cost(s.backhaul) for s in strategies])[:, None]
    network = (
        n * costs.equipment_usd / radio_div
        + n * backhaul / radio_div
        + new * costs.civils_usd / civils_div
        + n * costs.core_usd
    )
    if (network < 0).any():
        raise ValidationError("network must be >= 0")
    administration = costs.admin_share * network
    profit = costs.profit_margin * network
    revenue = np.asarray(revenue_pv, dtype=np.float64)
    tax = np.array([costs.tax_rate(s.policy) for s in strategies])[:, None] * revenue
    fee = np.array([costs.spectrum_coef(s.policy) for s in strategies]) * np.asarray(spectrum_mhz, dtype=np.float64)
    spectrum = fee[:, None] * np.asarray(population, dtype=np.int64)
    total = network + administration + spectrum + tax + profit
    subsidy = subsidies(revenue, total, decile_index)
    government = subsidy - (spectrum + tax)
    return {
        "network_usd": network,
        "administration_usd": administration,
        "spectrum_usd": spectrum,
        "tax_usd": tax,
        "profit_usd": profit,
        "private_cost_usd": total,
        "subsidy_usd": subsidy,
        "government_cost_usd": government,
        "financial_cost_usd": total + government,
    }
