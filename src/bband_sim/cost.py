"""Cost side: site pricing, sharing models, policy variants, cross-subsidy."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CostInputs, Settlement, Sharing, StrategyBundle
from .errors import ValidationError


def subsidies(revenue_pv: np.ndarray, private_costs: np.ndarray, decile_index: Sequence[int]) -> np.ndarray:
    """State subsidy per decile after cross-subsidy within each key, for (keys, deciles) arrays.

    Each key's pooled surplus (revenue above private cost) pays down its
    deficits most viable first, that is smallest deficit first, ties broken
    by decile index; whatever deficit remains is the state subsidy. The
    pool is the left-to-right sum of the surpluses; deficits are paid one
    rank at a time across keys, in stable (deficit, decile index) order.
    ``np.where`` spells ``max(0.0, x)`` and ``min(pool, deficit)`` exactly,
    so every value equals the per-key loop bit for bit.
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
    MHz figure per key. New and upgraded sites buy equipment, backhaul and
    core; only new sites buy civil works. Passive sharing divides civils by
    the sharers, active sharing (and the shared rural network, in rural
    deciles) also equipment and backhaul; core is never shared (an
    unshared class is divided by 1.0, which is exact). Administration and
    profit scale with the network, tax with revenue, and the spectrum fee
    is the policy's coefficient x MHz x population; :func:`subsidies` then
    cross-subsidizes. Equal bit for bit to the per-decile chain in
    ``tests/reference_chains.py``. Keys are the ``*_usd`` result columns.
    """
    new = np.asarray(new_sites, dtype=np.int64)
    n = new + np.asarray(upgraded_sites, dtype=np.int64)
    if (new < 0).any() or (n < new).any():
        raise ValidationError("site counts must be >= 0")
    if n_sharers < 1:
        raise ValidationError("n_sharers must be >= 1")
    sharing = np.array([s.sharing.value for s in strategies])[:, None]
    rural = np.array([s == Settlement.RURAL for s in settlements], dtype=bool)
    # deciles whose radio equipment and backhaul are shared
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
