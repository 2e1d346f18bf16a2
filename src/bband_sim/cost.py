"""Cost side: site pricing, sharing models, policy variants, cross-subsidy."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CostInputs, CountryParams, Deciles, Settlement, Sharing, StrategyBundle
from .errors import ValidationError


def radio_divisor(strategies: Sequence[StrategyBundle], deciles: Deciles, n_sharers: int) -> np.ndarray:
    """(keys, deciles): the operators sharing each decile's radio equipment and backhaul under each key.

    Active sharing shares them in every decile, the shared rural network in
    rural deciles only; there ``n_sharers`` operators split them, elsewhere
    one operator runs its own (a divisor of 1.0). Cost and energy both
    divide by it.
    """
    sharing = np.array([s.sharing.value for s in strategies])[:, None]
    rural = np.array([s == Settlement.RURAL for s in deciles.settlement], dtype=bool)
    shared = (sharing == Sharing.ACTIVE.value) | ((sharing == Sharing.SRN.value) & rural)
    return np.where(shared, float(n_sharers), 1.0)


def subsidies(revenue_pv: np.ndarray, private_costs: np.ndarray) -> np.ndarray:
    """State subsidy per decile after cross-subsidy within each key, for (keys, deciles) arrays.

    Each key's pooled surplus (revenue above private cost) pays down its
    deficits most viable first, that is smallest deficit first, ties broken
    by decile index (the position); whatever deficit remains is the state
    subsidy. The pool is the left-to-right sum of the surpluses; deficits
    are paid one rank at a time across keys, in stable deficit order.
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
    rank = np.argsort(np.where(short, deficit, np.inf), axis=-1, kind="stable")
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
    revenue_pv: np.ndarray,
    deciles: Deciles,
    strategies: Sequence[StrategyBundle],
    country: CountryParams,
    costs: CostInputs,
) -> dict[str, np.ndarray]:
    """Cost columns of one country's deciles under a batch of strategies.

    Site counts and revenue are (keys, deciles), with one strategy per key;
    the country's major operators are the sharers. New and upgraded sites
    buy equipment, backhaul and core; only new sites buy civil works.
    Passive sharing divides civils by the sharers, and :func:`radio_divisor`
    divides equipment, backhaul and civils; core is never shared (an
    unshared class is divided by 1.0, which is exact). Administration and
    profit scale with the network, tax with revenue, and the spectrum fee
    is the policy's coefficient x the MHz the country holds for the key's
    generation x the decile population; :func:`subsidies` then
    cross-subsidizes. Equal bit for bit to the per-decile chain in
    ``tests/reference_chains.py``. Keys are the ``*_usd`` result columns.
    """
    new = np.asarray(new_sites, dtype=np.int64)
    n = new + np.asarray(upgraded_sites, dtype=np.int64)
    if (new < 0).any() or (n < new).any():
        raise ValidationError("site counts must be >= 0")
    n_sharers = country.n_major_operators
    radio_div = radio_divisor(strategies, deciles, n_sharers)
    passive = np.array([s.sharing == Sharing.PASSIVE for s in strategies], dtype=bool)[:, None]
    civils_div = np.where(passive, float(n_sharers), radio_div)
    backhaul = np.array([costs.backhaul_unit_cost(s.backhaul) for s in strategies])[:, None]
    network = (
        n * costs.equipment_usd / radio_div
        + n * backhaul / radio_div
        + new * costs.civils_usd / civils_div
        + n * costs.core_usd
    )
    administration = costs.admin_share * network
    profit = costs.profit_margin * network
    revenue = np.asarray(revenue_pv, dtype=np.float64)
    tax = np.array([costs.tax_rate(s.policy) for s in strategies])[:, None] * revenue
    mhz = {g: country.frequency_set(g).total_bandwidth_mhz for g in {s.generation for s in strategies}}
    fee = np.array([costs.spectrum_coef(s.policy) * mhz[s.generation] for s in strategies])
    spectrum = fee[:, None] * np.array(deciles.population, dtype=np.int64)
    total = network + administration + spectrum + tax + profit
    subsidy = subsidies(revenue, total)
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
