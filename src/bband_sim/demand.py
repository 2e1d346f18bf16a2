"""Demand side: busy-hour rates, adoption projections, area traffic and revenue."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DEFAULT_ADOPTION_CAGR, AdoptionParams, CountryParams, DecileRecord, ScenarioSpec, Settlement
from .errors import ValidationError


#: Days per month, and the busy hour's share of a day's traffic.
DAYS_PER_MONTH = 30
BUSY_HOUR_SHARE = 0.15


def per_user_busy_hour_rate(capacity_gb_month: float) -> float:
    """Convert a monthly traffic allowance to a busy-hour rate in Mbps.

    GB/month -> Mbit/month (x1000 x8), to a daily quantity, then the busy
    hour's share of the day's traffic spread over 3600 seconds.
    """
    if capacity_gb_month < 0:
        raise ValidationError("capacity_gb_month must be >= 0")
    return capacity_gb_month * 1000.0 * 8.0 / DAYS_PER_MONTH * BUSY_HOUR_SHARE / 3600.0


def arpu_for_settlement(country: CountryParams, settlement: Settlement) -> float:
    """ARPU tier routing: urban pays high, suburban base, rural low."""
    if settlement == Settlement.URBAN:
        return country.arpu_high
    if settlement == Settlement.SUBURBAN:
        return country.arpu_base
    return country.arpu_low


def demand_columns(
    deciles: Sequence[DecileRecord],
    country: CountryParams,
    adoption: AdoptionParams,
    scenarios: Sequence[ScenarioSpec],
) -> dict[str, np.ndarray]:
    """Peak area demand and revenue present value of one country's deciles under a batch of scenarios.

    In year t = 1..n of a scenario's horizon, cell and smartphone
    penetration (the decile's settlement's base) each grow to
    ``min(base * (1 + cagr) ** t, cap)``. Smartphone users are population x
    cell x smartphone penetration, and the operator has its market share
    of them. ``demand_mbps_km2`` is the peak year's busy-hour traffic
    divided by the decile area. ``revenue_pv_usd`` is each year's users x
    ARPU x 12, divided by ``(1 + r) ** t`` (end of year) and added year by
    year. Degenerate and unpopulated deciles have neither. Returns both as
    (scenarios, deciles) arrays.
    """
    population = np.array([d.population for d in deciles], dtype=np.int64)[:, None]
    smartphone = np.array([adoption.smartphone_base(d.settlement) for d in deciles])[:, None]
    arpu = np.array([arpu_for_settlement(country, d.settlement) for d in deciles])[:, None]
    active = np.array([d.active for d in deciles], dtype=bool)
    area = np.array([d.area_km2 if a else 1.0 for d, a in zip(deciles, active)])
    share, cap = country.market_share, adoption.penetration_cap
    demand, revenue = [], []
    for scenario in scenarios:
        years = range(1, scenario.n_years + 1)
        cagr = adoption.cagr(country.income_group, scenario.adoption)
        growth = np.array([(1.0 + cagr) ** t for t in years])
        discount = np.array([(1.0 + scenario.discount_rate) ** t for t in years])
        users = population * np.minimum(adoption.base_cell_penetration * growth, cap) * np.minimum(
            smartphone * growth, cap)
        peak = (users * per_user_busy_hour_rate(scenario.capacity_gb_month) * share).max(axis=1)
        demand.append(np.where(active, peak / area, 0.0))
        # + 0.0 as a running total from 0.0 would: a zero ARPU written as -0 gives 0, not -0
        pv = np.cumsum(users * share * arpu * 12.0 / discount, axis=1)[:, -1] + 0.0
        revenue.append(np.where(active, pv, 0.0))
    return {"demand_mbps_km2": np.array(demand), "revenue_pv_usd": np.array(revenue)}
