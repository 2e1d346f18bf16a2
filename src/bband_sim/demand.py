"""Demand side: busy-hour rates, adoption projections, area traffic and revenue."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import AdoptionScenario, CountryParams, DecileRecord, IncomeGroup, Settlement
from .errors import ValidationError

# Income-group compound annual growth defaults for the low / baseline / high
# adoption scenarios. Mature markets grow slowly, LICs fastest.
DEFAULT_ADOPTION_CAGR: dict[IncomeGroup, dict[AdoptionScenario, float]] = {
    IncomeGroup.HIC: {
        AdoptionScenario.LOW: 0.005,
        AdoptionScenario.BASELINE: 0.01,
        AdoptionScenario.HIGH: 0.015,
    },
    IncomeGroup.UMC: {
        AdoptionScenario.LOW: 0.01,
        AdoptionScenario.BASELINE: 0.02,
        AdoptionScenario.HIGH: 0.04,
    },
    IncomeGroup.LMC: {
        AdoptionScenario.LOW: 0.015,
        AdoptionScenario.BASELINE: 0.03,
        AdoptionScenario.HIGH: 0.06,
    },
    IncomeGroup.LIC: {
        AdoptionScenario.LOW: 0.02,
        AdoptionScenario.BASELINE: 0.04,
        AdoptionScenario.HIGH: 0.06,
    },
}


@dataclass(frozen=True)
class AdoptionParams:
    """Base penetration levels and growth rates driving user projections."""

    base_cell_penetration: float = 0.55
    smartphone_penetration_urban: float = 0.65
    smartphone_penetration_rural: float = 0.40
    penetration_cap: float = 1.0
    cagr_by_income: dict[IncomeGroup, dict[AdoptionScenario, float]] | None = None

    def __post_init__(self):
        if self.cagr_by_income is None:
            object.__setattr__(self, "cagr_by_income", DEFAULT_ADOPTION_CAGR)
        if not (self.penetration_cap > 0):
            raise ValidationError("penetration_cap must be > 0")
        for name, value in (
            ("base_cell_penetration", self.base_cell_penetration),
            ("smartphone_penetration_urban", self.smartphone_penetration_urban),
            ("smartphone_penetration_rural", self.smartphone_penetration_rural),
        ):
            if not (0 <= value <= self.penetration_cap):
                raise ValidationError(f"{name} {value} outside [0, cap]")

    def cagr(self, income: IncomeGroup, scenario: AdoptionScenario) -> float:
        return self.cagr_by_income[income][scenario]

    def smartphone_base(self, settlement: Settlement) -> float:
        # Suburban areas track the urban smartphone level; only rural differs.
        if settlement == Settlement.RURAL:
            return self.smartphone_penetration_rural
        return self.smartphone_penetration_urban


def per_user_busy_hour_rate(
    capacity_gb_month: float,
    days: int = 30,
    busy_hour_share: float = 0.15,
) -> float:
    """Convert a monthly traffic allowance to a busy-hour rate in Mbps.

    GB/month -> Mbit/month (x1000 x8), to a daily quantity, then the busy
    hour's share of the day's traffic spread over 3600 seconds.
    """
    if capacity_gb_month < 0:
        raise ValidationError("capacity_gb_month must be >= 0")
    if days < 1:
        raise ValidationError("days must be >= 1")
    if not (0 < busy_hour_share <= 1):
        raise ValidationError("busy_hour_share must be in (0, 1]")
    return capacity_gb_month * 1000.0 * 8.0 / days * busy_hour_share / 3600.0


def adoption_projection(base: float, cagr: float, years_ahead: int, cap: float = 1.0) -> float:
    """Compound growth from ``base`` over ``years_ahead`` years, clamped at ``cap``."""
    if base < 0:
        raise ValidationError("base must be >= 0")
    if not (cap > 0):
        raise ValidationError("cap must be > 0")
    return min(base * (1.0 + cagr) ** years_ahead, cap)


def penetration_series(base: float, cagr: float, n_years: int, cap: float = 1.0) -> list[float]:
    """Yearly projected penetration for years 1..n_years of the horizon."""
    return [adoption_projection(base, cagr, t, cap) for t in range(1, n_years + 1)]


def area_demand(
    decile: DecileRecord,
    pen_by_year: Sequence[float],
    sp_pen_by_year: Sequence[float],
    rate_mbps: float,
    market_share: float,
) -> float:
    """Peak operator traffic density over the horizon, in Mbps/km^2.

    For each year, smartphone users are population x cell penetration x
    smartphone penetration; the operator carries its market-share fraction
    of their busy-hour traffic. The maximum year is retained and divided
    by the decile area.
    """
    if not (0 < market_share <= 1):
        raise ValidationError("market_share must be in (0, 1]")
    if len(pen_by_year) != len(sp_pen_by_year) or not pen_by_year:
        raise ValidationError("pen_by_year and sp_pen_by_year must be equal-length, non-empty")
    if decile.population == 0 or decile.degenerate:
        return 0.0
    if not (decile.area_km2 > 0):
        raise ValidationError(
            f"{decile.country_iso3} decile {decile.decile_index}: zero area with positive population"
        )
    peak = max(
        decile.population * pen * sp * rate_mbps * market_share
        for pen, sp in zip(pen_by_year, sp_pen_by_year)
    )
    return peak / decile.area_km2


def decile_revenue_pv(
    decile: DecileRecord,
    pen_by_year: Sequence[float],
    sp_pen_by_year: Sequence[float],
    arpu_usd_month: float,
    market_share: float,
    discount_rate: float,
) -> float:
    """Present value of the operator's subscription revenue in a decile.

    Annual revenue is users x market share x ARPU x 12, discounted with an
    end-of-year convention: year 1 of the horizon is divided by (1+r).
    """
    if arpu_usd_month < 0:
        raise ValidationError("arpu_usd_month must be >= 0")
    if len(pen_by_year) != len(sp_pen_by_year):
        raise ValidationError("pen_by_year and sp_pen_by_year must be equal length")
    if decile.population == 0 or decile.degenerate:
        return 0.0
    pv = 0.0
    for t, (pen, sp) in enumerate(zip(pen_by_year, sp_pen_by_year), start=1):
        revenue = decile.population * pen * sp * market_share * arpu_usd_month * 12.0
        pv += revenue / (1.0 + discount_rate) ** t
    return pv


def arpu_for_settlement(country: CountryParams, settlement: Settlement) -> float:
    """ARPU tier routing: urban pays high, suburban base, rural low."""
    if settlement == Settlement.URBAN:
        return country.arpu_high
    if settlement == Settlement.SUBURBAN:
        return country.arpu_base
    return country.arpu_low
