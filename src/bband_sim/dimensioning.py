"""Turn per-decile demand and capacity tables into site counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DecileRecord
from .errors import ValidationError
from .radio import CapacityTable, required_density

# Guard against float noise pushing an exact product over the next integer
# (0.6 * 100 == 60.000000000000014 must still dimension as 60 sites).
_CEIL_EPS = 1e-9


def _ceil_tolerant(x: float) -> int:
    return math.ceil(x - _CEIL_EPS)


@dataclass(frozen=True)
class SiteRequirement:
    """Sites needed in one decile: total split into upgrades and new builds."""

    country_iso3: str
    decile_index: int
    total_sites: int
    existing_sites: int
    new_sites: int
    upgraded_sites: int
    unserviceable: bool = False

    def __post_init__(self):
        if min(self.total_sites, self.existing_sites, self.new_sites, self.upgraded_sites) < 0:
            raise ValidationError("site counts must be >= 0")
        if self.new_sites != max(0, self.total_sites - self.existing_sites):
            raise ValidationError("new_sites must equal max(0, total - existing)")
        if self.upgraded_sites != min(self.existing_sites, self.total_sites):
            raise ValidationError("upgraded_sites must equal min(existing, total)")


def required_sites(
    decile: DecileRecord,
    demand_mbps_km2: float,
    table: CapacityTable,
) -> SiteRequirement:
    """Dimension one decile against a capacity table.

    Total sites is the ceiling of required density times area. Existing
    towers are consumed first as upgrades; only the shortfall is greenfield,
    and surplus towers are never demolished. Demand beyond the table maximum
    caps the build at the maximum tabulated density and sets the
    unserviceable flag.
    """
    if decile.degenerate or decile.population == 0:
        return SiteRequirement(
            country_iso3=decile.country_iso3,
            decile_index=decile.decile_index,
            total_sites=0,
            existing_sites=decile.existing_sites,
            new_sites=0,
            upgraded_sites=0,
        )
    density, unserviceable = required_density(table, demand_mbps_km2)
    total = _ceil_tolerant(density * decile.area_km2)
    return SiteRequirement(
        country_iso3=decile.country_iso3,
        decile_index=decile.decile_index,
        total_sites=total,
        existing_sites=decile.existing_sites,
        new_sites=max(0, total - decile.existing_sites),
        upgraded_sites=min(decile.existing_sites, total),
        unserviceable=unserviceable,
    )

