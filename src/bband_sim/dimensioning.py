"""Turn per-decile demand and capacity tables into site counts."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Deciles
from .radio import CapacityTable, required_density

# Guard against float noise pushing an exact product over the next integer
# (0.6 * 100 == 60.000000000000014 must still dimension as 60 sites).
_CEIL_EPS = 1e-9


def site_counts(
    demand_mbps_km2: np.ndarray,
    tables: Sequence[CapacityTable],
    deciles: Deciles,
) -> dict[str, np.ndarray]:
    """Dimension one country's deciles against one capacity table per key.

    Demand is (keys, deciles). Total sites is the ceiling of required
    density times area. Existing towers are consumed first as upgrades;
    only the shortfall is greenfield, and surplus towers are never
    demolished. Demand beyond a table's maximum caps the build at its
    maximum tabulated density and sets the unserviceable flag. Degenerate
    and unpopulated deciles need no sites. Returns (keys, deciles) arrays.
    """
    demand = np.asarray(demand_mbps_km2, dtype=np.float64)
    density, unserviceable = map(np.array, zip(*(required_density(t, row) for t, row in zip(tables, demand))))
    area = np.array(deciles.area_km2, dtype=np.float64)
    existing = np.broadcast_to(np.array(deciles.existing_sites, dtype=np.int64), demand.shape)
    active = np.array(deciles.active, dtype=bool)
    total = np.where(active, np.ceil(density * area - _CEIL_EPS), 0.0).astype(np.int64)
    return {
        "total_sites": total,
        "existing_sites": existing,
        "new_sites": np.maximum(0, total - existing),
        "upgraded_sites": np.minimum(existing, total),
        "unserviceable": unserviceable & active,
    }
