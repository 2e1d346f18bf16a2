"""Energy and emissions accounting for operating cell sites over the horizon."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .core import (
    DIESEL_SOURCE, MIX_SOURCES, MIX_SUM_TOLERANCE, ZERO_EMISSION_SOURCES, CountryParams, DecileRecord,
    EmissionFactors, EnergyParams, EnergyStrategy, FactorRow, StrategyBundle,
)
from .cost import radio_divisor
from .errors import ValidationError

HOURS_PER_YEAR = 8760

#: Per-decile horizon totals returned by :func:`energy`, in this order.
ENERGY_FIELDS = ("energy_kwh", "on_grid_kwh", "off_grid_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g")


def check_mix_row(mix_row: Mapping[str, float]) -> None:
    """Reject a generation mix with unknown sources or shares not summing to 1."""
    unknown = [s for s in mix_row if s not in MIX_SOURCES]
    if unknown:
        raise ValidationError(f"unknown mix sources: {unknown}")
    total_share = sum(mix_row.values())
    if abs(total_share - 1.0) > MIX_SUM_TOLERANCE:
        raise ValidationError(f"mix shares sum to {total_share}, expected 1")


def energy(
    existing_sites: np.ndarray,
    new_sites: np.ndarray,
    deciles: Sequence[DecileRecord],
    strategies: Sequence[StrategyBundle],
    country: CountryParams,
    params: EnergyParams,
    mix_rows: Sequence[Mapping[str, float]],
    factors: EmissionFactors,
) -> dict[str, np.ndarray]:
    """Horizon energy and emissions of a batch of keys over one country's deciles.

    Site counts are (keys, deciles), with one strategy per key. ``mix_rows``
    holds each horizon year's generation mix, shared by every key and
    validated once. New sites are built evenly over the horizon, remainder
    first; each year, the sites in operation draw the site's plus the key's
    backhaul's kWh per hour for 8760 hours. Where the key's sharing shares
    the radio equipment (:func:`cost.radio_divisor`), the country's major
    operators split that energy; passive sharing leaves it whole. The
    country's on-grid share is split across the year's mix and each
    source's factors applied; the rest is off-grid and burns diesel, or
    nothing under the renewables strategy. Returns :data:`ENERGY_FIELDS` ->
    (keys, deciles) array, the years added in order. Equal bit for bit to
    the per-decile, per-year chain in ``tests/reference_chains.py``: each
    element sees the same operations in the same order, sources add in
    each mix row's own order, the diesel add is masked, and years reduce
    sequentially.
    """
    existing = np.asarray(existing_sites, dtype=np.int64)
    new = np.asarray(new_sites, dtype=np.int64)
    if (existing < 0).any() or (new < 0).any():
        raise ValidationError("site counts must be >= 0")
    n_years = len(mix_rows)
    if n_years < 1:
        raise ValidationError("n_years must be >= 1")
    for row in mix_rows:
        check_mix_row(row)

    q, r = np.divmod(new, n_years)
    builds = q[..., None] + (np.arange(n_years) < r[..., None])
    per_site = np.array([params.site_kwh_per_hour + params.backhaul_kwh_per_hour(s.backhaul) for s in strategies])
    divisor = radio_divisor(strategies, deciles, country.n_major_operators)[..., None]
    kwh = (existing[..., None] + np.cumsum(builds, axis=-1)) * per_site[:, None, None] * HOURS_PER_YEAR / divisor
    on = kwh * country.on_grid_share
    off = kwh - on

    # slot k of year t holds the k-th source of that year's mix row; slots
    # past the end of a shorter row are padding and add nothing
    width = max(len(row) for row in mix_rows)
    pad = [(0.0, (0.0, 0.0, 0.0, 0.0))]
    slots = [
        [(share, factors.by_source[source].as_tuple()) for source, share in row.items()] + pad * (width - len(row))
        for row in mix_rows
    ]
    shares = np.array([[share for share, _ in year] for year in slots])
    coef = np.array([[f for _, f in year] for year in slots]).transpose(2, 0, 1)[:, None, None]  # (species, 1, 1, year, slot)
    used = np.arange(width) < np.array([len(row) for row in mix_rows])[:, None]
    species = np.zeros((4, *kwh.shape))
    for k in range(width):
        np.add(species, on * shares[:, k] * coef[..., k], out=species, where=used[:, k])
    burns = np.array([s.energy_strategy != EnergyStrategy.RENEWABLES for s in strategies], dtype=bool)[:, None, None]
    np.add(species, off * np.array(factors.diesel.as_tuple())[:, None, None, None], out=species, where=burns)

    # copied, so that the totals do not keep the whole cumsum buffer alive
    totals = np.cumsum(np.stack([kwh, on, off, *species]), axis=-1)[..., -1].copy()
    return dict(zip(ENERGY_FIELDS, totals))
