"""Energy and emissions accounting for operating cell sites over the horizon."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .core import (
    MIX_SHARE_BOUNDS, MIX_SOURCES, MIX_SUM_TOLERANCE, CountryParams, Deciles, EmissionFactors, EnergyParams,
    EnergyStrategy, StrategyBundle, broken_bound, raise_broken,
)
from .cost import radio_divisor
from .errors import ValidationError

HOURS_PER_YEAR = 8760

#: Per-decile horizon totals returned by :func:`energy`, in this order.
ENERGY_FIELDS = ("energy_kwh", "on_grid_kwh", "off_grid_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g")


def check_mix_row(mix_row: Mapping[str, float]) -> None:
    """Reject a generation mix with unknown sources, a share breaking :data:`MIX_SHARE_BOUNDS` (nan included) or
    shares not summing to 1, with the loader's texts for the shares."""
    unknown = [s for s in mix_row if s not in MIX_SOURCES]
    if unknown:
        raise ValidationError(f"unknown mix sources: {unknown}")
    raise_broken(filter(None, (broken_bound("share", share, MIX_SHARE_BOUNDS) for share in mix_row.values())))
    total_share = sum(mix_row.values())
    if not abs(total_share - 1.0) <= MIX_SUM_TOLERANCE:  # a nan total fails too
        raise ValidationError(f"mix shares sum to {total_share}, expected 1")


def energy(
    existing_sites: np.ndarray,
    new_sites: np.ndarray,
    deciles: Deciles,
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
    element sees the same operations in the same order, each year's sources
    add in :data:`core.MIX_SOURCES` order, whatever the row's order, diesel
    is added under every strategy with a factor of 0.0 under renewables,
    and years reduce sequentially; each species starts at +0.0 and adds
    only non-negative terms, so an added +0.0 changes no bit. Working memory
    is a few (keys, deciles, years) arrays: the four species are built one
    at a time, and each field's years are reduced in place, on their own.
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
    per_site = np.array([params.site_kwh_per_hour + params.backhaul_kwh_per_hour(s.backhaul) for s in strategies])
    divisor = radio_divisor(strategies, deciles, country.n_major_operators)[..., None]
    operating = existing[..., None] + np.cumsum(q[..., None] + (np.arange(n_years) < r[..., None]), axis=-1)
    kwh = operating * per_site[:, None, None] * HOURS_PER_YEAR / divisor
    del operating  # (keys, deciles, years) ints no later step reads
    on = kwh * country.on_grid_share
    off = kwh - on

    burns = np.array([s.energy_strategy != EnergyStrategy.RENEWABLES for s in strategies], dtype=float)[:, None, None]
    totals = {}
    for i, (name, diesel) in enumerate(zip(ENERGY_FIELDS[3:], factors.diesel.as_tuple())):
        species = np.zeros(kwh.shape)
        for t, row in enumerate(mix_rows):
            for source in filter(row.__contains__, MIX_SOURCES):
                species[..., t] += on[..., t] * row[source] * factors.by_source[source].as_tuple()[i]
        species += off * (burns * diesel)
        totals[name] = _horizon_total(species)
    return {**dict(zip(ENERGY_FIELDS, map(_horizon_total, (kwh, on, off)))), **totals}


def _horizon_total(per_year: np.ndarray) -> np.ndarray:
    """The sum over the last (year) axis, added in year order, overwriting ``per_year``."""
    return np.cumsum(per_year, axis=-1, out=per_year)[..., -1].copy()
