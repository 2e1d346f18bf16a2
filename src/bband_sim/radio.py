"""Monte Carlo link-level simulator producing site-density to capacity tables.

A hypothetical macro site sits at the origin of a hexagonal layout with
inter-site distance ``ISD = sqrt(2 / (sqrt(3) * density))``. Receivers are
dropped uniformly inside the serving hexagon; co-channel interference comes
from rings of neighbouring sites (6k sites at distance k*ISD for ring k).
Propagation is free-space path loss with a lognormally distributed shadow
fading excess (see :func:`shadow_fading_draws`) and a fixed extra loss for
paths beyond the LoS breakpoint. Per-trial
SINR maps through a step lookup table to single-stream spectral
efficiency, scaled by the generation's MIMO streams times
``params.mimo_efficiency``; the capacity credited to a density is the
reliability-level (default 10th percentile) spectral efficiency times
bandwidth, sectors and site density, summed over the carriers in use.

Every (carrier, density) simulation derives its own RNG stream from the seed
and its identifying integers (:func:`core.carrier_stream_key` and
:func:`core.density_stream_key`; a frequency set and a density grid reject
two entries with one key), so tables are bit-identical regardless of how
the work is scheduled across threads. A simulation draws the receiver
drops and the serving shadow fading for all its trials, then runs the
interferer chain over blocks of consecutive trials of at most
:data:`BLOCK_ELEMENTS` (trial, interferer) paths, drawing each block's
interferer shadow fading as it goes; the stream yields the same numbers as
one whole-array draw, so the chain's working memory is bounded by the
block size, not by trials x interferers, however many rings there are.
Every element takes the same arithmetic, in the same order, whatever the
block size (see :func:`_received_mw`), and ``tests/reference_chains.py``
keeps the unblocked whole-array chain that the kernel equals bit for bit.
A carrier's contribution depends only on (params, SE table, generation,
carrier, density), so :func:`build_capacity_tables` runs each distinct
simulation its sets need once, in one pool of ``jobs`` threads that is
imported only when ``jobs > 1`` and there is work: a run whose tables all
come from the cache never loads it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_DENSITY_GRID, MIMO_STREAMS, Carrier, FrequencySet, Generation, SimulationParams, SpectralEfficiencyTable,
    SelfChecked, carrier_stream_key, density_grid_rules, density_stream_key, ordered_sum, raise_broken,
)
from .errors import ValidationError

logger = logging.getLogger(__name__)

BOLTZMANN_J_PER_K = 1.380649e-23

#: Version of the radio model behind every capacity table, part of
#: :func:`table_cache_key`. Bump it with any change that alters a table
#: value, so that tables cached by older code are rebuilt, not reused.
RADIO_MODEL_VERSION = 1

#: (trial, interferer) paths per block of the interferer chain in
#: :func:`trial_sinr_db`: a block holds ``max(1, BLOCK_ELEMENTS //
#: interferers)`` trials, 2048 at two rings. Its three (block, interferers)
#: float buffers, shadow fading included, take 24 bytes per path, so the
#: chain's memory is bounded whatever the ring count, and they fit in a
#: core's L2 cache; results do not depend on it.
BLOCK_ELEMENTS = 36864


@dataclass(frozen=True)
class CapacityTable(SelfChecked):
    """Monotone map from site density to area capacity for one frequency set."""

    generation: Generation
    freq_label: str
    rows: tuple[tuple[float, float], ...]  # (sites/km^2, Mbps/km^2)

    def broken_rules(self) -> Iterator[str]:
        if not self.rows:
            yield "capacity table has no rows"
        densities = [r[0] for r in self.rows]
        caps = [r[1] for r in self.rows]
        # Every comparison with nan is false, so the order rules below would pass it.
        if not all(map(math.isfinite, densities + caps)):
            yield "capacity table entries must be finite"
            return
        if any(b <= a for a, b in zip(densities, densities[1:])):
            yield "capacity table densities must be strictly increasing"
        if any(b < a for a, b in zip(caps, caps[1:])):
            yield "capacity table capacities must be monotone non-decreasing"
        if any(d <= 0 for d in densities) or any(c < 0 for c in caps):
            yield "capacity table entries must be positive densities, non-negative capacities"

    @property
    def max_density(self) -> float:
        return self.rows[-1][0]

    @property
    def max_capacity(self) -> float:
        return self.rows[-1][1]


def noise_floor(params: SimulationParams, bw_hz: float) -> float:
    """Thermal noise power in dBm over ``bw_hz``, including the UE noise figure."""
    if bw_hz <= 0:
        raise ValidationError("bw_hz must be > 0")
    return (
        10.0 * math.log10(BOLTZMANN_J_PER_K * params.temperature_k * 1000.0)
        + params.noise_figure_db
        + 10.0 * math.log10(bw_hz)
    )


def se_lookup(table: SpectralEfficiencyTable, sinr_db, generation: Generation) -> np.ndarray:
    """Single-stream spectral efficiency in bps/Hz for each SINR, as an array of the SINRs' shape.

    Step function: the largest row whose ``min_sinr_db`` the SINR meets is
    selected; below the lowest row (-inf included) returns 0 (no service);
    above the top row saturates at the top row.
    """
    rows = table.rows[generation]
    mins = np.array([r[0] for r in rows])
    ses = np.array([0.0, *(r[1] for r in rows)])  # ses[i]: the SE of an SINR that meets i thresholds
    return ses[np.searchsorted(mins, np.asarray(sinr_db, dtype=float), side="right")]


def inter_site_distance_km(site_density: float) -> float:
    """Hexagonal-layout inter-site distance for a given site density."""
    if site_density <= 0:
        raise ValidationError("site_density must be > 0")
    return math.sqrt(2.0 / (math.sqrt(3.0) * site_density))


def _interferer_positions(isd_km: float, rings: int) -> np.ndarray:
    """Co-channel site coordinates: ring k holds 6k sites at distance k*ISD."""
    points = []
    for k in range(1, rings + 1):
        count = 6 * k
        for j in range(count):
            angle = math.radians(30.0) + 2.0 * math.pi * j / count
            points.append((k * isd_km * math.cos(angle), k * isd_km * math.sin(angle)))
    return np.array(points) if points else np.empty((0, 2))


# Corner angles of the hexagon's six triangles, as ``tri * pi/3`` and that
# plus pi/3, with their cosines and sines: a lookup replaces trig per trial.
_HEX_A0 = np.arange(6) * (math.pi / 3.0)
_HEX_A1 = _HEX_A0 + math.pi / 3.0
_HEX_COS0, _HEX_SIN0 = np.cos(_HEX_A0), np.sin(_HEX_A0)
_HEX_COS1, _HEX_SIN1 = np.cos(_HEX_A1), np.sin(_HEX_A1)


def _sample_hexagon(rng: np.random.Generator, n: int, circumradius_km: float):
    """Uniform points in a regular hexagon centred at the origin."""
    tri = rng.integers(0, 6, n)
    u = rng.random(n)
    v = rng.random(n)
    over = u + v > 1.0
    u[over] = 1.0 - u[over]
    v[over] = 1.0 - v[over]
    u *= circumradius_km
    v *= circumradius_km
    x = u * _HEX_COS0[tri] + v * _HEX_COS1[tri]
    y = u * _HEX_SIN0[tri] + v * _HEX_SIN1[tri]
    return x, y


def shadow_fading_draws(
    rng: np.random.Generator,
    mu_db: float,
    sigma_db: float,
    size,
) -> np.ndarray:
    """Per-path shadow fading excess loss, lognormally distributed in dB.

    ``mu_db`` and ``sigma_db`` are the mean and standard deviation of the
    dB-valued loss; the underlying normal parameters are moment-matched, so
    draws are non-negative with a long right tail (occasional heavy
    blockage) rather than symmetric. ``sigma_db = 0`` degenerates to the
    constant ``mu_db``.
    """
    if sigma_db == 0:
        return np.full(size, float(mu_db))
    if mu_db <= 0:
        raise ValidationError("shadow_mu_db must be > 0 when shadow_sigma_db > 0")
    ratio = sigma_db / mu_db
    sigma_ln = math.sqrt(math.log(1.0 + ratio * ratio))
    mu_ln = math.log(mu_db * mu_db / math.sqrt(mu_db * mu_db + sigma_db * sigma_db))
    return rng.lognormal(mu_ln, sigma_ln, size)


def _carrier_rng(seed: int, generation: Generation, carrier: Carrier, site_density: float) -> np.random.Generator:
    # Stream identity depends only on (seed, generation, carrier, density),
    # never on scheduling order, so parallel table builds are reproducible.
    key = (4 if generation == Generation.G4 else 5, *carrier_stream_key(carrier), density_stream_key(site_density))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def _received_mw(d_km, shadow_db, params: SimulationParams, freq_term_db, scratch):
    """Distances in km -> received power in mW, in place in ``d_km``.

    Free-space path loss ``20 log10(d) + 20 log10(f_MHz) + 32.44`` dB, with
    ``d`` clamped to ``min_distance_m / 1000`` km, plus an NLoS excess of
    ``nlos_excess_db`` on paths strictly longer than the LoS breakpoint and
    0.0 on the rest; received dBm is ``(tx power + tx gain - tx losses) -
    loss - shadow + rx gain - rx losses - rx misc losses``, added in that
    order, then ``10 ** (dBm / 10)``. ``freq_term_db`` is ``20 log10(f_MHz)``;
    ``scratch`` is a float buffer shaped like ``d_km``.
    """
    np.maximum(d_km, params.min_distance_m / 1000.0, out=d_km)
    np.multiply(d_km, 1000.0, out=scratch)
    np.greater(scratch, params.los_breakpoint_m, out=scratch)
    scratch *= params.nlos_excess_db
    np.log10(d_km, out=d_km)
    d_km *= 20.0
    d_km += freq_term_db
    d_km += 32.44
    d_km += scratch
    np.subtract(params.tx_power_dbm + params.tx_gain_db - params.tx_losses_db, d_km, out=d_km)
    d_km -= shadow_db
    d_km += params.rx_gain_db
    d_km -= params.rx_losses_db
    d_km -= params.rx_misc_losses_db
    d_km /= 10.0
    np.power(10.0, d_km, out=d_km)


def trial_sinr_db(
    params: SimulationParams,
    generation: Generation,
    carrier: Carrier,
    site_density: float,
    receiver_positions: Sequence[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Per-trial downlink SINR in dB of one carrier at ``site_density``.

    ``params.trials`` receivers are dropped uniformly in the serving hexagon
    (or placed at ``receiver_positions``, a testing hook); each trial sees
    the serving path, the interfering ring paths and the noise floor. The
    draws come from the carrier's own stream in a fixed order: hexagon
    drops, serving shadow, then the (trials, interferers) shadow array in
    row order, one block of rows at a time. The serving path runs on whole
    arrays and the interferer paths over blocks of at most
    :data:`BLOCK_ELEMENTS` paths, so memory beyond the per-trial arrays is
    bounded by the block size, whatever the ring count. Each path's
    distance is ``sqrt(dx^2 + dy^2 + dh^2)`` in km and its power in mW
    comes from :func:`_received_mw`; a trial's interference is numpy's
    ``sum`` of its paths' powers over the interferer axis (not a left fold;
    ``tests/reference_chains.py`` makes the same call), times
    ``network_load``, and its SINR is
    ``10 log10(signal / (interference + noise))`` with the noise
    floor in mW (noise alone when there are no rings). A signal below float
    range gives -inf.
    """
    isd = inter_site_distance_km(site_density)
    sites = _interferer_positions(isd, params.interferer_rings)
    rng = _carrier_rng(params.seed, generation, carrier, site_density)
    if receiver_positions is None:
        x, y = _sample_hexagon(rng, params.trials, isd / math.sqrt(3.0))
    else:
        pos = np.asarray(receiver_positions, dtype=float)
        x, y = pos[:, 0], pos[:, 1]
    n, m = len(x), len(sites)
    shadow_signal = shadow_fading_draws(rng, params.shadow_mu_db, params.shadow_sigma_db, n)

    dh_sq = ((params.tx_height_m - params.rx_height_m) / 1000.0) ** 2
    freq_term_db = 20.0 * np.log10(carrier.frequency_mhz)
    noise_mw = 10.0 ** (noise_floor(params, carrier.bandwidth_mhz * 1e6) / 10.0)
    signal = np.sqrt(x * x + y * y + dh_sq)
    _received_mw(signal, shadow_signal, params, freq_term_db, np.empty(n))

    total = np.empty(n)  # interference sum, then plus noise, then the SINR
    if m:
        rows = min(max(1, BLOCK_ELEMENTS // m), n)
        path, scratch = np.empty((rows, m)), np.empty((rows, m))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            d, t = path[:hi - lo], scratch[:hi - lo]
            np.subtract(x[lo:hi, None], sites[:, 0], out=d)
            d *= d
            np.subtract(y[lo:hi, None], sites[:, 1], out=t)
            t *= t
            d += t
            d += dh_sq
            np.sqrt(d, out=d)
            shadow = shadow_fading_draws(rng, params.shadow_mu_db, params.shadow_sigma_db, (hi - lo, m))
            _received_mw(d, shadow, params, freq_term_db, t)
            np.sum(d, axis=-1, out=total[lo:hi])
        total *= params.network_load
        total += noise_mw
    else:
        total.fill(noise_mw)  # 0.0 + noise_mw == noise_mw
    np.divide(signal, total, out=total)
    with np.errstate(divide="ignore"):
        np.log10(total, out=total)
    total *= 10.0
    return total


def carrier_capacity(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    generation: Generation,
    carrier: Carrier,
    site_density: float,
) -> float:
    """One carrier's area capacity in Mbps/km^2 at ``site_density`` sites/km^2.

    The per-trial SINRs of :func:`trial_sinr_db` map to single-stream
    spectral efficiency, scaled by the generation's :data:`MIMO_STREAMS`
    times ``params.mimo_efficiency``; the carrier is credited with the
    reliability-level percentile of that distribution times bandwidth,
    sectors and density.
    """
    sinr_db = trial_sinr_db(params, generation, carrier, site_density)
    se = se_lookup(se_table, sinr_db, generation) * (MIMO_STREAMS[generation] * params.mimo_efficiency)
    se_reliable = float(np.percentile(se, (1.0 - params.reliability) * 100.0))
    return se_reliable * carrier.bandwidth_mhz * params.sectors_per_site * site_density


def simulate_density(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    freq_set: FrequencySet,
    site_density: float,
) -> float:
    """Mbps/km^2 at ``site_density``: the set's :func:`carrier_capacity` values, summed in carrier order from 0.0."""
    return ordered_sum(carrier_capacity(params, se_table, freq_set.generation, c, site_density)
                       for c in freq_set.carriers)


def isotonic_clip(values: Sequence[float]) -> list[float]:
    """Running maximum, removing small Monte Carlo dips from a table column."""
    return np.maximum.accumulate(np.asarray(values, dtype=float)).tolist()


def _simulation_plan(freq_sets: Sequence[FrequencySet], density_grid: Sequence[float]) -> list[tuple]:
    """Every distinct (generation, carrier, density) the sets' tables need, once each, in first-seen order."""
    return list(dict.fromkeys((fs.generation, c, d) for fs in freq_sets for d in density_grid for c in fs.carriers))


def build_capacity_tables(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    freq_sets: Sequence[FrequencySet],
    density_grid: Sequence[float] = DEFAULT_DENSITY_GRID,
    jobs: int = 1,
) -> list[CapacityTable]:
    """One monotone capacity table per frequency set, in the sets' order.

    Each simulation of :func:`_simulation_plan` runs once, across ``jobs`` threads if ``jobs > 1``, so sets that
    share a carrier simulate it once per density. A set's column is its carriers' results summed as in
    :func:`simulate_density`, isotonically clipped. The grid must break no :func:`core.density_grid_rules`.
    """
    grid = list(density_grid)
    raise_broken(density_grid_rules(grid))
    plan = _simulation_plan(freq_sets, grid)

    def simulate(point: tuple) -> float:
        return carrier_capacity(params, se_table, *point)

    if jobs > 1 and plan:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            capacity = dict(zip(plan, pool.map(simulate, plan)))
    else:
        capacity = {point: simulate(point) for point in plan}
    tables = []
    for fs in freq_sets:
        column = [ordered_sum(capacity[fs.generation, c, d] for c in fs.carriers) for d in grid]
        tables.append(CapacityTable(fs.generation, fs.label, tuple(zip(grid, isotonic_clip(column)))))
    return tables


def build_capacity_table(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    freq_set: FrequencySet,
    density_grid: Sequence[float] = DEFAULT_DENSITY_GRID,
    jobs: int = 1,
) -> CapacityTable:
    """The capacity table of one frequency set; see :func:`build_capacity_tables`."""
    return build_capacity_tables(params, se_table, [freq_set], density_grid, jobs)[0]


def log_table_counts(lookups: int, cached: int, built: Sequence[FrequencySet], density_grid: Sequence[float]) -> None:
    """Log one INFO line on a call's table lookups, with the pairs and simulations of the distinct sets ``built``."""
    pairs = sum(len(fs.carriers) for fs in built) * len(density_grid)
    logger.info("capacity tables: %d lookups, %d distinct tables, %d read from cache, %d built, %d carrier-density "
                "pairs, %d simulations", lookups, cached + len(built), cached, len(built), pairs,
                len(_simulation_plan(built, density_grid)))


def required_density(table: CapacityTable, demand_mbps_km2) -> tuple[np.ndarray, np.ndarray]:
    """Smallest site density meeting each traffic demand, from the lookup table.

    Linear interpolation between bracketing rows, anchored at the implicit
    (0 density, 0 capacity) point below the first row. Returns
    ``(density, unserviceable)`` arrays shaped like the demand; demand above
    the table maximum returns the maximum density with the flag set rather
    than extrapolating.
    """
    demand = np.asarray(demand_mbps_km2, dtype=np.float64)
    if not (demand >= 0).all():
        raise ValidationError("demand must be >= 0")
    unserviceable = demand > table.max_capacity
    density = np.where(unserviceable, table.max_density, 0.0)
    inside = (demand > 0) & ~unserviceable
    x = demand[inside]
    densities = np.array([0.0, *(d for d, _ in table.rows)])
    caps = np.array([0.0, *(c for _, c in table.rows)])
    # the first row whose capacity reaches the demand; capacities never decrease
    row = np.searchsorted(caps[1:], x, side="left") + 1
    d, c, prev_d, prev_c = densities[row], caps[row], densities[row - 1], caps[row - 1]
    flat = c == prev_c  # a flat zero segment cannot bracket positive demand
    frac = (x - prev_c) / np.where(flat, 1.0, c - prev_c)
    # prev_d + (d - prev_d) can round one ulp above d; capping at the row
    # keeps the result monotone in demand across rows.
    density[inside] = np.where(flat, d, np.minimum(prev_d + frac * (d - prev_d), d))
    return density, unserviceable


def table_cache_key(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    freq_set: FrequencySet,
    density_grid: Sequence[float],
) -> str:
    """Content hash identifying a capacity table build, for disk caching."""
    payload = {
        "model_version": RADIO_MODEL_VERSION,
        "params": asdict(params),
        "se_rows": {gen.value: list(map(list, rows)) for gen, rows in sorted(se_table.rows.items())},
        "mimo_streams": {gen.value: n for gen, n in sorted(MIMO_STREAMS.items())},
        "mimo_efficiency": params.mimo_efficiency,
        "generation": freq_set.generation.value,
        "carriers": [[c.frequency_mhz, c.bandwidth_mhz] for c in freq_set.carriers],
        "grid": list(density_grid),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


CAPACITY_TABLE_HEADER = ["generation", "freq_set", "site_density", "capacity_mbps_km2"]


def save_capacity_tables(tables: Iterable[CapacityTable], path: Path | str) -> None:
    """Write tables to CSV (``generation,freq_set,site_density,capacity_mbps_km2``).

    The file is written next to ``path`` under a temporary name and then
    renamed over it, so a reader never sees a partly written table.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CAPACITY_TABLE_HEADER)
            for table in tables:
                for density, capacity in table.rows:
                    writer.writerow([table.generation.value, table.freq_label, repr(density), repr(capacity)])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_capacity_tables(path: Path | str) -> list[CapacityTable]:
    """Read tables written by :func:`save_capacity_tables`."""
    path = Path(path)
    grouped: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CAPACITY_TABLE_HEADER:
            raise ValidationError(f"{path}: unexpected capacity table header {header}")
        for row in reader:
            gen, label, density, capacity = row
            grouped.setdefault((gen, label), []).append((float(density), float(capacity)))
    return [
        CapacityTable(generation=Generation(gen), freq_label=label, rows=tuple(rows))
        for (gen, label), rows in grouped.items()
    ]
