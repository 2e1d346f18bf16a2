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
bandwidth, sectors and site density, summed over the carriers in use. A
nan SINR (signal and interference both overflowed), which the lookup would
credit with its top row, fails the simulation, as a noise floor beyond float
range does; a +inf SINR (an overflowed signal over finite interference and
noise) takes the top row, as every SINR above it does.

Every (carrier, density) simulation derives its own RNG stream from the seed
and its identifying integers (:func:`core.carrier_stream_key` and
:func:`core.density_stream_key`; a frequency set and a density grid reject
two entries with one key), so tables are bit-identical regardless of how
the work is scheduled across threads. A simulation streams its trials
(:func:`sinr_blocks`): it reads each part of the stream (drop triangles, u,
v, serving shadows, interferer shadows) from its own copy, started where
one whole-array draw of the parts would reach it, and runs every per-trial
step over chunks of trials and blocks of (trial, interferer) paths (see
:data:`BLOCK_ELEMENTS`); :func:`carrier_capacity` keeps only a count of
trials per SE step. No array grows with trials: at two rings a simulation
holds about 1.3 MB, at 50,000 trials as at 200,000 (tracemalloc peak).
Every element takes the same arithmetic, in the same order, whatever the
block size (see :func:`_received_mw`), and ``tests/reference_chains.py``
keeps the unblocked whole-array chain, up to ``np.percentile`` over every
trial's SE, that the kernel equals bit for bit.
:func:`build_capacity_tables` is the one path from frequency sets to tables,
for ``run`` and ``tables`` alike: it keys each set, reads each distinct key's
cache file at most once and trusts only a match (:func:`_load_cached_table`),
runs each distinct simulation the other tables need once, in one pool of
``jobs`` threads imported only when there is a simulation to run, writes
the built tables back and logs one ``capacity tables:`` line.
"""

from __future__ import annotations

import bisect
import copy
import csv
import hashlib
import itertools
import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_DENSITY_GRID, MIMO_STREAMS, Carrier, FrequencySet, Generation, SimulationParams, SpectralEfficiencyTable,
    SelfChecked, carrier_stream_key, density_grid_rules, density_stream_key, noise_floor, ordered_sum, raise_broken,
    shadow_lognormal,
)
from .data_io import write_files
from .errors import ValidationError

logger = logging.getLogger(__name__)

#: Version of the radio model behind every capacity table, part of
#: :func:`table_cache_key`. Bump it with any change that alters a table
#: value, so that tables cached by older code are rebuilt, not reused.
RADIO_MODEL_VERSION = 1

#: (trial, interferer) paths per block of the interferer chain in
#: :func:`sinr_blocks`: a block holds ``max(1, BLOCK_ELEMENTS //
#: interferers)`` trials, 2048 at two rings. Its two (block, interferers)
#: float buffers and its interferer shadow fading take 24 bytes per path and
#: fit in a core's L2 cache. They are the only arrays a simulation makes
#: ahead, since they pay: made anew per block, the interferer chain took the
#: cold ``radio`` bench build 30-40% longer at ``--jobs 2`` and peaked at
#: 2.6 MB at two rings. The drops' placement and the serving path are plain
#: arrays over chunks of whole blocks, up to a quarter of this many trials
#: (8192 at two rings); run per block instead, they took about 6% longer. So
#: a simulation's memory is bounded by this constant, whatever the ring and
#: trial counts. Results do not depend on it.
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


def inter_site_distance_km(site_density: float) -> float:
    """Hexagonal-layout inter-site distance for a given site density."""
    if site_density <= 0:
        raise ValidationError("site_density must be > 0")
    return math.sqrt(2.0 / (math.sqrt(3.0) * site_density))


def interferer_positions(isd_km: float, rings: int) -> np.ndarray:
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


def place_in_hexagon(tri: np.ndarray, u: np.ndarray, v: np.ndarray, circumradius_km: float):
    """Points ``(x, y)`` uniform in a regular hexagon centred at the origin, from uniforms u and v.

    Each trial's (u, v) folds into the triangle u + v <= 1, scales by the
    circumradius and maps onto triangle ``tri`` (0-5) of the hexagon's six,
    whose corners lie at ``tri * 60`` and ``tri * 60 + 60`` degrees.
    """
    over = u + v > 1.0
    u = np.where(over, 1.0 - u, u) * circumradius_km
    v = np.where(over, 1.0 - v, v) * circumradius_km
    return _HEX_COS0[tri] * u + _HEX_COS1[tri] * v, _HEX_SIN0[tri] * u + _HEX_SIN1[tri] * v


def shadow_fading_draws(
    rng: np.random.Generator,
    mu_db: float,
    sigma_db: float,
    size,
) -> np.ndarray:
    """Per-path shadow fading excess loss, lognormally distributed in dB.

    ``mu_db`` and ``sigma_db`` are the mean and standard deviation of the
    dB-valued loss; the underlying normal parameters are moment-matched
    (:func:`core.shadow_lognormal`), so draws are non-negative with a long
    right tail (occasional heavy blockage) rather than symmetric.
    ``sigma_db = 0`` degenerates to the constant ``mu_db``.
    """
    if sigma_db == 0:
        return np.full(size, float(mu_db))
    if mu_db <= 0:
        raise ValidationError("shadow_mu_db must be > 0 when shadow_sigma_db > 0")
    return rng.lognormal(*shadow_lognormal(mu_db, sigma_db), size)


def carrier_rng(seed: int, generation: Generation, carrier: Carrier, site_density: float) -> np.random.Generator:
    """The simulation's own RNG stream: keyed by (seed, generation, carrier, density) alone, never by
    scheduling order, so parallel table builds are reproducible."""
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


def sinr_blocks(
    params: SimulationParams,
    generation: Generation,
    carrier: Carrier,
    site_density: float,
) -> Iterator[np.ndarray]:
    """Per-trial downlink SINR in dB of one carrier at ``site_density``, as consecutive blocks of trials.

    ``params.trials`` receivers are dropped uniformly in the serving hexagon
    (:func:`place_in_hexagon`); each trial sees the serving path, the
    interfering ring paths and the noise floor. The carrier's own stream is
    read in one fixed order, as one whole-array draw of each part would read
    it: hexagon triangles, then u, then v (``n`` each), the serving shadows
    (``n``), then the (trials, interferers) shadow array in row order. Each
    part is read from its own copy of the stream, started where the part
    starts: a triangle draw taken in pieces leaves the stream where one
    whole draw does, so one pass that skips the triangles finds u; a uniform
    takes one 64-bit output, so u and v start ``n`` outputs apart and the
    serving shadows ``2n`` outputs on (``bit_generator.advance``); a skipped
    ``standard_normal`` takes what the serving ``lognormal`` takes, and with
    ``shadow_sigma_db`` 0 there is nothing to skip. So no array grows with
    ``trials``.

    The trials run in chunks of whole blocks (see :data:`BLOCK_ELEMENTS`):
    each chunk places its drops and computes its serving distances and
    signal powers as new arrays, then runs the interferer paths one block of
    rows at a time in one block's preallocated buffers, each block's signal
    divided by its interference plus noise in place, and takes the ratio to
    dB; it yields that chunk's SINRs, a new array. (Placement and serving
    paths per block, not per chunk, would add a numpy call per step and
    block; with ``jobs`` threads those calls hand the GIL back and forth.)
    Each path's distance is ``sqrt(dx^2 + dy^2 + dh^2)`` in km and its power
    in mW comes from :func:`_received_mw`; a trial's interference is numpy's
    ``sum`` of its paths' powers over the interferer axis (not a left fold;
    ``tests/reference_chains.py`` makes the same call), times
    ``network_load``, and its SINR is ``10 log10(signal / (interference +
    noise))`` with the noise floor in mW; with no rings the blocks hold no
    paths, and their interference 0.0 adds nothing to the noise. A signal
    below float range gives -inf.
    """
    isd = inter_site_distance_km(site_density)
    sites = interferer_positions(isd, params.interferer_rings)
    n = params.trials
    m = len(sites)
    rows = max(1, BLOCK_ELEMENTS // max(m, 1))
    chunk = min(rows * max(1, BLOCK_ELEMENTS // 4 // rows), n)  # whole blocks, up to a quarter of the elements
    rows = min(rows, n)
    path, scratch, total = np.empty((rows, m)), np.empty((rows, m)), np.empty(rows)

    rng = carrier_rng(params.seed, generation, carrier, site_density)
    tri_rng = copy.deepcopy(rng)
    for lo in range(0, n, chunk):
        rng.integers(0, 6, min(chunk, n - lo))
    u_rng, v_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    v_rng.bit_generator.advance(n)
    rng.bit_generator.advance(2 * n)
    serving_rng = copy.deepcopy(rng)
    if params.shadow_sigma_db != 0:
        for lo in range(0, n, chunk):
            rng.standard_normal(min(chunk, n - lo))

    dh_sq = ((params.tx_height_m - params.rx_height_m) / 1000.0) ** 2
    freq_term_db = 20.0 * np.log10(carrier.frequency_mhz)
    noise_mw = 10.0 ** (noise_floor(params, carrier.bandwidth_mhz * 1e6) / 10.0)
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        x, y = place_in_hexagon(tri_rng.integers(0, 6, k), u_rng.random(k), v_rng.random(k), isd / math.sqrt(3.0))
        sinr = np.sqrt(x * x + y * y + dh_sq)  # the serving distance, then its power, then the SINR
        _received_mw(sinr, shadow_fading_draws(serving_rng, params.shadow_mu_db, params.shadow_sigma_db, k), params,
                     freq_term_db, np.empty(k))
        for r0 in range(0, k, rows):
            r1 = min(r0 + rows, k)
            d, e, tot = path[:r1 - r0], scratch[:r1 - r0], total[:r1 - r0]
            np.subtract(x[r0:r1, None], sites[:, 0], out=d)
            d *= d
            np.subtract(y[r0:r1, None], sites[:, 1], out=e)
            e *= e
            d += e
            d += dh_sq
            np.sqrt(d, out=d)
            shadow = shadow_fading_draws(rng, params.shadow_mu_db, params.shadow_sigma_db, (r1 - r0, m))
            _received_mw(d, shadow, params, freq_term_db, e)
            del shadow  # freed before the next block's draw
            np.sum(d, axis=-1, out=tot)  # 0.0 with no rings
            tot *= params.network_load
            tot += noise_mw
            np.divide(sinr[r0:r1], tot, out=sinr[r0:r1])
        with np.errstate(divide="ignore"):
            np.log10(sinr, out=sinr)
        sinr *= 10.0
        yield sinr


def step_percentile(values: Sequence[float], counts: Sequence[int], q: float) -> float:
    """``np.percentile`` of the values, each taken as many times as its count, computed from the counts alone.

    ``values`` must be ascending and the counts must sum to at least 1. The
    bits are those of numpy's default linear method: of ``n`` values, the
    virtual index ``(n - 1) * (q / 100)`` has floor i and fraction t; with
    a the i-th smallest value and b the next one (the last, at the end),
    the result is ``b - (b - a) * (1 - t)`` if t >= 0.5, else ``a + (b -
    a) * t``.
    """
    ends = list(itertools.accumulate(counts))  # ends[j]: how many values are at steps 0..j
    n = ends[-1]
    virtual = (n - 1) * (q / 100.0)
    i = min(math.floor(virtual), n - 1)
    a, b = (values[bisect.bisect_right(ends, k)] for k in (i, min(i + 1, n - 1)))
    t = virtual - i
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def carrier_capacity(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    generation: Generation,
    carrier: Carrier,
    site_density: float,
) -> float:
    """One carrier's area capacity in Mbps/km^2 at ``site_density`` sites/km^2.

    Each block of :func:`sinr_blocks` adds its trials to a count per SE
    step: the step of an SINR is the number of table thresholds it meets,
    0 below the lowest (-inf included) and the top row above the highest
    (+inf included). A step's spectral efficiency is its row's
    single-stream value (0.0 at step 0) times the generation's
    :data:`MIMO_STREAMS` times ``params.mimo_efficiency``; the carrier is
    credited with the reliability-level percentile of those values over the
    trials (:func:`step_percentile`, from the counts) times bandwidth,
    sectors and density. Any nan SINR, or a noise floor, k T or shadow moment
    beyond float range, raises one :class:`ValidationError` naming the carrier and density.
    """
    rows = se_table.rows[generation]
    thresholds = np.array([r[0] for r in rows])
    counts = np.zeros(len(rows) + 1, dtype=np.int64)  # counts[i]: the trials whose SINR meets i thresholds
    out_of_range = ValidationError(f"{generation.value} carrier {carrier.frequency_mhz:g}x{carrier.bandwidth_mhz:g} "
                                   f"at {site_density:g} sites/km2: link budget out of float range")
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a nan SINR is checked below
            for sinr in sinr_blocks(params, generation, carrier, site_density):
                if np.isnan(sinr).any():
                    raise out_of_range
                counts += np.bincount(np.searchsorted(thresholds, sinr, side="right"), minlength=len(counts))
    except (ArithmeticError, ValueError):  # the noise floor overflows in mW, or k T or a shadow moment underflows to 0
        raise out_of_range from None
    steps = np.array([0.0, *(r[1] for r in rows)])
    steps *= MIMO_STREAMS[generation] * params.mimo_efficiency
    se_reliable = step_percentile(steps.tolist(), counts.tolist(), (1.0 - params.reliability) * 100.0)
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


def build_capacity_tables(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    freq_sets: Sequence[FrequencySet],
    density_grid: Sequence[float] = DEFAULT_DENSITY_GRID,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
) -> list[CapacityTable]:
    """One monotone capacity table per frequency set, in the sets' order.

    Sets with one :func:`table_cache_key` share a table. With a ``cache_dir``, each distinct key's ``<key>.csv``
    there is read at most once, used if :func:`_load_cached_table` trusts it, and written for each table built
    (the directory is made only then). The rest are built together: each distinct (generation, carrier, density)
    simulation they need runs once, in one pool of ``jobs`` threads, imported only when there is a simulation to
    run; the first failure stops the build. A set's column is its carriers' results summed as in :func:`simulate_density`, isotonically clipped.
    Logs one INFO line of the call's counts and of its seconds reading the cache and building. The grid must break no :func:`core.density_grid_rules`.
    """
    grid = list(density_grid)
    raise_broken(density_grid_rules(grid))
    cache = Path(cache_dir) if cache_dir is not None else None
    keys = [table_cache_key(params, se_table, fs, grid) for fs in freq_sets]
    distinct = dict(zip(keys, freq_sets))  # cache key -> its set, in first-lookup order
    paths = {key: cache / f"{key}.csv" for key in distinct} if cache is not None else {}
    start = time.perf_counter()
    found = {key: table for key, fs in distinct.items()
             if (table := _load_cached_table(paths.get(key), fs, grid)) is not None}
    misses = {key: fs for key, fs in distinct.items() if key not in found}
    plan = list(dict.fromkeys((fs.generation, c, d) for fs in misses.values() for d in grid for c in fs.carriers))
    read_s, start = time.perf_counter() - start, time.perf_counter()
    capacity = {}
    if plan:  # a warm run loads no thread pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            # map cancels the queued simulations when one raises
            capacity = dict(zip(plan, pool.map(lambda point: carrier_capacity(params, se_table, *point), plan)))
    built = {}
    for key, fs in misses.items():
        column = [ordered_sum(capacity[fs.generation, c, d] for c in fs.carriers) for d in grid]
        built[key] = CapacityTable(fs.generation, fs.label, tuple(zip(grid, isotonic_clip(column))))
    logger.info("capacity tables: %d lookups, %d distinct tables, %d read from cache, %d built, %d carrier-density "
                "pairs, %d simulations, cache reads %.3f s, builds %.3f s", len(keys), len(distinct), len(found),
                len(built), sum(len(fs.carriers) for fs in misses.values()) * len(grid), len(plan), read_s,
                time.perf_counter() - start)
    for key, table in built.items():
        if key in paths:
            save_capacity_tables([table], paths[key])
    tables = {**found, **built}
    return [tables[key] for key in keys]


def build_capacity_table(
    params: SimulationParams,
    se_table: SpectralEfficiencyTable,
    freq_set: FrequencySet,
    density_grid: Sequence[float] = DEFAULT_DENSITY_GRID,
    jobs: int = 1,
) -> CapacityTable:
    """The capacity table of one frequency set; see :func:`build_capacity_tables`."""
    return build_capacity_tables(params, se_table, [freq_set], density_grid, jobs)[0]


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
    """Write tables to CSV (``generation,freq_set,site_density,capacity_mbps_km2``) through :func:`data_io.write_files`.

    Lines end in ``\r\n``, as ``csv.writer`` ends them; the header is one chunk and each table's rows one more.
    """
    def chunks() -> Iterator[str]:
        yield ",".join(CAPACITY_TABLE_HEADER) + "\r\n"
        for table in tables:
            yield "".join(f"{table.generation.value},{table.freq_label},{d!r},{c!r}\r\n" for d, c in table.rows)

    write_files({Path(path): chunks()})


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


def _load_cached_table(path: Path | None, freq_set: FrequencySet, density_grid: Sequence[float]) -> CapacityTable | None:
    """The table cached at ``path``, or None: if there is none, or (with a warning) if it does not match its key."""
    if path is None or not path.is_file():
        return None
    try:
        loaded = load_capacity_tables(path)
    except (ValidationError, ValueError, csv.Error) as err:
        logger.warning("capacity table cache %s is unreadable (%s); rebuilding", path, err)
        return None
    expected = (freq_set.generation, freq_set.label, tuple(density_grid))
    if [(t.generation, t.freq_label, tuple(d for d, _ in t.rows)) for t in loaded] != [expected]:
        logger.warning("capacity table cache %s does not match its key; rebuilding", path)
        return None
    return loaded[0]
