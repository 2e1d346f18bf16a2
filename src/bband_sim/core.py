"""Shared domain model: regions, density deciles, strategy and scenario spaces,
and the numpy-free parameter types the input loader builds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, reduce
from operator import add, ge, gt, le, lt, ne
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import MissingDataError, ValidationError


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0, the same bits on every Python (``sum`` compensates from 3.12)."""
    return reduce(add, values, 0.0)


class Generation(str, Enum):
    """Radio access technology generation."""

    G4 = "4G"
    G5 = "5G"


class Backhaul(str, Enum):
    """Site-to-fiber-PoP connection type."""

    WIRELESS = "wireless"
    FIBER = "fiber"


class Sharing(str, Enum):
    """Infrastructure sharing business model."""

    BASELINE = "baseline"
    PASSIVE = "passive"
    ACTIVE = "active"
    SRN = "srn"


class Policy(str, Enum):
    """Fiscal policy variant (taxation and spectrum fee levels)."""

    BASELINE = "baseline"
    LOW_TAX = "low_tax"
    HIGH_TAX = "high_tax"
    LOW_SPECTRUM = "low_spectrum"
    HIGH_SPECTRUM = "high_spectrum"


class EnergyStrategy(str, Enum):
    """Off-grid power sourcing choice."""

    BASELINE = "baseline"
    RENEWABLES = "renewables"


class AdoptionScenario(str, Enum):
    LOW = "low"
    BASELINE = "baseline"
    HIGH = "high"


class Settlement(str, Enum):
    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


class IncomeGroup(str, Enum):
    LIC = "LIC"
    LMC = "LMC"
    UMC = "UMC"
    HIC = "HIC"


def raise_broken(messages: Iterable[str]) -> None:
    """Raise every message together as one :class:`ValidationError`, one ``arg`` each; return if there are none."""
    broken = list(messages)
    if broken:
        raise ValidationError(*broken)


#: The test of each bound ``op``: ``BOUND_OPS[op](value, limit)`` holds when ``value`` meets the bound.
BOUND_OPS = {">": gt, ">=": ge, "<": lt, "<=": le, "nonempty": ne}

#: The bound of a text that must not be empty.
NONEMPTY = ("nonempty", "")


def bounded(*bounds: tuple[str, object], **kwargs):
    """A dataclass field that declares its single-field input rules: each ``(op, limit)`` of ``bounds`` holds.

    This is each rule's one declaration: the CSV reader checks it on each cell of the field's column, and a
    :class:`SelfChecked` record when it is built, config records included. :class:`Regions` is not
    self-checking: all its values come from cells the reader checked. ``kwargs`` go to :func:`dataclasses.field`.
    """
    return field(metadata={"bounds": bounds}, **kwargs)


@cache
def declared_bounds(record: type) -> dict[str, tuple]:
    """The bounds each field of the dataclass ``record`` declares with :func:`bounded`."""
    return {f.name: f.metadata["bounds"] for f in fields(record) if "bounds" in f.metadata}


def broken_bound(column: str, value, bounds) -> str | None:
    """The one text of the first of ``bounds`` that ``value`` breaks, or None if it meets them all.

    The text is ``<column>: <value> must be <op> <limit>``, or ``<column> is empty``.
    """
    for op, limit in bounds:
        if not BOUND_OPS[op](value, limit):
            return f"{column} is empty" if op == "nonempty" else f"{column}: {value} must be {op} {limit}"
    return None


class SelfChecked:
    """Base of a record that rejects itself when built.

    Building the record raises every broken rule together (:func:`raise_broken`): first each field whose
    value breaks a bound it declares (:func:`bounded`), in field order, then each message of
    ``broken_rules()``, the rules across fields, in declaration order, skipping a rule meaningful only when
    an earlier, broken one holds.
    """

    def __post_init__(self):
        raise_broken(itertools.chain(self.bound_rules(), self.broken_rules()))

    def bound_rules(self) -> Iterator[str]:
        for name, bounds in declared_bounds(type(self)).items():
            message = broken_bound(name, getattr(self, name), bounds)
            if message:
                yield message

    def broken_rules(self) -> Iterable[str]:
        return ()


@dataclass(frozen=True)
class Regions:
    """One country's local statistical areas, one column per ``regions.csv`` field, in file order.

    Not self-checking: the input reader checks each cell against its field's bounds.
    """

    region_id: tuple[str, ...] = bounded(NONEMPTY)
    population: tuple[int, ...] = bounded((">=", 0))
    area_km2: tuple[float, ...] = bounded((">", 0))
    existing_sites: tuple[int, ...] = bounded((">=", 0))

    def __len__(self) -> int:
        return len(self.region_id)


#: Deciles per country: :func:`build_deciles` always returns this many.
N_DECILES = 10


@dataclass(frozen=True, kw_only=True)
class DecileRecord(SelfChecked):
    """One population-density decile of a country; its fields are keyword-only.

    Decile 1 holds the densest regions. A decile with no member regions
    (fewer than 10 regions in the country) is flagged ``degenerate`` and
    contributes nothing downstream.
    """

    country_iso3: str
    decile_index: int = bounded((">=", 1), ("<=", N_DECILES))
    population: int
    area_km2: float
    existing_sites: int
    settlement: Settlement
    degenerate: bool = False

    def broken_rules(self) -> Iterator[str]:
        if not self.degenerate and not (self.area_km2 > 0):
            yield "non-degenerate decile requires area_km2 > 0"

    @property
    def active(self) -> bool:
        """Populated and not degenerate: only an active decile has demand, revenue and sites."""
        return self.population > 0 and not self.degenerate


@dataclass(frozen=True)
class CountryParams(SelfChecked):
    """Country-level model inputs for the hypothetical operator."""

    country_iso3: str = bounded(NONEMPTY)
    income_group: IncomeGroup
    n_major_operators: int = bounded((">=", 1))
    spectrum_portfolio: tuple[tuple[Generation, Carrier], ...]  # in ``spectrum.csv`` order
    arpu_low: float = bounded((">=", 0))
    arpu_base: float = bounded((">=", 0))
    arpu_high: float = bounded((">=", 0))
    on_grid_share: float = bounded((">=", 0), ("<=", 1))
    grid_carbon_intensity_kg_kwh: float = bounded((">=", 0))

    def broken_rules(self) -> Iterator[str]:
        if any(c in self.country_iso3 for c in ',"\r\n'):  # the result CSVs write it unquoted
            yield f"{self.country_iso3!r}: country_iso3 must not contain a comma, a double quote or a line break"
        if not (self.arpu_low <= self.arpu_base <= self.arpu_high):
            yield f"{self.country_iso3}: ARPU tiers must be ordered low <= base <= high"

    @property
    def market_share(self) -> float:
        """Operator market share, one over the number of major operators."""
        return 1.0 / self.n_major_operators

    def frequency_set(self, generation: Generation) -> FrequencySet:
        """The carriers the country holds for ``generation``, in portfolio order."""
        carriers = tuple(c for g, c in self.spectrum_portfolio if g == generation)
        if not carriers:
            raise ValidationError(f"{self.country_iso3} has no {generation.value} spectrum")
        return FrequencySet(generation, carriers)


@dataclass(frozen=True)
class StrategyBundle:
    """One point in the strategy space."""

    generation: Generation
    backhaul: Backhaul
    sharing: Sharing
    policy: Policy
    energy_strategy: EnergyStrategy


@dataclass(frozen=True)
class ScenarioSpec(SelfChecked):
    """Capacity target and adoption scenario of one run; the run matrix's :class:`Horizon` is shared."""

    capacity_gb_month: float = bounded((">", 0))
    adoption: AdoptionScenario


@dataclass(frozen=True)
class Horizon(SelfChecked):
    """The assessment years, first and last inclusive, and the discount rate: one per run matrix."""

    start_year: int = 2023
    end_year: int = 2030
    discount_rate: float = bounded((">=", 0), default=0.05)

    def broken_rules(self) -> Iterator[str]:
        if self.end_year < self.start_year:
            yield f"end_year {self.end_year} before start_year {self.start_year}"

    @property
    def n_years(self) -> int:
        return self.end_year - self.start_year + 1

    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)


@dataclass(frozen=True)
class StrategySpace:
    """Axes of the strategy enumeration, in definition order."""

    generations: tuple[Generation, ...] = tuple(Generation)
    backhauls: tuple[Backhaul, ...] = tuple(Backhaul)
    sharings: tuple[Sharing, ...] = tuple(Sharing)
    policies: tuple[Policy, ...] = tuple(Policy)
    energy_strategies: tuple[EnergyStrategy, ...] = tuple(EnergyStrategy)


@dataclass(frozen=True)
class ScenarioSpace:
    """Axes of the scenario enumeration, and the one horizon every run of the matrix is assessed over."""

    capacities_gb_month: tuple[float, ...] = (20.0, 30.0, 40.0)
    adoptions: tuple[AdoptionScenario, ...] = tuple(AdoptionScenario)
    horizon: Horizon = Horizon()


class Axis(NamedTuple):
    """One axis of the run matrix."""

    name: str  # config key, result column, and StrategyBundle / ScenarioSpec field
    field: str  # StrategySpace / ScenarioSpace field holding its values
    kind: type  # the enum of its values, or float


#: The run-matrix axes in enumeration order: the StrategyBundle fields,
#: then the ScenarioSpec ones, each in field order.
AXES = (
    Axis("generation", "generations", Generation),
    Axis("backhaul", "backhauls", Backhaul),
    Axis("sharing", "sharings", Sharing),
    Axis("policy", "policies", Policy),
    Axis("energy_strategy", "energy_strategies", EnergyStrategy),
    Axis("capacity_gb_month", "capacities_gb_month", float),
    Axis("adoption", "adoptions", AdoptionScenario),
)


# Input parameter types: the loader (data_io) builds these from the config
# and CSVs. They hold no arrays, so loading inputs never imports numpy.

#: Density grid (sites/km^2) used when the config does not supply one.
DEFAULT_DENSITY_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


def density_stream_key(site_density: float) -> int:
    """The density's part of a radio RNG stream key: the density in 1e-6 sites/km^2, rounded."""
    return int(round(site_density * 1e6))


def density_grid_rules(grid: Sequence[float]) -> Iterator[str]:
    """The rules a capacity-table density grid breaks, one message each.

    A grid needs at least 8 site densities > 0, strictly increasing, each with
    its own RNG stream: points at least 1e-6 sites/km^2 apart, and from 0. A
    shorter grid is reported on that alone: it must be rewritten whatever its points.
    """
    if len(grid) < 8:
        yield "density grid needs at least 8 points"
        return
    if any(b <= a for a, b in zip(grid, grid[1:])):
        yield "density grid must be strictly increasing"
    stream_keys = [density_stream_key(d) for d in grid]
    if len(set(stream_keys)) < len(grid) or 0 in stream_keys:
        yield "density grid points closer than 1e-6 sites/km^2 (or to 0) share an RNG stream"
    if min(grid) <= 0:
        yield "density grid points must be > 0"


#: The most trials one simulation may run. A simulation's memory does not
#: grow with trials, so this bounds its time: about 2 minutes at two rings
#: on one core of a 2-core x86-64 host (1.1 s per million trials).
MAX_TRIALS = 10**8

#: The most interferer rings: ring k holds 6k sites, so 100 rings are
#: 30,300 interferer paths per trial.
MAX_INTERFERER_RINGS = 100


@dataclass(frozen=True)
class SimulationParams(SelfChecked):
    """Link budget and Monte Carlo controls for the radio simulation."""

    tx_power_dbm: float = 40.0
    tx_gain_db: float = 16.0
    tx_losses_db: float = 1.0
    rx_gain_db: float = 0.0
    rx_losses_db: float = 4.0
    rx_misc_losses_db: float = 4.0
    tx_height_m: float = 30.0
    rx_height_m: float = 1.5
    sectors_per_site: int = bounded((">=", 1), default=3)
    network_load: float = bounded((">=", 0), ("<=", 1), default=1.0)
    los_breakpoint_m: float = 500.0
    shadow_mu_db: float = 2.0
    shadow_sigma_db: float = bounded((">=", 0), default=10.0)
    temperature_k: float = bounded((">", 0), default=290.0)
    noise_figure_db: float = 1.5
    nlos_excess_db: float = 12.0
    min_distance_m: float = 10.0
    reliability: float = bounded((">", 0), ("<", 1), default=0.90)
    trials: int = bounded((">=", 100), ("<=", MAX_TRIALS), default=10_000)
    seed: int = bounded((">=", 0), default=42)
    interferer_rings: int = bounded((">=", 0), ("<=", MAX_INTERFERER_RINGS), default=1)
    mimo_efficiency: float = bounded((">", 0), ("<=", 1), default=0.85)

    def broken_rules(self) -> Iterator[str]:
        if self.shadow_sigma_db > 0 and self.shadow_mu_db <= 0:
            yield "shadow_mu_db must be > 0 when shadow_sigma_db > 0"


@dataclass(frozen=True)
class Carrier(SelfChecked):
    """One frequency carrier: centre frequency and downlink bandwidth."""

    frequency_mhz: float = bounded((">", 0))
    bandwidth_mhz: float = bounded((">", 0))


def carrier_stream_key(carrier: Carrier) -> tuple[int, int]:
    """The carrier's part of a radio RNG stream key: frequency and bandwidth in kHz, rounded."""
    return int(round(carrier.frequency_mhz * 1000.0)), int(round(carrier.bandwidth_mhz * 1000.0))


@dataclass(frozen=True)
class FrequencySet(SelfChecked):
    """The carriers a generation deploys, e.g. 4G on 800+1800+2500 MHz."""

    generation: Generation
    carriers: tuple[Carrier, ...]

    def broken_rules(self) -> Iterator[str]:
        if not self.carriers:
            yield "frequency set needs at least one carrier"
        keys = [carrier_stream_key(c) for c in self.carriers]
        for i, key in enumerate(keys):
            j = keys.index(key)
            if j < i:
                a, b = self.carriers[j], self.carriers[i]
                yield (
                    f"carriers [{a.frequency_mhz!r}, {a.bandwidth_mhz!r}] and [{b.frequency_mhz!r}, "
                    f"{b.bandwidth_mhz!r}] are equal to 1 kHz, so they would share an RNG stream"
                )

    @property
    def label(self) -> str:
        return "+".join(f"{c.frequency_mhz:g}x{c.bandwidth_mhz:g}" for c in self.carriers)

    @property
    def total_bandwidth_mhz(self) -> float:
        return ordered_sum(c.bandwidth_mhz for c in self.carriers)


# Spatial multiplexing streams per generation (2x2 vs 4x4 antennas).
MIMO_STREAMS = {Generation.G4: 2, Generation.G5: 4}

BOLTZMANN_J_PER_K = 1.380649e-23


def noise_floor(params: SimulationParams, bw_hz: float) -> float:
    """Thermal noise power in dBm over ``bw_hz``, including the UE noise figure."""
    if bw_hz <= 0:
        raise ValidationError("bw_hz must be > 0")
    return (
        10.0 * math.log10(BOLTZMANN_J_PER_K * params.temperature_k * 1000.0)
        + params.noise_figure_db
        + 10.0 * math.log10(bw_hz)
    )


def _mw(dbm: float) -> float:
    """``10 ** (dbm / 10)``, a power in dBm in mW: inf where that overflows."""
    try:
        return 10.0 ** (dbm / 10.0)
    except OverflowError:
        return math.inf


def shadow_lognormal(mu_db: float, sigma_db: float) -> tuple[float, float]:
    """The moment-matched ``(mu, sigma)`` of the normal whose lognormal has mean ``mu_db`` and deviation ``sigma_db``;
    a square beyond float range makes one infinite, or raises ``ValueError`` or ``ZeroDivisionError``."""
    ratio = sigma_db / mu_db
    sigma_ln = math.sqrt(math.log(1.0 + ratio * ratio))
    mu_ln = math.log(mu_db * mu_db / math.sqrt(mu_db * mu_db + sigma_db * sigma_db))
    return mu_ln, sigma_ln


def link_budget_rules(params: SimulationParams, carriers: Iterable[Carrier]) -> Iterator[str]:
    """The link budget's float ranges that simulations of ``carriers`` need, checked without numpy.

    The largest power a path can deliver, at the nearest distance a path
    can have (``min_distance_m``, or the antenna height difference if
    larger), with the smallest shadow (0 with fading, else
    ``shadow_mu_db``) and NLoS term (``min(0, nlos_excess_db)``), times a
    trial's paths (the serving one and every interferer), and the noise
    floor, must each be finite and nonzero in mW. Each rule broken on some
    carrier is one message, naming the first such carrier; so is a fading
    shadow whose :func:`shadow_lognormal` is not finite. A simulation outside
    these ranges fails as a nan SINR does, or reads all signals as 0 or +inf.
    """
    carriers = list(carriers)
    paths = 1 + 3 * params.interferer_rings * (params.interferer_rings + 1)
    nearest_km = max(params.min_distance_m, abs(params.tx_height_m - params.rx_height_m)) / 1000.0
    near_db = 20.0 * math.log10(nearest_km) if nearest_km > 0 else -math.inf
    shadow_db = params.shadow_mu_db if params.shadow_sigma_db == 0 else 0.0
    for c in carriers:
        loss = near_db + 20.0 * math.log10(c.frequency_mhz) + 32.44 + min(0.0, params.nlos_excess_db)
        dbm = (params.tx_power_dbm + params.tx_gain_db - params.tx_losses_db - loss - shadow_db
               + params.rx_gain_db - params.rx_losses_db - params.rx_misc_losses_db)
        if not 0 < _mw(dbm) * paths < math.inf:
            yield (f"the largest received power, {dbm:.6g} dBm on each of a trial's {paths} paths at "
                   f"{c.frequency_mhz:g} MHz, is out of float range in mW")
            break
    for c in carriers:
        try:
            dbm = noise_floor(params, c.bandwidth_mhz * 1e6)
        except ValueError:  # k T is below float range
            dbm = -math.inf
        if not 0 < _mw(dbm) < math.inf:
            yield f"the noise floor over {c.bandwidth_mhz:g} MHz, {dbm:.6g} dBm, is out of float range in mW"
            break
    try:
        normal = shadow_lognormal(params.shadow_mu_db, params.shadow_sigma_db) if params.shadow_sigma_db > 0 else ()
    except (ValueError, ZeroDivisionError):  # a square below float range
        normal = (math.nan,)
    if not all(map(math.isfinite, normal)):
        yield (f"the shadow fading's lognormal, {params.shadow_mu_db:.6g} dB mean and "
               f"{params.shadow_sigma_db:.6g} dB deviation, is out of float range")


@dataclass(frozen=True)
class SpectralEfficiencyTable(SelfChecked):
    """Step lookup from SINR to spectral efficiency, per generation.

    ``rows`` maps generation to ordered ``(min_sinr_db, se_bps_hz)`` pairs,
    strictly increasing in both columns. Lookup picks the largest row whose
    threshold the SINR meets; below the lowest row means no service. The
    values are single-stream: :func:`radio.carrier_capacity` scales them by
    the generation's :data:`MIMO_STREAMS` times
    :attr:`SimulationParams.mimo_efficiency`.
    """

    rows: Mapping[Generation, tuple[tuple[float, float], ...]]

    #: The one declaration of the bound on every row's ``se_bps_hz``, which the CSV reader checks too.
    SE_BPS_HZ_BOUNDS = ((">", 0),)

    def broken_rules(self) -> Iterator[str]:
        for gen, rows in self.rows.items():
            if not rows:
                yield f"SE table for {gen.value} is empty"
            sinrs = [r[0] for r in rows]
            ses = [r[1] for r in rows]
            if any(b <= a for a, b in zip(sinrs, sinrs[1:])):
                yield f"SE table for {gen.value}: min_sinr_db not strictly increasing"
            if any(b <= a for a, b in zip(ses, ses[1:])):
                yield f"SE table for {gen.value}: se_bps_hz not strictly increasing"
            for se in ses:
                message = broken_bound("se_bps_hz", se, self.SE_BPS_HZ_BOUNDS)
                if message:
                    yield message


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

#: The one declaration of the bound on each adoption growth rate: below -1, demand would change sign.
ADOPTION_CAGR_BOUNDS = ((">=", -1),)


@dataclass(frozen=True)
class AdoptionParams(SelfChecked):
    """Base penetration levels and growth rates driving user projections."""

    base_cell_penetration: float = 0.55
    smartphone_penetration_urban: float = 0.65
    smartphone_penetration_rural: float = 0.40
    penetration_cap: float = 1.0
    cagr_by_income: dict[IncomeGroup, dict[AdoptionScenario, float]] = field(
        default_factory=lambda: DEFAULT_ADOPTION_CAGR)

    def broken_rules(self) -> Iterator[str]:
        if not (self.penetration_cap > 0):
            yield "penetration_cap must be > 0"
            return  # the base shares are bounded by the cap
        for name in ("base_cell_penetration", "smartphone_penetration_urban", "smartphone_penetration_rural"):
            value = getattr(self, name)
            if not (0 <= value <= self.penetration_cap):
                yield f"{name} {value} outside [0, cap]"

    def cagr(self, income: IncomeGroup, scenario: AdoptionScenario) -> float:
        return self.cagr_by_income[income][scenario]

    def smartphone_base(self, settlement: Settlement) -> float:
        # Suburban areas track the urban smartphone level; only rural differs.
        if settlement == Settlement.RURAL:
            return self.smartphone_penetration_rural
        return self.smartphone_penetration_urban


@dataclass(frozen=True)
class CostInputs(SelfChecked):
    """Unit costs and fiscal coefficients. All money in USD.

    These are artifact configuration with documented defaults, not
    published prices; override them from the cost section of the config.
    The spectrum fee is ``coefficient x MHz held x decile population``.
    """

    #: A config section of these costs gives every field or none, so that no set of prices mixes with the defaults.
    ALL_OR_NONE = True

    equipment_usd: float = bounded((">=", 0), default=40_000.0)
    backhaul_wireless_usd: float = bounded((">=", 0), default=20_000.0)
    backhaul_fiber_usd: float = bounded((">=", 0), default=40_000.0)
    civils_usd: float = bounded((">=", 0), default=30_000.0)
    core_usd: float = bounded((">=", 0), default=10_000.0)
    admin_share: float = bounded((">=", 0), default=0.10)
    profit_margin: float = bounded((">=", 0), default=0.20)
    tax_rate_low: float = bounded((">=", 0), default=0.10)
    tax_rate_baseline: float = 0.25
    tax_rate_high: float = 0.40
    spectrum_coef_low_usd_mhz_pop: float = bounded((">=", 0), default=0.005)
    spectrum_coef_baseline_usd_mhz_pop: float = 0.01
    spectrum_coef_high_usd_mhz_pop: float = 0.02

    def broken_rules(self) -> Iterator[str]:
        if not (self.tax_rate_low <= self.tax_rate_baseline <= self.tax_rate_high):
            yield "tax rates must be ordered low <= baseline <= high"
        if not (
            self.spectrum_coef_low_usd_mhz_pop
            <= self.spectrum_coef_baseline_usd_mhz_pop
            <= self.spectrum_coef_high_usd_mhz_pop
        ):
            yield "spectrum coefficients must be ordered low <= baseline <= high"

    def backhaul_unit_cost(self, backhaul: Backhaul) -> float:
        if backhaul == Backhaul.FIBER:
            return self.backhaul_fiber_usd
        return self.backhaul_wireless_usd

    def tax_rate(self, policy: Policy) -> float:
        if policy == Policy.LOW_TAX:
            return self.tax_rate_low
        if policy == Policy.HIGH_TAX:
            return self.tax_rate_high
        return self.tax_rate_baseline

    def spectrum_coef(self, policy: Policy) -> float:
        if policy == Policy.LOW_SPECTRUM:
            return self.spectrum_coef_low_usd_mhz_pop
        if policy == Policy.HIGH_SPECTRUM:
            return self.spectrum_coef_high_usd_mhz_pop
        return self.spectrum_coef_baseline_usd_mhz_pop


#: Grid generation sources recognised in the energy mix input.
MIX_SOURCES = ("coal", "gas", "oil", "nuclear", "hydro", "renewables_other")

#: Sources whose operational emissions are treated as negligible.
ZERO_EMISSION_SOURCES = ("nuclear", "hydro", "renewables_other")

DIESEL_SOURCE = "diesel"

MIX_SUM_TOLERANCE = 1e-6

#: The one declaration of the bound on each ``energy_mix.csv`` share.
MIX_SHARE_BOUNDS = ((">=", 0),)


@dataclass(frozen=True)
class EnergyParams(SelfChecked):
    """Hourly electricity draw per site, plus the backhaul adder."""

    site_kwh_per_hour: float = bounded((">", 0), default=0.249)
    # adders of zero are allowed so a bare site can be modeled
    backhaul_wireless_kwh_per_hour: float = bounded((">=", 0), default=0.025)
    backhaul_fiber_kwh_per_hour: float = bounded((">=", 0), default=0.010)

    def backhaul_kwh_per_hour(self, backhaul: Backhaul) -> float:
        if backhaul == Backhaul.FIBER:
            return self.backhaul_fiber_kwh_per_hour
        return self.backhaul_wireless_kwh_per_hour


@dataclass(frozen=True)
class FactorRow(SelfChecked):
    """Per-kWh emission factors for one generation source."""

    co2_kg_kwh: float = bounded((">=", 0))
    nox_g_kwh: float = bounded((">=", 0))
    sox_g_kwh: float = bounded((">=", 0))
    pm10_g_kwh: float = bounded((">=", 0))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.co2_kg_kwh, self.nox_g_kwh, self.sox_g_kwh, self.pm10_g_kwh)


@dataclass(frozen=True)
class EmissionFactors(SelfChecked):
    """Emission factors per grid source plus the off-grid diesel generator row."""

    by_source: Mapping[str, FactorRow]

    def broken_rules(self) -> Iterator[str]:
        missing = [s for s in (*MIX_SOURCES, DIESEL_SOURCE) if s not in self.by_source]
        if missing:
            yield f"emission factors missing sources: {missing}"
            return  # the zero-emission rows may be among them
        for source in ZERO_EMISSION_SOURCES:
            row = self.by_source[source]
            if (row.co2_kg_kwh, row.nox_g_kwh, row.sox_g_kwh, row.pm10_g_kwh) != (0, 0, 0, 0):
                yield f"{source}: operational emission factors must be zero"

    @property
    def diesel(self) -> FactorRow:
        return self.by_source[DIESEL_SOURCE]


@dataclass(frozen=True)
class SettlementThresholds(SelfChecked):
    """Density cutoffs (persons/km^2) at and above which a decile counts as urban / suburban.

    Config-overridable; there is no universal definition.
    """

    urban_min_density: float = 1500.0
    suburban_min_density: float = bounded((">", 0), default=300.0)

    def broken_rules(self) -> Iterator[str]:
        if not self.urban_min_density > self.suburban_min_density:
            yield (f"urban_min_density {self.urban_min_density} must be > suburban_min_density "
                   f"{self.suburban_min_density}")


def classify_settlement(density: float, thresholds: SettlementThresholds = SettlementThresholds()) -> Settlement:
    """Map a population density (persons/km^2) to urban / suburban / rural.

    Both boundaries are inclusive on the denser side.
    """
    if not math.isfinite(density) or density < 0:
        raise ValidationError(f"pop_density {density!r} is not a finite non-negative number")
    if density >= thresholds.urban_min_density:
        return Settlement.URBAN
    if density >= thresholds.suburban_min_density:
        return Settlement.SUBURBAN
    return Settlement.RURAL


def build_deciles(
    regions: Regions,
    country_iso3: str,
    thresholds: SettlementThresholds = SettlementThresholds(),
) -> list[DecileRecord]:
    """Partition a country's regions into 10 population-density deciles.

    Regions are sorted by descending density (ties broken by ascending
    region_id) and split into 10 contiguous bins of equal region count;
    with ``n = 10q + r`` regions the first ``r`` bins take one extra
    region. Population and site totals are exact integer sums, so they
    are conserved exactly; area is the left-to-right float sum of the
    bin's regions in sorted order. Empty bins (fewer than 10 regions)
    come back degenerate and rural, with zero population, area and sites.
    The region ids are unique and the columns within their bounds: the
    input reader checks both.
    """
    if not regions:
        raise MissingDataError(f"{country_iso3}: no regions supplied")
    ids, pops, areas, sites = regions.region_id, regions.population, regions.area_km2, regions.existing_sites
    ordered = sorted(range(len(regions)), key=lambda i: (-(pops[i] / areas[i]), ids[i]))
    q, rem = divmod(len(ordered), N_DECILES)
    sizes = [q + 1] * rem + [q] * (N_DECILES - rem)

    deciles: list[DecileRecord] = []
    start = 0
    for idx, size in enumerate(sizes, start=1):
        members = ordered[start:start + size]
        start += size
        population = sum(pops[i] for i in members)
        area = ordered_sum(areas[i] for i in members)
        density = population / area if members else 0.0  # an empty bin classifies as rural
        deciles.append(DecileRecord(
            country_iso3=country_iso3,
            decile_index=idx,
            population=population,
            area_km2=area,
            existing_sites=sum(sites[i] for i in members),
            settlement=classify_settlement(density, thresholds),
            degenerate=not members,
        ))
    return deciles


#: The axes each keyed result stage depends on, by :data:`AXES` name, in :data:`AXES` order: a stage is
#: computed once per distinct value of its axes, and every run with that value shares it.
STAGE_AXES = {
    "sites": ("generation", "capacity_gb_month", "adoption"),  # demand and revenue depend on the last two only
    "cost": ("generation", "backhaul", "sharing", "policy", "capacity_gb_month", "adoption"),
    "energy": ("generation", "backhaul", "sharing", "energy_strategy", "capacity_gb_month", "adoption"),
}


def enumerate_runs(
    strategy_space: StrategySpace,
    scenario_space: ScenarioSpace,
) -> list[tuple[StrategyBundle, ScenarioSpec]]:
    """Cartesian product of the spaces' :data:`AXES`, in table and space order: the last axis varies fastest."""
    spaces = {**vars(strategy_space), **vars(scenario_space)}
    for axis in AXES:
        if not spaces[axis.field]:
            raise ValidationError(f"axis {axis.field} is empty")
    n = len(fields(StrategyBundle))
    return [
        (StrategyBundle(*point[:n]), ScenarioSpec(*point[n:]))
        for point in itertools.product(*(spaces[axis.field] for axis in AXES))
    ]


def run_key(strategy: StrategyBundle, scenario: ScenarioSpec) -> tuple:
    """The value of each of :data:`AXES` for one run: enum values as text, capacity as it is."""
    values = {**vars(strategy), **vars(scenario)}
    return tuple(values[a.name] if a.kind is float else values[a.name].value for a in AXES)
