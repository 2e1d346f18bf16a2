import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bband_sim.core import (
    AdoptionScenario,
    DecileRecord,
    Regions,
    ScenarioSpace,
    Settlement,
    SettlementThresholds,
    SimulationParams,
    StrategySpace,
    build_deciles,
    classify_settlement,
    enumerate_runs,
)
from bband_sim.errors import MissingDataError, ValidationError


class Region(NamedTuple):
    """One ``regions.csv`` row of a test country."""

    region_id: str
    population: int
    area_km2: float
    existing_sites: int

    @property
    def pop_density(self) -> float:
        return self.population / self.area_km2


def region(idx, pop, area, sites=0):
    return Region(f"R{idx:03d}", pop, area, sites)


def columns(regions) -> Regions:
    """The rows ``regions`` as one country's columns, in the given order."""
    return Regions(*(tuple(r[i] for r in regions) for i in range(len(Region._fields))))


def rows(regions: Regions) -> list[Region]:
    """One country's columns as rows, in column order."""
    return [Region(*row) for row in zip(*vars(regions).values())]


class TestBuildDeciles:
    def test_twenty_regions_two_each(self):
        regions = [region(i, pop=1000 * (20 - i), area=1.0) for i in range(20)]
        deciles = build_deciles(columns(regions), "AAA")
        assert len(deciles) == 10
        assert all(not d.degenerate for d in deciles)
        # decile 1 holds the two densest regions (R000, R001)
        assert deciles[0].population == 20000 + 19000
        assert deciles[0].decile_index == 1

    def test_single_region_rest_degenerate(self):
        deciles = build_deciles(columns([region(0, 5000, 10.0, sites=3)]), "AAA")
        assert deciles[0].population == 5000
        assert deciles[0].existing_sites == 3
        for d in deciles[1:]:
            assert d.degenerate
            assert d.population == 0 and d.area_km2 == 0.0

    def test_remainder_rule_23_regions(self):
        regions = [region(i, pop=100 * (23 - i), area=1.0) for i in range(23)]
        deciles = build_deciles(columns(regions), "AAA")
        sizes = []
        # recover bin sizes from population sums (each region has distinct pop)
        pops = sorted((r.population for r in regions), reverse=True)
        cursor = 0
        for d in deciles:
            size = 0
            total = 0
            while total < d.population:
                total += pops[cursor]
                cursor += 1
                size += 1
            sizes.append(size)
        assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_conservation_and_ordering(self):
        rng = np.random.default_rng(7)
        regions = [
            region(i, pop=int(rng.integers(0, 500_000)), area=float(rng.uniform(1, 5000)), sites=int(rng.integers(0, 300)))
            for i in range(37)
        ]
        deciles = build_deciles(columns(regions), "AAA")
        assert sum(d.population for d in deciles) == sum(r.population for r in regions)
        assert sum(d.existing_sites for d in deciles) == sum(r.existing_sites for r in regions)
        assert sum(d.area_km2 for d in deciles) == pytest.approx(sum(r.area_km2 for r in regions), rel=1e-12)
        densities = [d.population / d.area_km2 for d in deciles if not d.degenerate]
        assert all(a >= b for a, b in zip(densities, densities[1:]))

    def test_area_is_the_left_to_right_sum(self):
        # decile 1 holds the three densest regions, the 1e16 km2 one first;
        # 1e16 + 1.0 rounds back to 1e16, where a compensated sum (the
        # builtin sum from Python 3.12 on) would give 1e16 + 2
        regions = [region(0, 10**23, 1e16), region(1, 10**6, 1.0), region(2, 10**6 - 1, 1.0)]
        regions += [region(i, 1, 1000.0) for i in range(3, 30)]
        assert build_deciles(columns(regions), "AAA")[0].area_km2 == 1e16

    def test_density_tie_broken_by_region_id(self):
        regions = [region(i, pop=100, area=1.0) for i in range(10)]
        deciles = build_deciles(columns(regions), "AAA")
        assert [d.population for d in deciles] == [100] * 10

    def test_empty_is_missing_data(self):
        with pytest.raises(MissingDataError):
            build_deciles(columns([]), "AAA")


@st.composite
def country_regions(draw):
    """The columns of 1-40 regions of one country; region i holds 2**i
    existing sites, so a decile's site count names its member regions."""
    n = draw(st.integers(1, 40))
    areas = st.one_of(st.floats(1e-3, 1e7), st.sampled_from([1.0, 1e16]))
    return columns([region(i, draw(st.one_of(st.just(0), st.integers(0, 10**7))), draw(areas), sites=2**i)
                    for i in range(n)])


class TestDecileConservation:
    @settings(max_examples=300, deadline=None)
    @given(country_regions())
    def test_partition_conserves_population_sites_and_area(self, regions):
        deciles = build_deciles(regions, "AAA")
        regions = rows(regions)
        assert [d.decile_index for d in deciles] == list(range(1, 11))
        members = [[r for r in regions if d.existing_sites >> int(r.region_id[1:]) & 1] for d in deciles]
        # every region lands in exactly one decile
        assert sorted(r.region_id for m in members for r in m) == sorted(r.region_id for r in regions)
        assert sum(d.existing_sites for d in deciles) == sum(r.existing_sites for r in regions)
        assert sum(d.population for d in deciles) == sum(r.population for r in regions)
        # contiguous bins of the density order, larger bins first
        ordered = sorted(regions, key=lambda r: (-r.pop_density, r.region_id))
        assert [r for m in members for r in sorted(m, key=ordered.index)] == ordered
        sizes = [len(m) for m in members]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        for d, m in zip(deciles, members):
            assert d.population == sum(r.population for r in m)
            area = 0.0
            for r in sorted(m, key=ordered.index):
                area += r.area_km2
            assert d.area_km2 == area
            assert d.degenerate == (not m)
            if not m:
                assert (d.population, d.area_km2, d.existing_sites) == (0, 0.0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 25), st.sampled_from([SettlementThresholds(), SettlementThresholds(1e-3, 1e-6)]))
    def test_empty_bins_come_last_rural_and_zero(self, n, thresholds):
        deciles = build_deciles(columns([region(i, i + 1, 1.0, sites=1) for i in range(n)]), "AAA", thresholds)
        filled = min(n, 10)
        assert [d.degenerate for d in deciles] == [False] * filled + [True] * (10 - filled)
        for d in deciles[filled:]:
            fields = (d.population, d.area_km2, d.existing_sites, d.settlement)
            assert fields == (0, 0.0, 0, Settlement.RURAL)
            assert [type(v) for v in fields[:3]] == [int, float, int]
        # filled bins hold 1-25 persons/km^2: all rural, or all urban under the low thresholds
        want = Settlement.URBAN if thresholds.urban_min_density < 1 else Settlement.RURAL
        assert all(d.settlement == want for d in deciles[:filled])

    @settings(max_examples=300, deadline=None)
    @given(country_regions(), st.randoms(use_true_random=False))
    def test_any_region_order_gives_the_same_deciles(self, regions, random):
        shuffled = columns(random.sample(rows(regions), len(regions)))
        # repr writes every float exactly: equal texts are equal bits
        assert repr(build_deciles(shuffled, "AAA")) == repr(build_deciles(regions, "AAA"))


class TestDecileRecord:
    def test_fields_are_keyword_only(self):
        # positionally, a stored density would have shifted into ``settlement`` without an error
        with pytest.raises(TypeError):
            DecileRecord("AAA", 1, 1, 1.0, 0, 1.0, Settlement.RURAL)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**12), st.floats(1e-6, 1e9))
    def test_pop_density_is_population_over_area(self, population, area):
        # an urban cutoff at population / area, and one ulp above it, tells the decile's density to the bit
        density = population / area
        deciles = [build_deciles(columns([region(0, population, area)]), "AAA", SettlementThresholds(cut, density / 2))
                   for cut in (density, math.nextafter(density, math.inf))]
        assert [d[0].settlement for d in deciles] == [Settlement.URBAN, Settlement.SUBURBAN]

    def test_degenerate_density_is_zero(self):
        # one region of 1 person/km^2 is urban under these thresholds; an empty bin classifies at density 0.0
        low = SettlementThresholds(1e-3, 1e-6)
        deciles = build_deciles(columns([region(0, 1, 1.0)]), "AAA", low)
        assert deciles[0].settlement == Settlement.URBAN
        assert all(d.degenerate and d.settlement == classify_settlement(0.0, low) for d in deciles[1:])


#: The SimulationParams rules that break independently of each other, in
#: the order they are reported: the field bounds in field order, then the
#: rules across fields. (field, values that break the rule, message of a value).
SIMULATION_RULES = (
    ("sectors_per_site", st.integers(max_value=0), "sectors_per_site: {} must be >= 1".format),
    ("network_load", st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0, exclude_min=True),
     lambda v: f"network_load: {v} must be " + (">= 0" if v < 0 else "<= 1")),
    ("shadow_sigma_db", st.floats(max_value=0.0, exclude_max=True), "shadow_sigma_db: {} must be >= 0".format),
    ("temperature_k", st.floats(max_value=0.0), "temperature_k: {} must be > 0".format),
    ("reliability", st.floats(max_value=0.0) | st.floats(min_value=1.0),
     lambda v: f"reliability: {v} must be " + ("> 0" if v <= 0 else "< 1")),
    ("trials", st.integers(max_value=99) | st.integers(min_value=10**8 + 1),
     lambda v: f"trials: {v} must be " + (">= 100" if v < 100 else "<= 100000000")),
    ("seed", st.integers(max_value=-1), "seed: {} must be >= 0".format),
    ("interferer_rings", st.integers(max_value=-1) | st.integers(min_value=101),
     lambda v: f"interferer_rings: {v} must be " + (">= 0" if v < 0 else "<= 100")),
    ("mimo_efficiency", st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
     lambda v: f"mimo_efficiency: {v} must be " + ("> 0" if v <= 0 else "<= 1")),
    ("shadow_mu_db", st.floats(max_value=0.0), lambda v: "shadow_mu_db must be > 0 when shadow_sigma_db > 0"),
)


class TestSelfChecked:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_broken_rule_is_raised_in_declaration_order(self, data):
        broken = sorted(data.draw(st.sets(st.integers(0, len(SIMULATION_RULES) - 1))))
        values = {SIMULATION_RULES[i][0]: data.draw(SIMULATION_RULES[i][1]) for i in broken}
        if values.get("shadow_sigma_db", 1.0) <= 0:  # the shadow mean matters only with fading
            broken = [i for i in broken if SIMULATION_RULES[i][0] != "shadow_mu_db"]
        if not broken:
            SimulationParams(**values)
            return
        with pytest.raises(ValidationError) as err:
            SimulationParams(**values)
        assert err.value.args == tuple(SIMULATION_RULES[i][2](values[SIMULATION_RULES[i][0]]) for i in broken)
        assert str(err.value) == "; ".join(err.value.args)


class TestClassifySettlement:
    def test_urban(self):
        assert classify_settlement(2000.0) == Settlement.URBAN

    def test_suburban_boundary_inclusive(self):
        assert classify_settlement(300.0) == Settlement.SUBURBAN
        assert classify_settlement(1500.0) == Settlement.URBAN

    def test_zero_density_is_rural(self):
        assert classify_settlement(0.0) == Settlement.RURAL

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError):
                classify_settlement(bad)

    def test_monotone_in_density(self):
        order = {Settlement.RURAL: 0, Settlement.SUBURBAN: 1, Settlement.URBAN: 2}
        grid = np.linspace(0, 3000, 601)
        classes = [order[classify_settlement(float(d))] for d in grid]
        assert all(b >= a for a, b in zip(classes, classes[1:]))


class TestEnumerateRuns:
    def test_full_axes_count(self):
        runs = enumerate_runs(StrategySpace(), ScenarioSpace())
        assert len(runs) == 1440
        assert len(set(runs)) == 1440  # bijection onto the product

    def test_order_stable(self):
        a = enumerate_runs(StrategySpace(), ScenarioSpace())
        b = enumerate_runs(StrategySpace(), ScenarioSpace())
        assert a == b

    def test_singletons(self):
        space = StrategySpace(
            generations=StrategySpace().generations[:1],
            backhauls=StrategySpace().backhauls[:1],
            sharings=StrategySpace().sharings[:1],
            policies=StrategySpace().policies[:1],
            energy_strategies=StrategySpace().energy_strategies[:1],
        )
        scen = ScenarioSpace(capacities_gb_month=(30.0,), adoptions=(AdoptionScenario.BASELINE,))
        assert len(enumerate_runs(space, scen)) == 1

    def test_two_by_two(self):
        space = StrategySpace(
            backhauls=StrategySpace().backhauls[:1],
            sharings=StrategySpace().sharings[:1],
            policies=StrategySpace().policies[:1],
            energy_strategies=StrategySpace().energy_strategies[:1],
        )
        scen = ScenarioSpace(capacities_gb_month=(20.0, 30.0), adoptions=(AdoptionScenario.BASELINE,))
        runs = enumerate_runs(space, scen)
        assert len(runs) == 4
        assert runs == enumerate_runs(space, scen)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            enumerate_runs(StrategySpace(generations=()), ScenarioSpace())
