import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bband_sim.core import Deciles, Generation, Settlement
from bband_sim.dimensioning import site_counts
from bband_sim.radio import CapacityTable
from test_radio import capacity_tables


def deciles(pop, area, existing, degenerate=None):
    """Rural deciles of the given populations, areas and existing sites; none degenerate by default."""
    return Deciles(population=tuple(pop), area_km2=tuple(area), existing_sites=tuple(existing),
                   settlement=(Settlement.RURAL,) * len(pop), degenerate=tuple(degenerate or [False] * len(pop)))


def decile(pop=10_000, area=100.0, existing=40):
    return deciles([pop], [area], [existing])


# densities 0.2..1.0 mapping linearly to 24..120 Mbps/km^2
TABLE = CapacityTable(
    Generation.G4, "800x10",
    tuple((d / 10, d * 12.0) for d in range(2, 11)),
)


def required_sites(d, demand, table):
    """:func:`site_counts` of one decile under one key, as a dict of Python values."""
    return {name: values.item() for name, values in site_counts([[demand]], [table], d).items()}


class TestRequiredSites:
    def test_ceiling_and_split(self):
        # demand 72 -> density 0.6; area 100 -> 60 sites, 40 existing
        req = required_sites(decile(existing=40), 72.0, TABLE)
        assert req["total_sites"] == 60
        assert req["new_sites"] == 20
        assert req["upgraded_sites"] == 40
        assert not req["unserviceable"]

    def test_fractional_site_rounds_up(self):
        # demand 72.48 -> density 0.604; area 100 -> 60.4 sites, so 61
        assert required_sites(decile(existing=0), 72.48, TABLE)["total_sites"] == 61

    def test_surplus_existing_clamped(self):
        req = required_sites(decile(existing=80), 72.0, TABLE)
        assert req["total_sites"] == 60
        assert req["new_sites"] == 0
        assert req["upgraded_sites"] == 60

    def test_zero_population(self):
        req = required_sites(decile(pop=0, existing=15), 0.0, TABLE)
        assert (req["total_sites"], req["new_sites"], req["upgraded_sites"]) == (0, 0, 0)

    def test_unserviceable_capped_at_max_density(self):
        req = required_sites(decile(existing=0), 500.0, TABLE)
        assert req["unserviceable"]
        assert req["total_sites"] == 100  # 1.0 sites/km^2 * 100 km^2

    def test_monotone_in_demand(self):
        d = decile()
        totals = [required_sites(d, demand, TABLE)["total_sites"] for demand in (0, 10, 30, 60, 90, 120)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_no_demolition(self):
        for demand in (0.0, 5.0, 50.0, 119.0):
            req = required_sites(decile(existing=70), demand, TABLE)
            assert req["new_sites"] >= 0
            assert req["existing_sites"] == 70

    def test_5g_needs_no_more_sites_than_4g(self):
        # 5G table dominates 4G capacity row-for-row
        t5 = CapacityTable(Generation.G5, "700x10", tuple((d, c * 3.0) for d, c in TABLE.rows))
        d = decile(existing=0)
        for demand in (10.0, 40.0, 80.0, 119.0):
            assert required_sites(d, demand, t5)["total_sites"] <= required_sites(d, demand, TABLE)["total_sites"]

    def test_each_key_uses_its_own_table(self):
        t5 = CapacityTable(Generation.G5, "700x10", tuple((d, c * 3.0) for d, c in TABLE.rows))
        got = site_counts([[72.0, 500.0], [72.0, 500.0]], [TABLE, t5], deciles([10_000] * 2, [100.0] * 2, [0, 10]))
        assert got["total_sites"].tolist() == [[60, 100], [20, 100]]
        assert got["unserviceable"].tolist() == [[False, True], [False, True]]
        assert got["existing_sites"].tolist() == [[0, 10], [0, 10]]


@st.composite
def site_blocks(draw):
    """A table and a (keys, deciles) demand block over deciles of any size, some empty."""
    table = draw(capacity_tables())
    n = draw(st.integers(1, 10))
    columns = []
    for _ in range(n):
        pop = draw(st.one_of(st.just(0), st.integers(1, 10_000_000)))
        area = draw(st.floats(1e-3, 1e4))
        existing = draw(st.integers(0, 100_000))
        degenerate = draw(st.booleans()) and pop == 0
        columns.append((pop, 0.0 if degenerate else area, existing, degenerate))
    fractions = st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n)
    demand = [[f * table.max_capacity for f in row] for row in draw(st.lists(fractions, min_size=1, max_size=4))]
    return table, deciles(*zip(*columns)), demand


class TestSiteCountsProperties:
    @settings(max_examples=300, deadline=None)
    @given(site_blocks())
    def test_split_invariants_and_unserviceable_flag(self, block):
        table, deciles, demand = block
        got = site_counts(demand, [table] * len(demand), deciles)
        total, existing = got["total_sites"], got["existing_sites"]
        assert (existing == deciles.existing_sites).all()
        assert (got["new_sites"] == np.maximum(0, total - existing)).all()
        assert (got["upgraded_sites"] == np.minimum(existing, total)).all()
        assert min(got[name].min() for name in ("total_sites", "existing_sites", "new_sites", "upgraded_sites")) >= 0
        empty = np.array(deciles.degenerate) | (np.array(deciles.population) == 0)
        assert (total[:, empty] == 0).all()
        assert (got["unserviceable"] == ((np.array(demand) > table.max_capacity) & ~empty)).all()

    @settings(max_examples=300, deadline=None)
    @given(capacity_tables(), st.lists(st.floats(0.0, 1.5), min_size=1, max_size=20), st.floats(1e-3, 1e4))
    def test_total_monotone_in_demand(self, table, fractions, area):
        demand = sorted({f * table.max_capacity for f in fractions} | {c for _, c in table.rows})
        d = decile(pop=1000, area=area, existing=0)
        totals = site_counts([[x] for x in demand], [table] * len(demand), d)["total_sites"][:, 0].tolist()
        assert totals == sorted(totals)
