import pytest

from bband_sim.core import DecileRecord, Generation, Settlement
from bband_sim.dimensioning import SiteRequirement, required_sites
from bband_sim.errors import ValidationError
from bband_sim.radio import CapacityTable


def decile(pop=10_000, area=100.0, existing=40, country="AAA", index=1):
    return DecileRecord(
        country_iso3=country, decile_index=index, population=pop, area_km2=area,
        existing_sites=existing, pop_density=pop / area, settlement=Settlement.RURAL,
    )


# densities 0.2..1.0 mapping linearly to 24..120 Mbps/km^2
TABLE = CapacityTable(
    Generation.G4, "800x10",
    tuple((d / 10, d * 12.0) for d in range(2, 11)),
)


class TestRequiredSites:
    def test_ceiling_and_split(self):
        # demand 72 -> density 0.6; area 100 -> 60 sites, 40 existing
        req = required_sites(decile(existing=40), 72.0, TABLE)
        assert req.total_sites == 60
        assert req.new_sites == 20
        assert req.upgraded_sites == 40
        assert not req.unserviceable

    def test_surplus_existing_clamped(self):
        req = required_sites(decile(existing=80), 72.0, TABLE)
        assert req.total_sites == 60
        assert req.new_sites == 0
        assert req.upgraded_sites == 60

    def test_zero_population(self):
        req = required_sites(decile(pop=0, existing=15), 0.0, TABLE)
        assert (req.total_sites, req.new_sites, req.upgraded_sites) == (0, 0, 0)

    def test_unserviceable_capped_at_max_density(self):
        req = required_sites(decile(existing=0), 500.0, TABLE)
        assert req.unserviceable
        assert req.total_sites == 100  # 1.0 sites/km^2 * 100 km^2

    def test_monotone_in_demand(self):
        d = decile()
        totals = [required_sites(d, demand, TABLE).total_sites for demand in (0, 10, 30, 60, 90, 120)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_no_demolition(self):
        for demand in (0.0, 5.0, 50.0, 119.0):
            req = required_sites(decile(existing=70), demand, TABLE)
            assert req.new_sites >= 0
            assert req.existing_sites == 70

    def test_5g_needs_no_more_sites_than_4g(self):
        # 5G table dominates 4G capacity row-for-row
        t5 = CapacityTable(Generation.G5, "700x10", tuple((d, c * 3.0) for d, c in TABLE.rows))
        d = decile(existing=0)
        for demand in (10.0, 40.0, 80.0, 119.0):
            assert required_sites(d, demand, t5).total_sites <= required_sites(d, demand, TABLE).total_sites

    def test_invariant_enforced_in_type(self):
        with pytest.raises(ValidationError):
            SiteRequirement("AAA", 1, total_sites=60, existing_sites=40, new_sites=5, upgraded_sites=40)

