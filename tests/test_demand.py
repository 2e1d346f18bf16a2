import pytest

from bband_sim.core import AdoptionScenario, CountryParams, DecileRecord, IncomeGroup, ScenarioSpec, Settlement
from bband_sim.demand import (
    AdoptionParams,
    arpu_for_settlement,
    demand_columns,
    per_user_busy_hour_rate,
)
from bband_sim.errors import ValidationError


def decile(pop=1000, area=10.0, settlement=Settlement.SUBURBAN, sites=0):
    return DecileRecord(
        country_iso3="AAA", decile_index=1, population=pop, area_km2=area,
        existing_sites=sites, settlement=settlement,
    )


def country(operators=1, arpu=1.0):
    return CountryParams(
        country_iso3="AAA", income_group=IncomeGroup.LMC, n_major_operators=operators, spectrum_portfolio=(),
        arpu_low=arpu, arpu_base=arpu, arpu_high=arpu, on_grid_share=1.0, grid_carbon_intensity_kg_kwh=0.0,
    )


def columns(deciles, *, cell=1.0, smartphone=1.0, cagr=0.0, years=1, gb_month=90.0, operators=1, arpu=1.0,
            discount=0.0, cap=1.0):
    """:func:`demand_columns` of one scenario: cell and smartphone penetration and CAGR as given.

    90 GB a month is a busy-hour rate of exactly 1 Mbps per user.
    """
    adoption = AdoptionParams(
        base_cell_penetration=cell, smartphone_penetration_urban=smartphone,
        smartphone_penetration_rural=smartphone, penetration_cap=cap,
        cagr_by_income={IncomeGroup.LMC: {AdoptionScenario.BASELINE: cagr}},
    )
    scenario = ScenarioSpec(gb_month, AdoptionScenario.BASELINE, 2023, 2022 + years, discount)
    out = demand_columns(deciles, country(operators, arpu), adoption, [scenario])
    return out["demand_mbps_km2"][0].tolist(), out["revenue_pv_usd"][0].tolist()


def peak_penetration(base, cagr, years, cap=1.0):
    """The peak cell penetration over the horizon, as the demand of one user on 1 km^2 at 1 Mbps."""
    return columns([decile(pop=1, area=1.0)], cell=base, cagr=cagr, years=years, cap=cap)[0][0]


def area_demand(d, **kwargs):
    return columns([d], **kwargs)[0][0]


def revenue_pv(d, **kwargs):
    return columns([d], **kwargs)[1][0]


class TestBusyHourRate:
    def test_30_gb(self):
        assert per_user_busy_hour_rate(30.0) == pytest.approx(0.33333333, rel=1e-7)

    def test_zero(self):
        assert per_user_busy_hour_rate(0.0) == 0.0

    def test_40_gb(self):
        assert per_user_busy_hour_rate(40.0) == pytest.approx(0.44444444, rel=1e-7)

    def test_linear_in_capacity(self):
        base = per_user_busy_hour_rate(7.3)
        for a in (0.25, 2.0, 11.0):
            assert per_user_busy_hour_rate(a * 7.3) == pytest.approx(a * base, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            per_user_busy_hour_rate(-1.0)


class TestAdoptionProjection:
    def test_compound_growth(self):
        assert peak_penetration(0.50, 0.04, 3) == pytest.approx(0.56243, abs=1e-5)

    def test_zero_cagr_identity(self):
        assert peak_penetration(0.37, 0.0, 10) == 0.37

    def test_cap_clamps(self):
        assert peak_penetration(0.99, 0.06, 5, cap=1.0) == 1.0

    def test_series_length_and_growth(self):
        # the last of 8 years peaks; undiscounted revenue adds all 8
        assert peak_penetration(0.5, 0.02, 8) == pytest.approx(0.5 * 1.02**8, rel=1e-12)
        assert revenue_pv(decile(pop=1, area=1.0), years=8, arpu=1 / 12) == pytest.approx(8.0, rel=1e-12)


class TestAreaDemand:
    def test_flat_example(self):
        assert area_demand(decile(pop=1000, area=10.0), operators=4) == pytest.approx(25.0)

    def test_zero_population(self):
        assert columns([decile(pop=0)], operators=4) == ([0.0], [0.0])

    def test_growth_peaks_at_horizon_end(self):
        got = area_demand(decile(pop=1000, area=1.0), cell=0.5, cagr=0.02, years=8)
        assert got == pytest.approx(585.83, abs=0.01)

    def test_zero_area_with_population_rejected(self):
        d = DecileRecord(country_iso3="AAA", decile_index=1, population=100, area_km2=0.0, existing_sites=0,
                         settlement=Settlement.RURAL, degenerate=True)
        # degenerate deciles contribute zero demand and revenue rather than erroring
        assert columns([d]) == ([0.0], [0.0])

    def test_market_share_scales_exactly(self):
        d = decile(pop=12345, area=7.0)
        kwargs = dict(cell=0.5, smartphone=0.6, cagr=0.03, years=8, gb_month=36.0)
        full = area_demand(d, **kwargs)
        assert area_demand(d, operators=2, **kwargs) == pytest.approx(0.5 * full, rel=1e-12)

    def test_monotone_in_inputs(self):
        kwargs = dict(cell=0.5, smartphone=0.5, operators=4)
        base = area_demand(decile(pop=1000), **kwargs)
        assert area_demand(decile(pop=2000), **kwargs) >= base
        assert area_demand(decile(pop=1000), **dict(kwargs, cell=0.9)) >= base
        assert area_demand(decile(pop=1000), **kwargs, gb_month=180.0) >= base

    def test_one_row_per_scenario_and_decile(self):
        deciles = [decile(pop=1000, area=10.0), decile(pop=0), decile(pop=500, area=1.0, settlement=Settlement.RURAL)]
        adoption = AdoptionParams()
        scenarios = [ScenarioSpec(c, a) for c in (20.0, 40.0) for a in AdoptionScenario]
        out = demand_columns(deciles, country(operators=3, arpu=5.0), adoption, scenarios)
        for name, values in out.items():
            assert values.shape == (len(scenarios), len(deciles)), name
            for i, scenario in enumerate(scenarios):
                one = demand_columns(deciles, country(operators=3, arpu=5.0), adoption, [scenario])[name][0]
                assert values[i].tolist() == one.tolist(), name


class TestRevenuePV:
    def test_single_year_no_discount(self):
        got = revenue_pv(decile(pop=1000, area=10.0), arpu=5.0, operators=4)
        assert got == pytest.approx(15_000.0)

    def test_zero_rate_equals_plain_sum(self):
        pens = [0.4 * 1.05**t for t in range(1, 7)]
        sps = [min(0.8 * 1.05**t, 1.0) for t in range(1, 7)]
        undiscounted = sum(500 * p * s * 0.5 * 7.0 * 12 for p, s in zip(pens, sps))
        got = revenue_pv(decile(pop=500, area=5.0), cell=0.4, smartphone=0.8, cagr=0.05, years=6, arpu=7.0,
                         operators=2)
        assert got == pytest.approx(undiscounted, rel=1e-12)

    def test_annuity_closed_form(self):
        # constant $100/yr for 8 years at 5% -> 100*(1-1.05^-8)/0.05
        # population 1, pen 1, sp 1, share 1, arpu 100/12 -> $100/yr
        got = revenue_pv(decile(pop=1, area=1.0), years=8, arpu=100.0 / 12.0, discount=0.05)
        assert got == pytest.approx(646.32, abs=0.01)

    def test_zero_arpu_written_as_minus_zero_is_zero(self):
        # a running total from 0.0 adds -0.0 terms up to 0.0, and so must the kernel
        assert revenue_pv(decile(), years=8, arpu=-0.0, discount=0.05).hex() == (0.0).hex()

    def test_strictly_decreasing_in_discount_rate(self):
        d = decile(pop=1000)
        values = [revenue_pv(d, cell=0.9, smartphone=0.9, years=8, arpu=10.0, operators=4, discount=r)
                  for r in (0.0, 0.02, 0.05, 0.10, 0.25)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestArpuRouting:
    def test_tiers(self):
        country = CountryParams(
            country_iso3="AAA", income_group=IncomeGroup.LMC, n_major_operators=3,
            spectrum_portfolio=(), arpu_low=6.0, arpu_base=10.0, arpu_high=14.0,
            on_grid_share=0.67, grid_carbon_intensity_kg_kwh=0.6,
        )
        assert arpu_for_settlement(country, Settlement.URBAN) == 14.0
        assert arpu_for_settlement(country, Settlement.SUBURBAN) == 10.0
        assert arpu_for_settlement(country, Settlement.RURAL) == 6.0


class TestAdoptionParams:
    def test_defaults_match_documented_cagrs(self):
        from bband_sim.core import AdoptionScenario
        params = AdoptionParams()
        assert params.cagr(IncomeGroup.LIC, AdoptionScenario.BASELINE) == 0.04
        assert params.cagr(IncomeGroup.HIC, AdoptionScenario.LOW) == 0.005
        assert params.cagr(IncomeGroup.UMC, AdoptionScenario.HIGH) == 0.04
        assert params.cagr(IncomeGroup.LMC, AdoptionScenario.HIGH) == 0.06

    def test_penetration_above_cap_rejected(self):
        with pytest.raises(ValidationError):
            AdoptionParams(base_cell_penetration=1.2, penetration_cap=1.0)

    def test_smartphone_base_routing(self):
        params = AdoptionParams()
        assert params.smartphone_base(Settlement.URBAN) == params.smartphone_penetration_urban
        assert params.smartphone_base(Settlement.SUBURBAN) == params.smartphone_penetration_urban
        assert params.smartphone_base(Settlement.RURAL) == params.smartphone_penetration_rural
