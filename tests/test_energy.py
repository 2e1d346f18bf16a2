import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bband_sim.core import (
    Backhaul, CountryParams, Deciles, EnergyStrategy, FactorRow, Generation, IncomeGroup, Policy, Settlement,
    Sharing, StrategyBundle,
)
from bband_sim.cost import radio_divisor
from bband_sim.energy import (
    ENERGY_FIELDS,
    MIX_SOURCES,
    EmissionFactors,
    EnergyParams,
    energy,
)
from bband_sim.errors import ValidationError
from reference_chains import (
    Emissions,
    GridSplit,
    YearEnergy,
    annual_energy,
    build_schedule,
    cumulate_horizon,
    emissions,
    energy_chain,
    split_energy,
)

FACTORS = EmissionFactors(by_source={
    "coal": FactorRow(1.0, 0.9, 2.2, 0.35),
    "gas": FactorRow(0.45, 0.45, 0.01, 0.02),
    "oil": FactorRow(0.72, 1.1, 1.3, 0.09),
    "nuclear": FactorRow(0, 0, 0, 0),
    "hydro": FactorRow(0, 0, 0, 0),
    "renewables_other": FactorRow(0, 0, 0, 0),
    "diesel": FactorRow(0.8, 10.0, 4.0, 1.0),
})

ALL_COAL = {"coal": 1.0, "gas": 0.0, "oil": 0.0, "nuclear": 0.0, "hydro": 0.0, "renewables_other": 0.0}
ALL_GREEN = {"coal": 0.0, "gas": 0.0, "oil": 0.0, "nuclear": 0.0, "hydro": 0.0, "renewables_other": 1.0}


def strategy(backhaul=Backhaul.WIRELESS, sharing=Sharing.BASELINE, energy_strategy=EnergyStrategy.BASELINE):
    return StrategyBundle(Generation.G4, backhaul, sharing, Policy.BASELINE, energy_strategy)


def country(n_sharers=1, on_grid_share=1.0):
    """A country with ``n_sharers`` major operators; energy reads nothing else of it but the on-grid share."""
    return CountryParams("AAA", IncomeGroup.LIC, n_sharers, (), 0.0, 0.0, 0.0, on_grid_share, 0.0)


def deciles(settlements):
    """One populated decile per settlement, in order."""
    n = len(settlements)
    return Deciles(population=(1,) * n, area_km2=(1.0,) * n, existing_sites=(0,) * n, settlement=tuple(settlements),
                   degenerate=(False,) * n)


def one_decile(existing, new, key, on_grid_share, mix=ALL_COAL):
    """The kernel's horizon totals of one key over one rural decile, as Python floats."""
    out = energy([[existing]], [[new]], deciles([Settlement.RURAL]), [key], country(1, on_grid_share), EnergyParams(),
                 [mix], FACTORS)
    return {name: out[name].item() for name in ENERGY_FIELDS}


class TestAnnualEnergy:
    def test_ten_sites(self):
        params = EnergyParams(site_kwh_per_hour=0.249, backhaul_wireless_kwh_per_hour=0.0)
        got = annual_energy(10, 0, params, Backhaul.WIRELESS)
        assert got == pytest.approx(21_812.4, abs=1e-6)

    def test_zero_sites(self):
        assert annual_energy(0, 0, EnergyParams(), Backhaul.FIBER) == 0.0

    def test_backhaul_adder_difference(self):
        params = EnergyParams()
        wireless = annual_energy(100, 0, params, Backhaul.WIRELESS)
        fiber = annual_energy(100, 0, params, Backhaul.FIBER)
        assert wireless - fiber == pytest.approx(100 * 0.015 * 8760, rel=1e-9)

    def test_linearity_doubling_exact(self):
        params = EnergyParams()
        for existing, new in ((3, 4), (10, 0), (0, 17)):
            single = annual_energy(existing, new, params, Backhaul.WIRELESS)
            double = annual_energy(2 * existing, 2 * new, params, Backhaul.WIRELESS)
            assert double == 2.0 * single


class TestSplitEnergy:
    def test_lmc_share(self):
        on, off = split_energy(1000.0, GridSplit(0.67))
        assert on == pytest.approx(670.0)
        assert off == pytest.approx(330.0)

    def test_fully_on_grid(self):
        assert split_energy(50.0, GridSplit(1.0)) == (50.0, 0.0)

    def test_fully_off_grid(self):
        assert split_energy(50.0, GridSplit(0.0)) == (0.0, 50.0)

    def test_conservation(self):
        for share in (0.0, 0.1, 1 / 3, 0.53, 0.67, 0.94, 1.0):
            on, off = split_energy(123.456789, GridSplit(share))
            assert on + off == pytest.approx(123.456789, rel=1e-12)


class TestEmissions:
    def test_single_source_product(self):
        got = emissions(10_000.0, 0.0, ALL_COAL, FACTORS, GridSplit(1.0))
        assert got.co2_kg == pytest.approx(10_000.0)

    def test_all_renewables_zero(self):
        got = emissions(10_000.0, 0.0, ALL_GREEN, FACTORS, GridSplit(1.0))
        assert got == Emissions(0, 0, 0, 0)

    def test_off_grid_diesel_products(self):
        got = emissions(0.0, 1000.0, ALL_GREEN, FACTORS, GridSplit(0.0))
        assert got.co2_kg == pytest.approx(800.0)
        assert got.nox_g == pytest.approx(10_000.0)  # 10 kg
        assert got.sox_g == pytest.approx(4_000.0)
        assert got.pm10_g == pytest.approx(1_000.0)

    def test_renewable_off_grid_is_clean(self):
        grid = GridSplit(0.0, off_grid_source="renewable")
        got = emissions(0.0, 1000.0, ALL_GREEN, FACTORS, grid)
        assert got == Emissions(0, 0, 0, 0)

    def test_bad_mix_sum_rejected(self):
        bad = dict(ALL_COAL, coal=0.97)
        with pytest.raises(ValidationError, match="sum"):
            emissions(100.0, 0.0, bad, FACTORS, GridSplit(1.0))

    def test_linearity_doubling_exact(self):
        mix = {"coal": 0.4, "gas": 0.3, "oil": 0.1, "nuclear": 0.05, "hydro": 0.05, "renewables_other": 0.1}
        single = emissions(1234.5, 678.9, mix, FACTORS, GridSplit(0.6))
        double = emissions(2 * 1234.5, 2 * 678.9, mix, FACTORS, GridSplit(0.6))
        assert double.co2_kg == 2.0 * single.co2_kg
        assert double.nox_g == 2.0 * single.nox_g
        assert double.sox_g == 2.0 * single.sox_g
        assert double.pm10_g == 2.0 * single.pm10_g


class TestRenewablesStrategy:
    def test_baseline_keeps_diesel(self):
        got = one_decile(10, 0, strategy(), 0.0, ALL_GREEN)
        assert got["co2_kg"] == got["off_grid_kwh"] * FACTORS.diesel.co2_kg_kwh > 0

    def test_renewables_swaps_source(self):
        got = one_decile(10, 0, strategy(energy_strategy=EnergyStrategy.RENEWABLES), 0.0, ALL_GREEN)
        assert got["off_grid_kwh"] > 0
        assert [got[name] for name in ("co2_kg", "nox_g", "sox_g", "pm10_g")] == [0.0] * 4

    def test_no_effect_when_fully_on_grid(self):
        base = one_decile(10, 5, strategy(), 1.0)
        green = one_decile(10, 5, strategy(energy_strategy=EnergyStrategy.RENEWABLES), 1.0)
        assert base == green

    def test_strictly_lower_when_off_grid_exists(self):
        base = one_decile(10, 5, strategy(), 0.67)
        green = one_decile(10, 5, strategy(energy_strategy=EnergyStrategy.RENEWABLES), 0.67)
        for name in ("co2_kg", "nox_g", "sox_g", "pm10_g"):
            assert green[name] < base[name], name


class TestSharingDivisor:
    def test_rules(self):
        settlements = deciles([Settlement.RURAL, Settlement.URBAN])
        strategies = [strategy(sharing=sharing) for sharing in Sharing]
        assert radio_divisor(strategies, settlements, 4).tolist() == [
            [1.0, 1.0],  # baseline
            [1.0, 1.0],  # passive
            [4.0, 4.0],  # active
            [4.0, 1.0],  # srn: rural deciles only
        ]


class TestSchedule:
    def test_remainder_early(self):
        assert build_schedule(10, 8) == [2, 2, 1, 1, 1, 1, 1, 1]

    def test_exact_division(self):
        assert build_schedule(16, 8) == [2] * 8

    def test_zero(self):
        assert build_schedule(0, 8) == [0] * 8

    def test_sums_to_total(self):
        for total in range(0, 40):
            assert sum(build_schedule(total, 8)) == total


class TestCumulateHorizon:
    @staticmethod
    def year(y, energy=100.0):
        return YearEnergy(y, energy, energy, 0.0, Emissions(energy, 0, 0, 0))

    def test_constant_years(self):
        totals = cumulate_horizon([self.year(2023 + i) for i in range(8)])
        assert totals.energy_kwh == pytest.approx(800.0)
        assert totals.emissions.co2_kg == pytest.approx(800.0)

    def test_triangular_site_years(self):
        # 10 new sites per year for 8 years: site-years 10+20+...+80 = 360
        params = EnergyParams(site_kwh_per_hour=1.0, backhaul_wireless_kwh_per_hour=0.0)
        cumulative = 0
        per_year = []
        for i, builds in enumerate(build_schedule(80, 8)):
            cumulative += builds
            energy = annual_energy(0, cumulative, params, Backhaul.WIRELESS)
            per_year.append(YearEnergy(2023 + i, energy, energy, 0.0, Emissions()))
        totals = cumulate_horizon(per_year)
        assert totals.energy_kwh == pytest.approx(360 * 8760, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cumulate_horizon([])

    def test_gap_rejected(self):
        with pytest.raises(ValidationError, match="contiguous"):
            cumulate_horizon([self.year(2023), self.year(2025)])


class TestFactorValidation:
    def test_nonzero_renewable_factors_rejected(self):
        bad = dict(FACTORS.by_source)
        bad["hydro"] = FactorRow(0.1, 0, 0, 0)
        with pytest.raises(ValidationError):
            EmissionFactors(by_source=bad)

    def test_missing_diesel_rejected(self):
        bad = {k: v for k, v in FACTORS.by_source.items() if k != "diesel"}
        with pytest.raises(ValidationError, match="missing"):
            EmissionFactors(by_source=bad)


@st.composite
def mix_rows(draw, n_years):
    """One generation mix per year: a random subset of the sources in a random order."""
    rows = []
    for _ in range(n_years):
        sources = draw(st.permutations(MIX_SOURCES))[:draw(st.integers(1, len(MIX_SOURCES)))]
        weights = draw(st.lists(st.integers(0, 1000), min_size=len(sources), max_size=len(sources)))
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        rows.append({source: w / total for source, w in zip(sources, weights)})
    return rows


@st.composite
def energy_blocks(draw, max_sites=5_000_000):
    """A batch of 1-8 energy keys over one country's 1-10 deciles.

    Each key has its own site counts (0 included) and strategy (sharing,
    backhaul and energy strategy); settlements, sharers, on-grid share and
    the mix rows are the country's, shared by every key.
    """
    n = draw(st.integers(1, 10))
    site_counts = st.lists(st.one_of(st.just(0), st.integers(0, 50), st.integers(0, max_sites)), min_size=n, max_size=n)
    strategies = st.builds(strategy, st.sampled_from(Backhaul), st.sampled_from(Sharing),
                           st.sampled_from(EnergyStrategy))
    keys = [{
        "existing_sites": draw(site_counts),
        "new_sites": draw(site_counts),
        "strategy": draw(strategies),
    } for _ in range(draw(st.integers(1, 8)))]
    return {
        "keys": keys,
        "settlements": draw(st.lists(st.sampled_from(Settlement), min_size=n, max_size=n)),
        "n_sharers": draw(st.integers(1, 5)),
        "on_grid_share": draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        "mix_rows": draw(mix_rows(draw(st.integers(1, 30)))),
        "params": EnergyParams(),
        "factors": FACTORS,
    }


def batch_energy(keys, settlements, n_sharers, on_grid_share, mix_rows, params, factors):
    """:func:`energy` of a block: one kernel call over all its keys."""
    return energy(
        [k["existing_sites"] for k in keys],
        [k["new_sites"] for k in keys],
        deciles(settlements),
        [k["strategy"] for k in keys],
        country(n_sharers, on_grid_share),
        params,
        mix_rows,
        factors,
    )


def scaled(block, k):
    """The block with every key's site counts multiplied by ``k``."""
    keys = [dict(key, existing_sites=[k * x for x in key["existing_sites"]], new_sites=[k * x for x in key["new_sites"]])
            for key in block["keys"]]
    return dict(block, keys=keys)


def bits(values):
    return [float(v).hex() for v in values]


GREEN_WIRELESS = strategy(energy_strategy=EnergyStrategy.RENEWABLES)

# Renewables and baseline keys in one batch, all off-grid: the diesel term
# is added to every key, times 0.0 under renewables.
MIXED_STRATEGIES_OFF_GRID = {
    "keys": [
        {"existing_sites": [3, 0], "new_sites": [7, 40], "strategy": GREEN_WIRELESS},
        {"existing_sites": [3, 0], "new_sites": [7, 40], "strategy": strategy(Backhaul.FIBER, Sharing.ACTIVE)},
        {"existing_sites": [1, 9], "new_sites": [0, 5], "strategy": GREEN_WIRELESS},
    ],
    "settlements": [Settlement.RURAL, Settlement.URBAN],
    "n_sharers": 3,
    "on_grid_share": 0.0,
    "mix_rows": [ALL_COAL, ALL_GREEN, ALL_COAL],
    "params": EnergyParams(),
    "factors": FACTORS,
}

# Mix rows of 1 and 6 sources, the 6-source rows in different orders.
RAGGED_MIX_ROWS = {
    "keys": [
        {"existing_sites": [2, 11, 0], "new_sites": [9, 0, 31], "strategy": strategy(Backhaul.WIRELESS, Sharing.SRN)},
    ],
    "settlements": [Settlement.SUBURBAN, Settlement.RURAL, Settlement.URBAN],
    "n_sharers": 2,
    "on_grid_share": 0.7,
    "mix_rows": [
        {"gas": 1.0},
        {"oil": 0.1, "hydro": 0.2, "coal": 0.3, "renewables_other": 0.05, "gas": 0.25, "nuclear": 0.1},
        {"nuclear": 0.15, "gas": 0.35, "renewables_other": 0.1, "coal": 0.2, "hydro": 0.05, "oil": 0.15},
        {"coal": 1.0},
    ],
    "params": EnergyParams(),
    "factors": FACTORS,
}


class TestEnergyKernel:
    @settings(max_examples=300, deadline=None)
    @given(energy_blocks())
    @example(block=MIXED_STRATEGIES_OFF_GRID)
    @example(block=RAGGED_MIX_ROWS)
    def test_equals_scalar_chain_bit_for_bit(self, block):
        got = batch_energy(**block)
        assert list(got) == list(ENERGY_FIELDS)
        shared = {name: value for name, value in block.items() if name != "keys"}
        for i, key in enumerate(block["keys"]):
            columns = zip(*(got[f][i].tolist() for f in ENERGY_FIELDS))
            for kernel_row, chain_row in zip(columns, energy_chain(**key, **shared), strict=True):
                assert bits(kernel_row) == bits(chain_row)

    @settings(max_examples=200, deadline=None)
    @given(energy_blocks(max_sites=1_000_000), st.integers(2, 50))
    def test_linear_in_site_counts(self, block, k):
        # subnormal products lose the exactness of doubling
        assume(block["on_grid_share"] == 0.0 or block["on_grid_share"] > 1e-300)
        # a whole number of builds per year keeps the build schedule linear
        n_years = len(block["mix_rows"])
        for key in block["keys"]:
            key["new_sites"] = [n_years * (x // n_years) for x in key["new_sites"]]
        single = batch_energy(**block)
        multiple = batch_energy(**scaled(block, k))
        doubled = batch_energy(**scaled(block, 2))
        # off-grid energy is total minus on-grid, so bound errors by the total
        largest_factor = max(max(row.as_tuple()) for row in FACTORS.by_source.values())
        tol = 1e-12 * k * single["energy_kwh"] * largest_factor
        for f in ENERGY_FIELDS:
            assert (doubled[f] == 2.0 * single[f]).all(), f  # scaling by 2 is exact
            assert (abs(multiple[f] - k * single[f]) <= tol).all(), f

    @settings(max_examples=200, deadline=None)
    @given(energy_blocks())
    def test_on_and_off_grid_conserve_energy(self, block):
        got = batch_energy(**block)
        share = block["on_grid_share"]
        for i in range(len(block["keys"])):
            for total, on, off in zip(*(got[f][i].tolist() for f in ("energy_kwh", "on_grid_kwh", "off_grid_kwh"))):
                assert on + off == pytest.approx(total, rel=1e-12)
                assert on == pytest.approx(share * total, rel=1e-12)
                if share == 1.0:
                    assert off == 0.0
                if share == 0.0:
                    assert on == 0.0

    def test_each_mix_row_checked(self):
        bad = dict(ALL_COAL, coal=0.97)
        key = {"existing_sites": [1], "new_sites": [2], "strategy": strategy(Backhaul.FIBER)}
        block = {"keys": [key], "settlements": [Settlement.RURAL], "n_sharers": 3, "on_grid_share": 0.5,
                 "params": EnergyParams(), "factors": FACTORS}
        with pytest.raises(ValidationError, match="sum"):
            batch_energy(**block, mix_rows=[ALL_COAL, bad])
        with pytest.raises(ValidationError, match="unknown mix sources"):
            batch_energy(**block, mix_rows=[{"peat": 1.0}])
        # the loader's one text for a share below its bound, nan included
        with pytest.raises(ValidationError, match="^share: nan must be >= 0$"):
            batch_energy(**block, mix_rows=[{"coal": float("nan")}])
        with pytest.raises(ValidationError, match="^share: -0.5 must be >= 0$"):
            batch_energy(**block, mix_rows=[ALL_COAL, {"coal": -0.5, "gas": 1.5}])
        with pytest.raises(ValidationError, match="site counts"):
            batch_energy(**dict(block, keys=[key, dict(key, new_sites=[-1])]), mix_rows=[ALL_COAL])
