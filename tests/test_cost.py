import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bband_sim.core import (
    Backhaul, Carrier, CountryParams, DecileRecord, EnergyStrategy, Generation, IncomeGroup, Policy, Settlement,
    Sharing, StrategyBundle,
)
from bband_sim.cost import CostInputs, cost_columns, subsidies
from bband_sim.errors import ValidationError
from reference_chains import (
    CostComponents,
    DecileCost,
    apply_sharing,
    cost_chain,
    cross_subsidize,
    decile_components,
    financial_cost_total,
    private_cost,
    site_network_cost,
)

COSTS = CostInputs(
    equipment_usd=40_000, backhaul_wireless_usd=20_000, backhaul_fiber_usd=40_000,
    civils_usd=30_000, core_usd=10_000,
)


class TestSiteNetworkCost:
    def test_new_build(self):
        assert site_network_cost("new", Backhaul.WIRELESS, COSTS) == 100_000

    def test_upgrade_omits_civils(self):
        assert site_network_cost("upgrade", Backhaul.WIRELESS, COSTS) == 70_000

    def test_zero_costs(self):
        zero = CostInputs(
            equipment_usd=0, backhaul_wireless_usd=0, backhaul_fiber_usd=0,
            civils_usd=0, core_usd=0,
        )
        assert site_network_cost("new", Backhaul.FIBER, zero) == 0

    def test_upgrade_cheaper_whenever_civils_positive(self):
        assert site_network_cost("upgrade", Backhaul.FIBER, COSTS) < site_network_cost("new", Backhaul.FIBER, COSTS)

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            site_network_cost("refurbish", Backhaul.FIBER, COSTS)


class TestApplySharing:
    COMPONENTS = CostComponents(equipment=40_000, backhaul=20_000, civils=30_000, core=10_000)

    def test_passive_divides_civils_only(self):
        got = apply_sharing(self.COMPONENTS, Sharing.PASSIVE, 4, Settlement.URBAN)
        assert got.civils == 7_500
        assert (got.equipment, got.backhaul, got.core) == (40_000, 20_000, 10_000)

    def test_single_sharer_degenerate(self):
        for model in Sharing:
            got = apply_sharing(self.COMPONENTS, model, 1, Settlement.RURAL)
            assert got == self.COMPONENTS

    def test_srn_rural_equals_active_urban_equals_baseline(self):
        urban = apply_sharing(self.COMPONENTS, Sharing.SRN, 4, Settlement.URBAN)
        assert urban == self.COMPONENTS
        rural = apply_sharing(self.COMPONENTS, Sharing.SRN, 4, Settlement.RURAL)
        active = apply_sharing(self.COMPONENTS, Sharing.ACTIVE, 4, Settlement.RURAL)
        assert rural == active
        assert active.core == self.COMPONENTS.core  # core never shared

    def test_zero_sharers_rejected(self):
        with pytest.raises(ValidationError):
            apply_sharing(self.COMPONENTS, Sharing.ACTIVE, 0, Settlement.RURAL)

    def test_ordering_by_model(self):
        totals = {
            model: apply_sharing(self.COMPONENTS, model, 4, Settlement.RURAL).total
            for model in Sharing
        }
        assert totals[Sharing.ACTIVE] <= totals[Sharing.SRN] <= totals[Sharing.BASELINE]
        assert totals[Sharing.PASSIVE] <= totals[Sharing.BASELINE]


class TestPrivateCost:
    def test_components_sum(self):
        got = private_cost(100_000, COSTS, Policy.BASELINE, revenue_pv=0.0, spectrum_mhz=0.0, population=0)
        assert got.administration == 10_000
        assert got.profit == 20_000
        assert got.tax == 0.0 and got.spectrum == 0.0
        assert got.private_cost == 130_000

    def test_all_zero_coefficients(self):
        zero = CostInputs(admin_share=0, profit_margin=0, tax_rate_low=0, tax_rate_baseline=0,
                          tax_rate_high=0, spectrum_coef_low_usd_mhz_pop=0,
                          spectrum_coef_baseline_usd_mhz_pop=0, spectrum_coef_high_usd_mhz_pop=0)
        got = private_cost(55_000, zero, Policy.BASELINE, 1e6, spectrum_mhz=30, population=1000)
        assert got.private_cost == 55_000

    def test_high_tax_strictly_raises_cost(self):
        base = private_cost(100_000, COSTS, Policy.BASELINE, 1e6, spectrum_mhz=30, population=1000)
        high = private_cost(100_000, COSTS, Policy.HIGH_TAX, 1e6, spectrum_mhz=30, population=1000)
        assert high.private_cost > base.private_cost
        assert high.spectrum == base.spectrum  # tax axis leaves fees alone

    def test_spectrum_fee_formula(self):
        got = private_cost(0.0, COSTS, Policy.HIGH_SPECTRUM, 0.0, spectrum_mhz=30, population=10_000)
        assert got.spectrum == pytest.approx(0.02 * 30 * 10_000)


class TestCrossSubsidize:
    @staticmethod
    def make(costs_revenues):
        return [
            DecileCost("AAA", i + 1, network=0, administration=0, spectrum=0, tax=0,
                       profit=0, private_cost=c, revenue_pv=r)
            for i, (c, r) in enumerate(costs_revenues)
        ]

    def test_worked_allocation(self):
        # surpluses {50, 10}, deficits {30, 40}: pool covers 60, residual 10
        # lands on the least viable decile
        records = self.make([(100, 150), (100, 110), (130, 100), (140, 100)])
        out = cross_subsidize(records)
        assert [c.subsidy for c in out] == [0, 0, 0, 10]

    def test_all_profitable(self):
        out = cross_subsidize(self.make([(50, 100), (70, 75)]))
        assert all(c.subsidy == 0 for c in out)

    def test_no_surplus_full_deficit(self):
        out = cross_subsidize(self.make([(100, 40), (80, 30)]))
        assert [c.subsidy for c in out] == [60, 50]

    def test_mixed_countries_rejected(self):
        records = self.make([(100, 50)])
        records.append(DecileCost("BBB", 1, 0, 0, 0, 0, 0, 100, 50))
        with pytest.raises(ValidationError):
            cross_subsidize(records)

    def test_total_subsidy_identity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            pairs = [(float(rng.uniform(0, 200)), float(rng.uniform(0, 200))) for _ in range(10)]
            out = cross_subsidize(self.make(pairs))
            deficits = sum(max(0.0, c - r) for c, r in pairs)
            surplus = sum(max(0.0, r - c) for c, r in pairs)
            assert sum(c.subsidy for c in out) == pytest.approx(max(0.0, deficits - surplus), abs=1e-6)
            for (c, r), rec in zip(pairs, out):
                assert rec.subsidy <= max(0.0, c - r) + 1e-9


money = st.one_of(st.sampled_from([0.0, 10.0, 20.0, 50.0]), st.floats(0.0, 1e9))


@st.composite
def country_costs(draw):
    """One country's (private cost, revenue) per decile; small round values make ties common."""
    n = draw(st.integers(1, 10))
    return draw(st.lists(st.tuples(money, money), min_size=n, max_size=n))


class TestCrossSubsidizeProperties:
    make = staticmethod(TestCrossSubsidize.make)

    @settings(max_examples=300, deadline=None)
    @given(country_costs())
    def test_matches_brute_force_oracle(self, pairs):
        out = cross_subsidize(self.make(pairs))
        revenues = [r for _, r in pairs]
        private = [c for c, _ in pairs]
        expected, expected_total = oracles.cross_subsidy_oracle(revenues, private)
        # 1e-9 relative to the country's largest amount: the oracle pays in
        # installments, whose rounding leaves residues near zero
        tol = 1e-9 * max(1.0, *revenues, *private)
        assert [c.subsidy for c in out] == pytest.approx(expected, rel=1e-9, abs=tol)
        total = sum(c.subsidy for c in out)
        assert total == pytest.approx(expected_total, rel=1e-9, abs=tol)
        # conservation: the pool pays down deficits until one side runs out
        deficits = sum(max(0.0, c - r) for c, r in pairs)
        surplus = sum(max(0.0, r - c) for c, r in pairs)
        assert total == pytest.approx(max(0.0, deficits - surplus), rel=1e-9, abs=tol)

    @settings(max_examples=300, deadline=None)
    @given(country_costs(), st.randoms(use_true_random=False))
    def test_ties_broken_by_decile_index_not_position(self, pairs, rnd):
        records = self.make(pairs)
        shuffled = list(records)
        rnd.shuffle(shuffled)
        in_order = {c.decile_index: c.subsidy for c in cross_subsidize(records)}
        got = {c.decile_index: c.subsidy for c in cross_subsidize(shuffled)}
        # the pool sums in list order, so only its last bits may move
        tol = 1e-9 * max(1.0, *(x for pair in pairs for x in pair))
        assert got == pytest.approx(in_order, rel=1e-9, abs=tol)

    def test_equal_deficits_fund_the_lower_decile_first(self):
        # deficits of 30 in deciles 2 and 3, a pool of 30: decile 2 is paid
        out = cross_subsidize(self.make([(100, 130), (130, 100), (130, 100)])[::-1])
        assert {c.decile_index: c.subsidy for c in out} == {1: 0.0, 2: 0.0, 3: 30.0}


def country(n_sharers, portfolio=()):
    """A country with ``n_sharers`` major operators and the ``(generation, carrier)`` pairs ``portfolio``."""
    return CountryParams("AAA", IncomeGroup.LIC, n_sharers, tuple(portfolio), 0.0, 0.0, 0.0, 1.0, 0.0)


def deciles(settlements, population):
    """Deciles 1..n with the given settlements and populations, each of 1 km^2."""
    return [DecileRecord(country_iso3="AAA", decile_index=i, population=p, area_km2=1.0, existing_sites=0, settlement=s)
            for i, (s, p) in enumerate(zip(settlements, population), 1)]


@st.composite
def cost_blocks(draw):
    """Keyword arguments of :func:`cost_columns`: 1-8 strategies over one country's 1-10 deciles.

    Site counts include 0. In about half the blocks every decile copies the
    first one's inputs, so each key's deficits tie and the subsidy order
    rests on the decile index. The country holds 1-3 carriers per generation.
    """
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    repeat = draw(st.booleans())

    def per_decile(values):
        return draw(st.lists(values, min_size=1 if repeat else n, max_size=1 if repeat else n)) * (n if repeat else 1)

    counts = st.one_of(st.just(0), st.integers(0, 100), st.integers(0, 2_000_000))
    revenue = st.one_of(st.sampled_from([0.0, 1e5, 2e5, 5e5]), st.floats(0.0, 1e12))
    strategies = st.builds(StrategyBundle, st.sampled_from(Generation), st.sampled_from(Backhaul),
                           st.sampled_from(Sharing), st.sampled_from(Policy), st.sampled_from(EnergyStrategy))
    # carriers of one generation at distinct frequencies: equal ones would share an RNG stream
    portfolio = [(g, Carrier(800.0 + 100.0 * i, draw(st.floats(0.1, 200.0))))
                 for g in Generation for i in range(draw(st.integers(1, 3)))]
    return {
        "new_sites": [per_decile(counts) for _ in range(k)],
        "upgraded_sites": [per_decile(counts) for _ in range(k)],
        "revenue_pv": [per_decile(revenue) for _ in range(k)],
        "deciles": deciles(per_decile(st.sampled_from(Settlement)), per_decile(st.integers(0, 50_000_000))),
        "strategies": draw(st.lists(strategies, min_size=k, max_size=k)),
        "country": country(draw(st.integers(1, 5)), portfolio),
        "costs": CostInputs(),
    }


def scalar_subsidies(revenue_pv, private_costs, decile_index):
    """One key's subsidies, one decile at a time: the loop the batched rule must equal."""
    pool = 0.0
    for r, c in zip(revenue_pv, private_costs):
        pool += max(0.0, r - c)
    out = [0.0] * len(revenue_pv)
    deficits = [(c - r, d, i) for i, (r, c, d) in enumerate(zip(revenue_pv, private_costs, decile_index)) if c > r]
    for deficit, _, i in sorted(deficits, key=lambda x: x[:2]):
        grant = min(pool, deficit)
        pool -= grant
        out[i] = deficit - grant
    return out


class TestCostColumns:
    @settings(max_examples=300, deadline=None)
    @given(cost_blocks())
    def test_equals_scalar_chain_bit_for_bit(self, b):
        costs = b["costs"]
        got = cost_columns(**b)
        fields = {"network_usd": "network", "administration_usd": "administration", "spectrum_usd": "spectrum",
                  "tax_usd": "tax", "profit_usd": "profit", "private_cost_usd": "private_cost",
                  "subsidy_usd": "subsidy", "government_cost_usd": "government_cost",
                  "financial_cost_usd": "financial_cost"}
        assert set(got) == set(fields)
        for i, s in enumerate(b["strategies"]):
            chain = cost_chain(b["new_sites"][i], b["upgraded_sites"][i], b["revenue_pv"][i], b["deciles"], s,
                               b["country"], costs)
            for column, field in fields.items():
                assert [x.hex() for x in got[column][i].tolist()] == [float(getattr(c, field)).hex() for c in chain], column

    def test_rejects_negative_counts_and_no_sharers(self):
        args = dict(revenue_pv=[[0.0]], deciles=deciles([Settlement.RURAL], [0]),
                    strategies=[StrategyBundle(Generation.G4, Backhaul.FIBER, Sharing.ACTIVE, Policy.BASELINE,
                                               EnergyStrategy.BASELINE)],
                    country=country(2, [(Generation.G4, Carrier(800.0, 10.0))]), costs=COSTS)
        with pytest.raises(ValidationError, match="site counts"):
            cost_columns(new_sites=[[1]], upgraded_sites=[[-1]], **args)
        # the sharers are the country's major operators, of which there is at least one
        with pytest.raises(ValidationError, match="n_major_operators"):
            country(0)
        # a generation the country holds no spectrum for has no spectrum fee to price
        g5 = StrategyBundle(Generation.G5, Backhaul.FIBER, Sharing.ACTIVE, Policy.BASELINE, EnergyStrategy.BASELINE)
        with pytest.raises(ValidationError, match="no 5G spectrum"):
            cost_columns(new_sites=[[1]], upgraded_sites=[[1]], **dict(args, strategies=[g5]))


class TestBatchedSubsidies:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.lists(
        st.tuples(st.lists(money, min_size=n, max_size=n), st.lists(money, min_size=n, max_size=n)),
        min_size=1, max_size=8)), st.randoms(use_true_random=False))
    def test_equals_per_key_loop_bit_for_bit(self, keys, rnd):
        revenue = [r for r, _ in keys]
        private = [c for _, c in keys]
        index = list(range(1, len(revenue[0]) + 1))
        rnd.shuffle(index)  # ties are broken by decile index, wherever the decile sits
        got = subsidies(revenue, private, index)
        for row, r, c in zip(got.tolist(), revenue, private):
            assert [x.hex() for x in row] == [x.hex() for x in scalar_subsidies(r, c, index)]


    def test_pool_adds_surpluses_left_to_right(self):
        # nine surpluses whose running total differs in the last bit from a
        # pairwise sum, and a deficit larger than the pool: its subsidy
        # (deficit - pool) shows the pool's bits
        surplus = [380475.37, 713257.86, 612517.8, 941000.98, 991676.72, 723676.25, 808843.81, 152865.02, 712890.26]
        revenue, private = [*surplus, 0.0], [0.0] * 9 + [1e7]
        assert np.cumsum(revenue[:9])[-1] != np.sum(revenue[:9])
        got = subsidies([revenue], [private], list(range(1, 11)))[0].tolist()
        assert [x.hex() for x in got] == [x.hex() for x in scalar_subsidies(revenue, private, list(range(1, 11)))]


class TestFinancialTotal:
    def test_single_decile_cancellation(self):
        rec = DecileCost("AAA", 1, network=100, administration=15, spectrum=10, tax=5,
                         profit=0, private_cost=130, revenue_pv=200)
        assert rec.government_cost == -15
        assert financial_cost_total([rec]) == 115

    def test_zero(self):
        assert financial_cost_total([]) == 0

    def test_invariant_to_fee_split(self):
        # moving $10 between the spectrum and tax fields leaves the total alone
        a = DecileCost("AAA", 1, 100, 0, spectrum=20, tax=0, profit=0, private_cost=120, revenue_pv=0)
        b = DecileCost("AAA", 1, 100, 0, spectrum=10, tax=10, profit=0, private_cost=120, revenue_pv=0)
        assert financial_cost_total([a]) == financial_cost_total([b])

    def test_equals_network_admin_profit_plus_subsidy(self):
        rng = np.random.default_rng(7)
        records = []
        for i in range(10):
            network = float(rng.uniform(0, 100))
            rec = private_cost(network, COSTS, Policy.BASELINE, float(rng.uniform(0, 300)),
                               spectrum_mhz=30, population=100, country_iso3="AAA", decile_index=i + 1)
            records.append(rec)
        records = cross_subsidize(records)
        expected = sum(r.network + r.administration + r.profit + r.subsidy for r in records)
        assert financial_cost_total(records) == pytest.approx(expected, rel=1e-12)


class TestCostInputsValidation:
    def test_tax_ordering_enforced(self):
        with pytest.raises(ValidationError):
            CostInputs(tax_rate_low=0.5, tax_rate_baseline=0.2, tax_rate_high=0.6)

    def test_decile_components(self):
        got = decile_components(2, 3, Backhaul.WIRELESS, COSTS)
        assert got.equipment == 5 * 40_000
        assert got.civils == 2 * 30_000
        assert got.total == 5 * 40_000 + 5 * 20_000 + 2 * 30_000 + 5 * 10_000
