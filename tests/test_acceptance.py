"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values come from the independent oracles in
``tests/oracles.py`` or from committed golden files, never from the code
under test.
"""

import dataclasses
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from bband_sim import emit_results, load_bundle, run_pipeline
from bband_sim.core import (
    AdoptionParams,
    AdoptionScenario,
    Backhaul,
    CountryParams,
    DecileRecord,
    EmissionFactors,
    EnergyParams,
    EnergyStrategy,
    FactorRow,
    Generation,
    Horizon,
    IncomeGroup,
    Policy,
    ScenarioSpec,
    Settlement,
    Sharing,
    StrategyBundle,
)
from bband_sim.cost import subsidies
from bband_sim.demand import demand_columns, per_user_busy_hour_rate
from bband_sim.energy import ENERGY_FIELDS, energy
from bband_sim.radio import (
    Carrier,
    FrequencySet,
    SimulationParams,
    build_capacity_table,
    noise_floor,
)
from reference_chains import country_sums, free_space_path_loss, se_lookup, sinr

GOLDEN = Path(__file__).resolve().parent / "golden" / "miniland"


def _passed(criterion: int, description: str) -> None:
    print(f"[ACCEPTANCE {criterion}] PASS - {description}")


def _strategy(generation=Generation.G4, backhaul=Backhaul.WIRELESS, sharing=Sharing.BASELINE,
              policy=Policy.BASELINE, energy=EnergyStrategy.BASELINE) -> StrategyBundle:
    return StrategyBundle(generation, backhaul, sharing, policy, energy)


SCENARIO_30 = ScenarioSpec(30.0, AdoptionScenario.BASELINE)


def _totals(group, *, field):
    """The sum of one column over a group's rows, added in table order."""
    table, rows = group
    if field == "financial":
        return sum(table.column("financial_cost_usd", rows).tolist())
    if field == "energy":
        return sum(table.column("energy_kwh", rows).tolist())
    raise AssertionError(field)


SPECIES = ("co2_kg", "nox_g", "sox_g", "pm10_g")

MIX = {"coal": 0.4, "gas": 0.3, "oil": 0.1, "nuclear": 0.05, "hydro": 0.05, "renewables_other": 0.1}
FACTORS = EmissionFactors(by_source={
    "coal": FactorRow(0.95, 0.9, 2.2, 0.35),
    "gas": FactorRow(0.45, 0.45, 0.01, 0.02),
    "oil": FactorRow(0.72, 1.1, 1.3, 0.09),
    "nuclear": FactorRow(0, 0, 0, 0),
    "hydro": FactorRow(0, 0, 0, 0),
    "renewables_other": FactorRow(0, 0, 0, 0),
    "diesel": FactorRow(0.8, 10.0, 4.0, 1.0),
})


def _one_year_energy(existing: int, new: int, params: EnergyParams, on_grid_share: float = 1.0) -> dict:
    """:func:`energy.energy` of one unshared, wireless, diesel key and one decile over one year, as Python floats."""
    decile = DecileRecord(country_iso3="AAA", decile_index=1, population=1, area_km2=1.0, existing_sites=existing,
                          settlement=Settlement.RURAL)
    country = CountryParams("AAA", IncomeGroup.LIC, 1, (), 0.0, 0.0, 0.0, on_grid_share, 0.0)
    out = energy([[existing]], [[new]], [decile], [_strategy()], country, params, [MIX], FACTORS)
    return {name: out[name].item() for name in ENERGY_FIELDS}


def _species_totals(table, rows) -> list[float]:
    return [sum(table.column(name, rows).tolist()) for name in SPECIES]


def test_criterion_1_equation_oracles():
    start = time.perf_counter()

    assert per_user_busy_hour_rate(30.0) == pytest.approx(oracles.busy_hour_rate_oracle(30.0), rel=1e-9)
    assert per_user_busy_hour_rate(30.0) == pytest.approx(0.33333333, rel=1e-6)

    assert noise_floor(SimulationParams(), 10e6) == pytest.approx(oracles.noise_floor_oracle(10e6), abs=1e-9)
    assert noise_floor(SimulationParams(), 10e6) == pytest.approx(-102.48, abs=0.05)

    assert free_space_path_loss(0.5, 3500.0) == pytest.approx(oracles.fspl_oracle(0.5, 3500.0), abs=1e-9)
    assert free_space_path_loss(0.5, 3500.0) == pytest.approx(97.30, abs=0.01)

    params = EnergyParams(site_kwh_per_hour=0.249, backhaul_wireless_kwh_per_hour=0.0)
    got = _one_year_energy(10, 0, params)
    assert got["energy_kwh"] == pytest.approx(oracles.annual_site_energy_oracle(10, 0.249), rel=1e-12)
    assert got["energy_kwh"] == pytest.approx(21_812.4, abs=1e-9)

    # one user, always connected, paying $100 a year for 8 years at 5%
    decile = DecileRecord(country_iso3="AAA", decile_index=1, population=1, area_km2=1.0, existing_sites=0,
                          settlement=Settlement.SUBURBAN)
    country = CountryParams("AAA", IncomeGroup.LIC, 1, (), *[100.0 / 12.0] * 3, 1.0, 0.0)
    adoption = AdoptionParams(1.0, 1.0, 1.0, 1.0, {IncomeGroup.LIC: {AdoptionScenario.BASELINE: 0.0}})
    horizon = Horizon(2023, 2030, 0.05)
    pv = demand_columns([decile], country, adoption, horizon, [SCENARIO_30])["revenue_pv_usd"].item()
    assert pv == pytest.approx(oracles.annuity_pv_oracle(100.0, 0.05, 8), rel=1e-12)
    assert pv == pytest.approx(646.32, abs=0.01)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"equation oracles match independent hand calculations ({elapsed * 1000:.0f} ms)")


def test_criterion_2_radio_properties(bundle):
    start = time.perf_counter()
    se_table = bundle.se_table
    params = SimulationParams(trials=10_000, seed=314)
    grid = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    fs = FrequencySet(Generation.G4, (Carrier(800, 10), Carrier(1800, 10), Carrier(2500, 10)))

    # SE lookup monotone at every row boundary
    for gen in Generation:
        for min_sinr, _ in se_table.rows[gen]:
            low = float(se_lookup(se_table, min_sinr - 0.01, gen))
            high = float(se_lookup(se_table, min_sinr + 0.01, gen))
            assert low <= float(se_lookup(se_table, min_sinr, gen)) <= high

    # an extra interferer never raises SINR
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = float(rng.uniform(-120, -40))
        base = list(rng.uniform(-130, -60, size=int(rng.integers(0, 6))))
        extra = base + [float(rng.uniform(-130, -60))]
        assert sinr(s, extra, -100.0) <= sinr(s, base, -100.0)

    # capacity table monotone in density; threads do not change a single bit
    table_serial = build_capacity_table(params, se_table, fs, grid, jobs=1)
    table_threaded = build_capacity_table(params, se_table, fs, grid, jobs=4)
    assert table_serial.rows == table_threaded.rows
    caps = [c for _, c in table_serial.rows]
    assert all(b >= a for a, b in zip(caps, caps[1:]))

    # monotone in bandwidth: an extra carrier never reduces capacity
    wider = FrequencySet(Generation.G4, (*fs.carriers, Carrier(2600.0, 10.0)))
    table_wider = build_capacity_table(params, se_table, wider, grid, jobs=4)
    for (_, base_cap), (_, wide_cap) in zip(table_serial.rows, table_wider.rows):
        assert wide_cap >= base_cap

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(2, f"radio invariants hold at 10,000 trials x 8 densities ({elapsed:.1f} s)")


@pytest.fixture(scope="module")
def directional_runs(bundle, table_cache):
    runs = [
        (_strategy(Generation.G4, Backhaul.WIRELESS), SCENARIO_30),
        (_strategy(Generation.G4, Backhaul.FIBER), SCENARIO_30),
        (_strategy(Generation.G5, Backhaul.WIRELESS), SCENARIO_30),
        (_strategy(Generation.G5, Backhaul.FIBER), SCENARIO_30),
        (_strategy(sharing=Sharing.PASSIVE), SCENARIO_30),
        (_strategy(sharing=Sharing.ACTIVE), SCENARIO_30),
        (_strategy(sharing=Sharing.SRN), SCENARIO_30),
    ]
    out = run_pipeline(bundle, runs, cache_dir=table_cache)
    assert not out.failures
    table = out.results
    key = zip(*(table.column(f).tolist() for f in ("generation", "backhaul", "sharing")))
    grouped = {}
    for row, (generation, backhaul, sharing) in enumerate(key):
        grouped.setdefault((Generation(generation), Backhaul(backhaul), Sharing(sharing)), []).append(row)
    return {k: (table, np.array(rows)) for k, rows in grouped.items()}


def test_criterion_3_directional_claims(directional_runs):
    g = directional_runs
    cost_4w = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.BASELINE)], field="financial")
    cost_4f = _totals(g[(Generation.G4, Backhaul.FIBER, Sharing.BASELINE)], field="financial")
    cost_5w = _totals(g[(Generation.G5, Backhaul.WIRELESS, Sharing.BASELINE)], field="financial")
    cost_5f = _totals(g[(Generation.G5, Backhaul.FIBER, Sharing.BASELINE)], field="financial")

    assert cost_5w < cost_4w
    assert cost_5f < cost_4f
    assert cost_4f > cost_4w
    assert cost_5f > cost_5w

    energy_4w = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.BASELINE)], field="energy")
    energy_4f = _totals(g[(Generation.G4, Backhaul.FIBER, Sharing.BASELINE)], field="energy")
    assert energy_4w > energy_4f

    cost_baseline = cost_4w
    cost_passive = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.PASSIVE)], field="financial")
    cost_active = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.ACTIVE)], field="financial")
    cost_srn = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.SRN)], field="financial")
    assert cost_active <= cost_srn <= cost_baseline
    assert cost_passive <= cost_baseline

    energy_baseline = energy_4w
    energy_passive = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.PASSIVE)], field="energy")
    energy_active = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.ACTIVE)], field="energy")
    energy_srn = _totals(g[(Generation.G4, Backhaul.WIRELESS, Sharing.SRN)], field="energy")
    assert energy_active <= energy_srn <= energy_baseline
    assert energy_passive == energy_baseline  # exact, not approximate

    _passed(3, "technology, backhaul and sharing orderings all hold on miniland")


def test_criterion_4_linearity_and_conservation(bundle, table_cache):
    # doubling site counts doubles energy and every species exactly
    params = EnergyParams()
    for existing, new in ((7, 5), (120, 33), (0, 9)):
        single = _one_year_energy(existing, new, params, 0.67)
        double = _one_year_energy(2 * existing, 2 * new, params, 0.67)
        for name in ("energy_kwh", *SPECIES):
            assert double[name] == 2.0 * single[name], name

    # on-grid + off-grid conserves the total to 1e-12 relative
    for share in (0.0, 0.17, 1 / 3, 0.53, 0.67, 0.94, 1.0):
        got = _one_year_energy(1, 0, EnergyParams(98765.4321 / 8760, backhaul_wireless_kwh_per_hour=0.0), share)
        assert got["energy_kwh"] == pytest.approx(98765.4321, rel=1e-12)
        assert got["on_grid_kwh"] + got["off_grid_kwh"] == pytest.approx(got["energy_kwh"], rel=1e-12)

    # decile -> country -> global aggregation to 1e-9 relative
    out = run_pipeline(bundle, [(_strategy(), SCENARIO_30)], cache_dir=table_cache)
    fields = ("financial_cost_usd", "energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g")
    rows = country_sums(out.results, fields).values()
    for field in fields:
        decile_total = sum(out.results.column(field).tolist())
        country_total = sum(row[field] for row in rows)
        assert country_total == pytest.approx(decile_total, rel=1e-9)

    _passed(4, "linearity, on/off-grid conservation and aggregation identities hold")


def test_criterion_5_renewables_strategy(bundle, table_cache, tmp_path):
    runs = [
        (_strategy(energy=EnergyStrategy.BASELINE), SCENARIO_30),
        (_strategy(energy=EnergyStrategy.RENEWABLES), SCENARIO_30),
    ]
    out = run_pipeline(bundle, runs, cache_dir=table_cache)
    strategy = out.results.column("energy_strategy")
    base = _species_totals(out.results, strategy == EnergyStrategy.BASELINE.value)
    green = _species_totals(out.results, strategy == EnergyStrategy.RENEWABLES.value)
    # both miniland countries have on_grid_share < 1
    assert all(g < b for g, b in zip(green, base))

    # with fully on-grid countries the two strategies are byte-identical
    fully_on = dataclasses.replace(
        bundle,
        countries={
            iso3: dataclasses.replace(c, on_grid_share=1.0) for iso3, c in bundle.countries.items()
        },
    )
    dir_a = tmp_path / "baseline"
    dir_b = tmp_path / "renewables"
    emit_results(run_pipeline(fully_on, runs[:1], cache_dir=table_cache).results, dir_a)
    emit_results(run_pipeline(fully_on, runs[1:], cache_dir=table_cache).results, dir_b)
    for name in ("results_decile.csv", "results_country.csv"):
        bytes_a = (dir_a / name).read_bytes()
        bytes_b = (dir_b / name).read_bytes()
        # only the energy_strategy label may differ; every numeric byte must match
        assert bytes_b.replace(b"renewables", b"baseline") == bytes_a, name

    _passed(5, "renewables cut every species when off-grid exists; no-op when fully on-grid")


def test_criterion_6_policy_monotonicity(bundle, table_cache):
    policies = [Policy.LOW_TAX, Policy.BASELINE, Policy.HIGH_TAX, Policy.LOW_SPECTRUM, Policy.HIGH_SPECTRUM]
    runs = [(_strategy(policy=p), SCENARIO_30) for p in policies]
    out = run_pipeline(bundle, runs, cache_dir=table_cache)
    table = out.results
    totals = {}
    expected = {}
    for policy, financial, network, administration, profit, subsidy in zip(
            *(table.column(name).tolist() for name in ("policy", "financial_cost_usd", "network_usd",
                                                        "administration_usd", "profit_usd", "subsidy_usd"))):
        policy = Policy(policy)
        totals[policy] = totals.get(policy, 0.0) + financial
        expected[policy] = expected.get(policy, 0.0) + network + administration + profit + subsidy

    assert totals[Policy.LOW_TAX] <= totals[Policy.BASELINE] <= totals[Policy.HIGH_TAX]
    assert totals[Policy.LOW_SPECTRUM] <= totals[Policy.BASELINE] <= totals[Policy.HIGH_SPECTRUM]

    # spectrum and tax receipts cancel between operator and state: the total
    # equals network + administration + profit + subsidy, to 1e-9 relative
    for policy, total in totals.items():
        assert total == pytest.approx(expected[policy], rel=1e-9)

    _passed(6, "financial cost is monotone along both policy axes; fee cancellation holds")


def test_criterion_7_golden_run(bundle, tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "out"
    result = run_pipeline(bundle, jobs=2, cache_dir=tmp_path / "cache")
    assert not result.failures
    assert len(result.results) == 1440 * 20
    assert not result.results.column("unserviceable").any()
    paths = emit_results(result.results, out_dir)

    recorded = {}
    for line in (GOLDEN / "checksums.sha256").read_text().splitlines():
        digest, name = line.split()
        recorded[name] = digest
    assert set(recorded) == {p.name for p in paths}
    for path in paths:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[path.name], path.name
    for name in ("summary_by_technology.csv", "summary_by_sharing.csv", "summary_by_policy.csv", "summary_emissions.csv"):
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(7, f"full 1440-run matrix is byte-identical to the committed golden files ({elapsed:.1f} s)")


def test_criterion_8_cross_subsidy_oracle():
    rng = np.random.default_rng(2023)
    for _ in range(1000):
        revenues = rng.uniform(0, 500, 10)
        private = rng.uniform(0, 500, 10)
        out = subsidies([revenues], [private], range(1, 11))[0].tolist()

        deficits = np.maximum(0.0, private - revenues)
        surplus = np.maximum(0.0, revenues - private).sum()
        expected_total = max(0.0, deficits.sum() - surplus)
        got_total = sum(out)
        assert got_total == pytest.approx(expected_total, abs=1e-6)
        for subsidy, deficit in zip(out, deficits):
            grant = deficit - subsidy
            assert -1e-9 <= grant <= deficit + 1e-9  # never exceed a decile's deficit

        oracle_subsidies, oracle_total = oracles.cross_subsidy_oracle(list(revenues), list(private))
        assert got_total == pytest.approx(oracle_total, abs=1e-6)
        for subsidy, expected in zip(out, oracle_subsidies):
            assert subsidy == pytest.approx(expected, abs=1e-6)

    _passed(8, "cross-subsidy allocation matches the brute-force oracle over 1,000 cases")
