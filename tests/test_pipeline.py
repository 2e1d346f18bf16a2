import csv
import dataclasses
import itertools
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bband_sim import load_bundle, pipeline, radio

from bband_sim.core import (
    AXES,
    STAGE_AXES,
    AdoptionScenario,
    Backhaul,
    Deciles,
    EnergyStrategy,
    Generation,
    Policy,
    ScenarioSpec,
    Sharing,
    StrategyBundle,
    enumerate_runs,
    run_key,
)
from bband_sim.cli import RUN_FILTER_VALUES, parse_run_filter
from bband_sim.cost import cost_columns
from bband_sim.demand import demand_columns
from bband_sim.dimensioning import site_counts
from bband_sim.energy import energy
from bband_sim.errors import ValidationError
from bband_sim.pipeline import (
    COUNTRY_COLUMNS,
    DECILE_COLUMNS,
    EMIT_BLOCK,
    RUN_KEY_COLUMNS,
    STAGE_COLUMNS,
    PipelineOutput,
    ResultTable,
    emit_results,
    format_rows,
    run_pipeline,
)
from reference_chains import DecileCost, country_sums, decile_line, sites_chain, summary_lines

BASELINE_RUN = (
    StrategyBundle(Generation.G4, Backhaul.WIRELESS, Sharing.BASELINE, Policy.BASELINE, EnergyStrategy.BASELINE),
    ScenarioSpec(30.0, AdoptionScenario.BASELINE),
)


def single_run(bundle, table_cache, run=BASELINE_RUN, **kwargs):
    return run_pipeline(bundle, [run], cache_dir=table_cache, **kwargs)


@pytest.fixture(scope="module")
def baseline_output(bundle, table_cache) -> PipelineOutput:
    return single_run(bundle, table_cache)


@pytest.fixture(scope="module")
def full_matrix(bundle, table_cache, tmp_path_factory):
    """The full miniland matrix's result table, and the directory its result files are written to."""
    out = run_pipeline(bundle, cache_dir=table_cache)
    assert not out.failures
    out_dir = tmp_path_factory.mktemp("full_matrix")
    emit_results(out.results, out_dir)
    return out.results, out_dir


def stage_keys(runs, stage: str) -> set[tuple]:
    """The distinct keys of ``stage`` over ``runs``: each run key's values on the axes ``STAGE_AXES`` declares."""
    names = [axis.name for axis in AXES]
    return {tuple(key[names.index(a)] for a in STAGE_AXES[stage]) for key in (run_key(*r) for r in runs)}


def rows(table: ResultTable) -> list[tuple]:
    """Each row of ``table`` in table order: its run, then its ``results_decile.csv`` values."""
    runs = [table.runs[i] for i in table.run.tolist()]
    return list(zip(runs, *(table.column(name).tolist() for name in DECILE_COLUMNS)))


def emitted(table: ResultTable, out_dir) -> dict[str, bytes]:
    """The bytes of each file ``emit_results`` writes for ``table``, by name."""
    return {path.name: path.read_bytes() for path in emit_results(table, out_dir)}


class TestRunPipeline:
    def test_one_run_yields_twenty_rows(self, baseline_output):
        table = baseline_output.results
        assert len(table) == 20
        assert not baseline_output.failures
        countries = set(table.column("country_iso3").tolist())
        assert countries == {"MLA", "MLB"}
        for iso3 in countries:
            indices = sorted(table.column("decile_index")[table.column("country_iso3") == iso3].tolist())
            assert indices == list(range(1, 11))

    def test_no_runs_yield_an_empty_table(self, bundle, table_cache, tmp_path):
        out = run_pipeline(bundle, [], cache_dir=table_cache)
        assert (len(out.results), out.failures, rows(out.results)) == (0, [], [])
        emit_results(out.results, tmp_path)
        assert (tmp_path / "results_decile.csv").read_text() == ",".join(DECILE_COLUMNS) + "\n"

    def test_no_unserviceable_deciles(self, baseline_output):
        assert not baseline_output.results.column("unserviceable").any()

    def test_same_seed_identical_rows(self, bundle, table_cache, baseline_output):
        again = single_run(bundle, table_cache)
        assert rows(again.results) == rows(baseline_output.results)

    def test_jobs_do_not_change_results(self, bundle, table_cache, baseline_output):
        runs = [BASELINE_RUN,
                (BASELINE_RUN[0], ScenarioSpec(20.0, AdoptionScenario.LOW)),
                (BASELINE_RUN[0], ScenarioSpec(40.0, AdoptionScenario.HIGH))]
        serial = run_pipeline(bundle, runs, cache_dir=table_cache, jobs=1)
        threaded = run_pipeline(bundle, runs, cache_dir=table_cache, jobs=4)
        assert rows(serial.results) == rows(threaded.results)

    def test_failure_contained(self, bundle, table_cache, monkeypatch):
        import bband_sim.pipeline as pl

        real = pl.energy

        def explode(existing, new, deciles, strategies, *args):
            if any(s.sharing == Sharing.ACTIVE for s in strategies):
                raise ValidationError("synthetic failure")
            return real(existing, new, deciles, strategies, *args)

        monkeypatch.setattr(pl, "energy", explode)
        strategy, scenario = BASELINE_RUN
        low_tax = dataclasses.replace(strategy, policy=Policy.LOW_TAX)
        active = dataclasses.replace(strategy, sharing=Sharing.ACTIVE)
        active_low_tax = dataclasses.replace(active, policy=Policy.LOW_TAX)
        # the two failing runs differ only in policy, so they share one energy key
        runs = [BASELINE_RUN, (active, scenario), (active_low_tax, scenario), (low_tax, scenario)]
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        assert [(f.strategy, f.scenario) for f in out.failures] == [(active, scenario), (active_low_tax, scenario)]
        assert all("synthetic failure" in f.error for f in out.failures)
        assert len(out.results) == 40  # the healthy runs still completed
        assert {run[0] for run, *_ in rows(out.results)} == {strategy, low_tax}

    def test_failing_key_fails_alone_inside_its_batch(self, bundle, table_cache, monkeypatch):
        import bband_sim.pipeline as pl

        strategy, scenario = BASELINE_RUN
        runs = [(dataclasses.replace(strategy, sharing=sharing, policy=policy, energy_strategy=e), scenario)
                for sharing in Sharing for policy in (Policy.BASELINE, Policy.HIGH_TAX) for e in EnergyStrategy]
        real_cost, real_energy, cost_batches = pl.cost_columns, pl.energy, []

        def cost(*args):
            strategies, country = args[4], args[5]
            cost_batches.append(len(strategies))
            if country.country_iso3 == "MLB" and (Sharing.ACTIVE, Policy.HIGH_TAX) in {
                    (s.sharing, s.policy) for s in strategies}:
                raise ValidationError("cost key failed in MLB")
            return real_cost(*args)

        def energy(existing, new, deciles, strategies, country, *args):
            # MLA's actively shared, diesel-free key
            if country.country_iso3 == "MLA" and (Sharing.ACTIVE, EnergyStrategy.RENEWABLES) in {
                    (s.sharing, s.energy_strategy) for s in strategies}:
                raise ValidationError("energy key failed in MLA")
            return real_energy(existing, new, deciles, strategies, country, *args)

        monkeypatch.setattr(pl, "cost_columns", cost)
        monkeypatch.setattr(pl, "energy", energy)
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        monkeypatch.undo()

        # 8 cost keys per country: MLA's batch passes, MLB's fails and runs again key by key
        assert cost_batches == [8, 8] + [1] * 8
        # a run needing both failing keys reports MLA's: countries come first, then sites, cost, energy
        assert [(f.strategy.sharing, f.strategy.policy, f.strategy.energy_strategy, f.error) for f in out.failures] == [
            (Sharing.ACTIVE, Policy.BASELINE, EnergyStrategy.RENEWABLES, "ValidationError: energy key failed in MLA"),
            (Sharing.ACTIVE, Policy.HIGH_TAX, EnergyStrategy.BASELINE, "ValidationError: cost key failed in MLB"),
            (Sharing.ACTIVE, Policy.HIGH_TAX, EnergyStrategy.RENEWABLES, "ValidationError: energy key failed in MLA"),
        ]
        failed = [(f.strategy, f.scenario) for f in out.failures]
        healthy = [run for run in runs if run not in failed]
        assert rows(out.results) == rows(run_pipeline(bundle, healthy, cache_dir=table_cache).results)

    def test_every_run_failing_keeps_the_runs_given(self, bundle, table_cache, tmp_path, monkeypatch):
        def fail(*args):
            raise ValidationError("no sites")

        monkeypatch.setattr(pipeline, "site_counts", fail)
        strategy, scenario = BASELINE_RUN
        runs = [BASELINE_RUN, (dataclasses.replace(strategy, policy=Policy.LOW_TAX), scenario)]
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        assert len(out.results) == 0
        assert list(out.results.runs) == runs
        assert [(f.strategy, f.scenario, f.error) for f in out.failures] == [(*run, "ValidationError: no sites")
                                                                             for run in runs]
        files = emitted(out.results, tmp_path)
        assert len(files) == 6
        assert files["results_decile.csv"] == (",".join(DECILE_COLUMNS) + "\n").encode()
        assert all(text.count(b"\n") == 1 for text in files.values())

    def test_non_finite_key_fails_alone_inside_its_batch(self, bundle, table_cache, monkeypatch):
        real = pipeline.cost_columns

        def cost(*args):
            out = real(*args)
            strategies = args[4]
            out["tax_usd"][[s.policy == Policy.HIGH_TAX for s in strategies]] = math.inf
            return out

        monkeypatch.setattr(pipeline, "cost_columns", cost)
        strategy, scenario = BASELINE_RUN
        runs = [(dataclasses.replace(strategy, policy=policy), scenario) for policy in Policy]
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        assert [(f.strategy.policy, f.error) for f in out.failures] == [
            (Policy.HIGH_TAX, "ValidationError: cost stage: non-finite tax_usd")]
        assert len(out.results) == 20 * (len(runs) - 1)
        assert np.isfinite(out.results.column("tax_usd")).all()

    def test_energy_computed_once_across_policies(self, bundle, table_cache, monkeypatch):
        import bband_sim.pipeline as pl

        calls = []
        real = pl.energy

        def counted(*args):
            calls.append(len(args[0]))  # keys in this kernel call
            return real(*args)

        monkeypatch.setattr(pl, "energy", counted)
        strategy, scenario = BASELINE_RUN
        runs = [(dataclasses.replace(strategy, policy=policy), scenario) for policy in Policy]
        assert len(runs) == 5
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        assert not out.failures
        assert len(out.results) == 5 * 20
        assert len(calls) == 2  # one kernel call per country
        assert sum(calls) == 2  # each country's one energy key once, not once per policy

    def test_each_energy_key_computed_once_over_the_matrix(self, bundle, table_cache, monkeypatch):
        import bband_sim.pipeline as pl

        calls = []
        real = pl.energy

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(pl, "energy", counted)
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        assert not out.failures
        # one call per country, each over every energy key
        assert calls == [len(stage_keys(runs, "energy"))] * 2

    def test_stage_key_counts_follow_the_declaration(self, bundle, table_cache, caplog):
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
        with caplog.at_level(logging.INFO, logger="bband_sim"):
            assert not run_pipeline(bundle, runs, cache_dir=table_cache).failures
        counts = {stage: len(stage_keys(runs, stage)) * len(bundle.countries) for stage in STAGE_AXES}
        assert counts == {"sites": 36, "cost": 1440, "energy": 576}
        for stage, n in counts.items():  # what ``-v`` logs
            assert f"stage {stage}: {n} keys," in caplog.text

    def test_stage_axes_are_neither_too_narrow_nor_too_wide(self, bundle, table_cache):
        # run_pipeline hands each stage key's first run to the kernels, so a kernel reading an axis outside
        # its key would pass every other test. Here each run of the matrix is its own key, on MLA's deciles.
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
        strategies, iso3 = [s for s, _ in runs], "MLA"
        country, ds = bundle.countries[iso3], Deciles.of(bundle.regions[iso3], iso3, bundle.settlement_thresholds)
        tables, horizon = pipeline.capacity_tables(bundle, cache_dir=table_cache), bundle.scenario_space.horizon
        demand = demand_columns(ds, country, bundle.adoption, horizon, [sc for _, sc in runs])
        sites = {**demand, **site_counts(demand["demand_mbps_km2"], [tables[iso3, s.generation] for s in strategies], ds)}
        stages = {
            "sites": sites,
            "cost": cost_columns(sites["new_sites"], sites["upgraded_sites"], sites["revenue_pv_usd"], ds,
                                 strategies, country, bundle.cost_inputs),
            "energy": energy(sites["existing_sites"], sites["new_sites"], ds, strategies, country,
                             bundle.energy_params, [bundle.energy_mix[iso3][y] for y in horizon.years()],
                             bundle.emission_factors),
        }
        names = [axis.name for axis in AXES]
        keys = [run_key(*r) for r in runs]
        for stage, columns in stages.items():
            bits = [b"".join(column[i].tobytes() for column in columns.values()) for i in range(len(runs))]

            def outputs_by_key(axes):
                groups = {}
                for key, run_bits in zip(keys, bits):
                    groups.setdefault(tuple(key[names.index(a)] for a in axes), set()).add(run_bits)
                return groups.values()

            # too narrow: runs sharing a key differ in some column
            assert all(len(group) == 1 for group in outputs_by_key(STAGE_AXES[stage])), stage
            for axis in STAGE_AXES[stage]:  # too wide: an axis that changes no column
                assert any(len(group) > 1 for group in outputs_by_key(set(STAGE_AXES[stage]) - {axis})), (stage, axis)

    def test_demand_computed_once_per_country_and_scenario(self, bundle, table_cache, monkeypatch):
        import bband_sim.pipeline as pl

        computed = []
        real = pl.demand_columns

        def counted(deciles, country, adoption, horizon, scenarios):
            computed.extend((country.country_iso3, scenario) for scenario in scenarios)
            return real(deciles, country, adoption, horizon, scenarios)

        monkeypatch.setattr(pl, "demand_columns", counted)
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        assert not out.failures
        # 9 scenarios per country, not once per (generation, scenario) sites key
        assert sorted(computed, key=str) == sorted(
            ((iso3, sc) for iso3 in bundle.countries for sc in {sc for _, sc in runs}), key=str)
        assert len(computed) == 2 * 9

    def test_cache_files_created_and_reused(self, bundle, tmp_path):
        cache = tmp_path / "cache"
        first = run_pipeline(bundle, [BASELINE_RUN], cache_dir=cache)
        files = sorted(cache.glob("*.csv"))
        assert files, "expected capacity table cache files"
        mtimes = [f.stat().st_mtime_ns for f in files]
        second = run_pipeline(bundle, [BASELINE_RUN], cache_dir=cache)
        assert [f.stat().st_mtime_ns for f in sorted(cache.glob('*.csv'))] == mtimes
        assert rows(first.results) == rows(second.results)

    def test_cold_tables_simulate_each_distinct_carrier_once(self, bundle, monkeypatch):
        small = dataclasses.replace(bundle, sim_params=dataclasses.replace(bundle.sim_params, trials=200))
        builds, sims = [], []
        build, simulate = radio.build_capacity_tables, radio.carrier_capacity
        monkeypatch.setattr(pipeline, "build_capacity_tables", lambda *a, **k: builds.append(a[2]) or build(*a, **k))
        monkeypatch.setattr(radio, "carrier_capacity", lambda *a, **k: sims.append(a[2:5]) or simulate(*a, **k))
        tables = pipeline.capacity_tables(small)
        # one build call of the 4 lookups, which hold 3 distinct tables, even without a cache
        assert [(len(sets), len(set(sets))) for sets in builds] == [(4, 3)]
        # MLA and MLB hold the same 4G carriers and share 700x10 in 5G: 6 distinct carriers, not 10
        assert len(sims) == len(set(sims)) == 6 * len(small.density_grid)
        monkeypatch.undo()
        for (iso3, gen), table in tables.items():
            fs = small.countries[iso3].frequency_set(gen)
            assert table == radio.build_capacity_table(small.sim_params, small.se_table, fs, small.density_grid)

    def test_shared_cache_file_read_once_per_call(self, bundle, table_cache, monkeypatch):
        warm = pipeline.capacity_tables(bundle, cache_dir=table_cache)
        reads = []
        load = radio.load_capacity_tables
        monkeypatch.setattr(radio, "load_capacity_tables", lambda path: reads.append(path) or load(path))
        tables = pipeline.capacity_tables(bundle, cache_dir=table_cache)
        # MLA and MLB hold the same 4G carriers: 4 lookups of 3 distinct files
        assert len(tables) == 4
        assert len(reads) == len(set(reads)) == 3
        assert tables == warm

    def test_cold_call_reads_no_cache_file(self, bundle, tmp_path, monkeypatch):
        small = dataclasses.replace(bundle, sim_params=dataclasses.replace(bundle.sim_params, trials=200))
        reads = []
        load = radio.load_capacity_tables
        monkeypatch.setattr(radio, "load_capacity_tables", lambda path: reads.append(path) or load(path))
        tables = pipeline.capacity_tables(small, cache_dir=tmp_path / "cache")
        # the shared 4G table is built once and serves both countries without a read back
        assert len(tables) == 4
        assert reads == []
        assert len(list((tmp_path / "cache").glob("*.csv"))) == 3

    @pytest.mark.parametrize("damage", [
        "truncate", "garbage", "oversized",
        *(f"{cell}={value}" for cell in ("density", "capacity") for value in ("nan", "inf", "-inf")),
    ])
    def test_damaged_cache_file_rebuilt_with_warning(self, bundle, baseline_output, tmp_path, caplog, damage):
        cache = tmp_path / "cache"
        run_pipeline(bundle, [BASELINE_RUN], cache_dir=cache)
        files = sorted(cache.glob("*.csv"))
        assert files
        for f in files:
            lines = f.read_text().splitlines(keepends=True)
            if damage == "truncate":
                f.write_text("".join(lines[:4]))
            elif damage == "garbage":
                f.write_text(lines[0] + "4G,x,not-a-number,1\n")
            elif damage == "oversized":  # a stray quote runs one field past csv's size limit
                f.write_text("".join(lines) + '"' + "x" * 140_000)
            else:  # one cell of the last row, e.g. "capacity=inf"
                cell, value = damage.split("=")
                last = lines[-1].rstrip("\n").split(",")
                last[2 if cell == "density" else 3] = value
                f.write_text("".join(lines[:-1]) + ",".join(last) + "\n")
        with caplog.at_level(logging.WARNING, logger="bband_sim.pipeline"):
            again = run_pipeline(bundle, [BASELINE_RUN], cache_dir=cache)
        assert rows(again.results) == rows(baseline_output.results)
        assert "rebuilding" in caplog.text
        assert [r.levelno for r in caplog.records] == [logging.WARNING] * len(files)
        assert sorted(cache.iterdir()) == files  # rewritten in place, no temporary files left
        assert all(len(f.read_text().splitlines()) == 1 + len(bundle.density_grid) for f in files)


class TestAggregation:
    def test_decile_to_country_to_global_consistency(self, baseline_output):
        table = baseline_output.results
        fields = ["financial_cost_usd", "energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g", "revenue_pv_usd"]
        country_rows = country_sums(table, [*fields, "total_sites"]).values()
        assert len(country_rows) == 2
        for field in fields:
            decile_total = sum(table.column(field).tolist())
            country_total = sum(row[field] for row in country_rows)
            assert country_total == pytest.approx(decile_total, rel=1e-9)
        assert sum(row["total_sites"] for row in country_rows) == sum(table.column("total_sites").tolist())

    def test_summary_files_equal_a_left_to_right_fold(self, full_matrix):
        cost_energy = ("financial_cost_usd", "energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g")
        costs = ("financial_cost_usd", "private_cost_usd", "government_cost_usd", "subsidy_usd")
        summaries = {  # each file's group fields, value columns and baseline filter
            "summary_by_technology.csv": (
                ("generation", "backhaul", "capacity_gb_month", "adoption"), cost_energy,
                {"sharing": "baseline", "policy": "baseline", "energy_strategy": "baseline"}),
            "summary_by_sharing.csv": (
                ("sharing",), cost_energy, {"policy": "baseline", "energy_strategy": "baseline"}),
            "summary_by_policy.csv": (
                ("policy",), costs, {"sharing": "baseline", "energy_strategy": "baseline"}),
            "summary_emissions.csv": (
                ("energy_strategy", "generation", "backhaul"), cost_energy[1:],
                {"sharing": "baseline", "policy": "baseline"}),
        }
        table, out_dir = full_matrix
        for name, (group, values, baseline) in summaries.items():
            assert (out_dir / name).read_text().splitlines() == summary_lines(table, group, values, baseline)

    def test_country_file_equals_a_left_to_right_fold(self, full_matrix):
        # written out here, not read from pipeline.COUNTRY_COLUMNS, so the oracle shares no spec with the code
        values = (
            "population", "total_sites", "new_sites", "upgraded_sites", ("unserviceable_deciles", "unserviceable"),
            "revenue_pv_usd", "network_usd", "administration_usd", "spectrum_usd", "tax_usd", "profit_usd",
            "private_cost_usd", "subsidy_usd", "government_cost_usd", "financial_cost_usd", "energy_kwh",
            "on_grid_kwh", "off_grid_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g",
        )
        group = ("country_iso3", "generation", "backhaul", "sharing", "policy", "energy_strategy",
                 "capacity_gb_month", "adoption")
        table, out_dir = full_matrix
        lines = (out_dir / "results_country.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 1440
        assert lines == summary_lines(table, group, values, baseline={})


class TestSitesColumns:
    def test_equals_scalar_chain_bit_for_bit(self, bundle, table_cache, full_matrix):
        # every row of the full matrix: 360 (country, sites key, decile) chains
        table, tables = full_matrix[0], pipeline.capacity_tables(bundle, cache_dir=table_cache)
        names = STAGE_COLUMNS["sites"]
        keys = zip(*(table.column(f).tolist() for f in ("country_iso3", "generation", "capacity_gb_month", "adoption")))
        chains = {}
        for key in set(keys):
            iso3, generation, capacity, adoption = key
            deciles = Deciles.of(bundle.regions[iso3], iso3, bundle.settlement_thresholds)
            chain = sites_chain(deciles, bundle.countries[iso3], bundle.adoption, bundle.scenario_space.horizon,
                                ScenarioSpec(capacity, AdoptionScenario(adoption)), tables[iso3, Generation(generation)])
            chains.update({(*key, i): tuple(row[n] for n in names) for i, row in enumerate(chain, start=1)})
        assert len(chains) == 360
        row_keys = zip(*(table.column(f).tolist()
                         for f in ("country_iso3", "generation", "capacity_gb_month", "adoption", "decile_index")))
        got = [tuple(x.hex() if isinstance(x, float) else x for x in row)
               for row in zip(*(table.column(n).tolist() for n in names))]
        want = [tuple(x.hex() if isinstance(x, float) else x for x in chains[key]) for key in row_keys]
        assert got == want


class TestDecileLines:
    def test_sampled_runs_equal_the_scalar_chains_line_for_line(self, bundle, table_cache, full_matrix):
        # the first run with each value of each axis, and every 13th run: each of their rows, formatted from the
        # scalar chains, is its line of results_decile.csv (row i is line i + 2)
        table, out_dir = full_matrix
        keys = [run_key(*r) for r in table.runs]
        sample = {next(i for i, k in enumerate(keys) if k[a] == v)
                  for a in range(len(AXES)) for v in {k[a] for k in keys}}
        sample |= set(range(0, len(keys), 13))
        assert len(sample) == 125
        tables = pipeline.capacity_tables(bundle, cache_dir=table_cache)
        lines = (out_dir / "results_decile.csv").read_text().splitlines()
        rows = np.flatnonzero(np.isin(table.run, sorted(sample)))
        assert len(rows) == 20 * len(sample)
        got = [lines[i + 1] for i in rows.tolist()]
        want = [decile_line(bundle, tables, table.runs[run], iso3, decile) for run, iso3, decile in
                zip(table.run[rows].tolist(), table.column("country_iso3", rows).tolist(),
                    table.column("decile_index", rows).tolist())]
        assert got == want


class TestEmitResults:
    def test_files_written(self, baseline_output, tmp_path):
        paths = emit_results(baseline_output.results, tmp_path)
        names = {p.name for p in paths}
        assert names == {
            "results_decile.csv", "results_country.csv", "summary_by_technology.csv",
            "summary_by_sharing.csv", "summary_by_policy.csv", "summary_emissions.csv",
        }
        with (tmp_path / "results_decile.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20

    def test_empty_results_headers_only(self, bundle, table_cache, tmp_path):
        emit_results(run_pipeline(bundle, [], cache_dir=table_cache).results, tmp_path)
        for name in ("results_decile.csv", "results_country.csv", "summary_by_sharing.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) == 1

    def test_idempotent_bytes(self, baseline_output, tmp_path):
        emit_results(baseline_output.results, tmp_path)
        first = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        emit_results(baseline_output.results, tmp_path)
        second = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        assert first == second

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_block_size_does_not_change_bytes(self, bundle, table_cache, tmp_path, monkeypatch, block):
        # 48 runs, 960 rows in one default block; small blocks end inside (country, decile) groups
        table = run_pipeline(bundle, filtered_runs(bundle, "policy=baseline,energy=baseline,adoption=baseline"),
                             cache_dir=table_cache).results
        want = emitted(table, tmp_path / "default")
        monkeypatch.setattr(pipeline, "EMIT_BLOCK", block)
        assert emitted(table, tmp_path / "small") == want

    def test_country_file_matches_decile_sums(self, baseline_output, tmp_path):
        emit_results(baseline_output.results, tmp_path)
        with (tmp_path / "results_decile.csv").open() as fh:
            deciles = list(csv.DictReader(fh))
        with (tmp_path / "results_country.csv").open() as fh:
            countries = list(csv.DictReader(fh))
        for iso3 in ("MLA", "MLB"):
            decile_sum = sum(float(r["financial_cost_usd"]) for r in deciles if r["country_iso3"] == iso3)
            country_val = sum(float(r["financial_cost_usd"]) for r in countries if r["country_iso3"] == iso3)
            # 6-significant-digit file formatting bounds the achievable match
            assert country_val == pytest.approx(decile_sum, rel=1e-4)

    def test_sharing_summary_ordering(self, bundle, table_cache, tmp_path):
        strategy, scenario = BASELINE_RUN
        runs = []
        for sharing in Sharing:
            s = StrategyBundle(strategy.generation, strategy.backhaul, sharing, strategy.policy, strategy.energy_strategy)
            runs.append((s, scenario))
        out = run_pipeline(bundle, runs, cache_dir=table_cache)
        emit_results(out.results, tmp_path)
        with (tmp_path / "summary_by_sharing.csv").open() as fh:
            rows = {r["sharing"]: float(r["financial_cost_usd"]) for r in csv.DictReader(fh)}
        assert rows["active"] <= rows["srn"] <= rows["baseline"]
        assert rows["passive"] <= rows["baseline"]


@pytest.fixture(scope="module")
def matrix_files(bundle, table_cache, tmp_path_factory) -> dict[str, bytes]:
    """The six files of the full run matrix."""
    out = run_pipeline(bundle, cache_dir=table_cache)
    assert not out.failures
    return emitted(out.results, tmp_path_factory.mktemp("matrix"))


def decile_lines(files: dict[str, bytes]) -> list[bytes]:
    return files["results_decile.csv"].splitlines()


#: Where a ``results_decile.csv`` line holds its run key.
RUN_KEY = slice(DECILE_COLUMNS.index(RUN_KEY_COLUMNS[0]), DECILE_COLUMNS.index(RUN_KEY_COLUMNS[-1]) + 1)


#: Values of each ``--runs`` field; capacity 25 is on no miniland axis, so a filter can match nothing.
FILTER_VALUES = {**RUN_FILTER_VALUES, "capacity": ["20", "25", "30", "40"]}


@st.composite
def run_filters(draw) -> str:
    """A ``--runs`` expression of 1-3 clauses on distinct fields, each with 1+ distinct values."""
    fields = draw(st.lists(st.sampled_from(sorted(FILTER_VALUES)), min_size=1, max_size=3, unique=True))
    return ",".join(
        f"{field}={'|'.join(draw(st.lists(st.sampled_from(FILTER_VALUES[field]), min_size=1, unique=True)))}"
        for field in fields
    )


def filtered_runs(bundle, expr: str) -> list:
    accept = parse_run_filter(expr)
    return [run for run in enumerate_runs(bundle.strategy_space, bundle.scenario_space) if accept(*run)]


def assert_filter_keeps_decile_lines(bundle, table_cache, matrix_files, out_dir, runs) -> None:
    """Each of ``runs``' ``results_decile.csv`` lines equals its line in the full matrix's file."""
    lines = decile_lines(emitted(run_pipeline(bundle, runs, cache_dir=table_cache).results, out_dir))
    keys = {tuple(line.split(b",")[RUN_KEY]) for line in lines[1:]}
    assert len(keys) == len(runs)
    full = decile_lines(matrix_files)
    assert lines == full[:1] + [line for line in full[1:] if tuple(line.split(b",")[RUN_KEY]) in keys]


#: The decile-stage and run-key columns: the first twelve fields of a ``results_decile.csv`` line.
LEADING_COLUMNS = [*STAGE_COLUMNS["decile"], *RUN_KEY_COLUMNS]


def assert_rows_in_file_order(table: ResultTable, out_dir) -> None:
    """Row i's leading columns, formatted as emission formats them, lead line i + 2 of ``results_decile.csv``."""
    lines = (out_dir / "results_decile.csv").read_text().splitlines()[1:]
    assert len(lines) == len(table) > 0
    leading = [",".join(line.split(",")[:len(LEADING_COLUMNS)]) for line in lines]
    assert format_rows([table.column(name) for name in LEADING_COLUMNS]) == leading


class TestBatchedMatrix:
    """A run's rows depend on its own inputs only, not on which other runs or countries are present."""

    def test_full_matrix_rows_are_in_file_order(self, full_matrix):
        assert_rows_in_file_order(*full_matrix)

    def test_shuffled_runs_with_a_repeat_are_in_file_order(self, bundle, table_cache, tmp_path):
        runs = random.Random(11).sample(enumerate_runs(bundle.strategy_space, bundle.scenario_space), 60)
        runs.insert(30, runs[3])  # one run given twice: its rows keep the order given
        table = run_pipeline(bundle, runs, cache_dir=table_cache).results
        emit_results(table, tmp_path)
        assert_rows_in_file_order(table, tmp_path)
        first_place = table.run[:len(runs)].tolist()  # MLA's decile 1, one row per run
        assert sorted(first_place) == list(range(len(runs)))
        assert [i for i in first_place if runs[i] == runs[3]] == [3, 30]

    def test_shuffled_runs_emit_identical_files(self, bundle, table_cache, matrix_files, tmp_path):
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
        random.Random(7).shuffle(runs)
        assert runs != enumerate_runs(bundle.strategy_space, bundle.scenario_space)
        assert emitted(run_pipeline(bundle, runs, cache_dir=table_cache).results, tmp_path) == matrix_files
        assert len(matrix_files) == 6

    @pytest.mark.parametrize("expr", [
        "generation=5G,sharing=active",
        "policy=high_tax|low_spectrum,capacity=20",
        "backhaul=fiber,energy=renewables,adoption=low|high",
        "sharing=srn|passive,policy=baseline,capacity=40,adoption=baseline",
    ])
    def test_filtered_runs_keep_their_decile_lines(self, bundle, table_cache, matrix_files, tmp_path, expr):
        assert_filter_keeps_decile_lines(bundle, table_cache, matrix_files, tmp_path, filtered_runs(bundle, expr))

    @settings(max_examples=25, deadline=None)
    @given(expr=run_filters())
    def test_drawn_filters_keep_their_decile_lines(self, bundle, table_cache, matrix_files, tmp_path_factory, expr):
        runs = filtered_runs(bundle, expr)
        assume(runs)
        out = tmp_path_factory.mktemp("filtered")
        assert_filter_keeps_decile_lines(bundle, table_cache, matrix_files, out, runs)

    def test_dropping_a_country_keeps_the_other_countrys_lines(self, miniland_copy, table_cache, matrix_files,
                                                               tmp_path):
        for name in ("countries.csv", "regions.csv", "spectrum.csv", "energy_mix.csv"):
            path = miniland_copy / name
            path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                                    if not line.startswith("MLB")))
        mla_only = load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert sorted(mla_only.countries) == ["MLA"]
        lines = decile_lines(emitted(run_pipeline(mla_only, cache_dir=table_cache).results, tmp_path))
        full = decile_lines(matrix_files)
        assert len(lines) == 1 + 1440 * 10
        assert lines == full[:1] + [line for line in full[1:] if line.startswith(b"MLA,")]


def row_formatter(value) -> str:
    """The per-value CSV formatting rule: bools as 1/0, ints verbatim, floats at 6 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


INF, NAN = float("inf"), float("nan")
SPECIAL_FLOATS = [-0.0, 0.0, NAN, -NAN, INF, -INF, 1e16, 123456.5, 999999.5, 5e-324, 2.5e-310, 1e-7, -0.0, 0.0]


#: The dtype of each result column that the pipeline does not store as float64.
COLUMN_DTYPES = {
    "country_iso3": str, "decile_index": np.int64, "settlement": str, "population": np.int64,
    "total_sites": np.int64, "existing_sites": np.int64, "new_sites": np.int64, "upgraded_sites": np.int64,
    "unserviceable": bool,
}


def special_table() -> ResultTable:
    """A hand-built table holding signed zeros, nan, infinities, subnormals and large values."""
    base = BASELINE_RUN[0]
    low_tax = dataclasses.replace(base, policy=Policy.LOW_TAX)
    scenario = BASELINE_RUN[1]

    def row(index, population, area, demand, sites, cost, energy):
        c = DecileCost("AAA", index, *cost)
        return {
            "decile": ("AAA", index, "rural", population, area),
            "sites": (demand, *sites, c.revenue_pv),
            "cost": (c.network, c.administration, c.spectrum, c.tax, c.profit, c.private_cost, c.subsidy,
                     c.government_cost, c.financial_cost),
            "energy": energy,
        }

    # in file order, as the pipeline lays rows out: (AAA, 1) for each run by run key, then (AAA, 2)
    records = [
        row(1, 0, 1e16, 5e-324, (1, 1, 0, 1, True), (5e-324, 1e-320, 2.0, -INF, NAN, 999999.5, 1e16, 0.0),
            (0.0, 0.0, 0.0, 1e-300, 1e16, -0.0, 5e-324)),
        row(1, 1_234_567, 5e-324, NAN, (3, 1, 2, 1, True), (1e16, -0.0, 0.0, INF, -INF, 123456.5, 0.5, -0.0),
            (2.5e-310, -0.0, 1e16, -0.0, 0.0, NAN, 1e-7)),
        row(2, 10_000_000, 123456.5, 0.0, (0, 4, 0, 0, False), (-0.0, 1.5, 2.5, 3.5, 4.5, 5.5, -0.0, 6.5),
            (1.0, 0.5, 0.5, -0.0, -0.0, INF, 1e300)),
    ]
    every = np.arange(len(records))
    stages = {
        stage: (every, {name: np.array(values, dtype=COLUMN_DTYPES.get(name, np.float64))
                        for name, values in zip(STAGE_COLUMNS[stage], zip(*(r[stage] for r in records)))})
        for stage in records[0]
    }
    runs = [(low_tax, scenario), (base, scenario)]
    stages["run"] = (np.array([1, 0, 1]), {name: np.array(values)
                                           for name, values in zip(RUN_KEY_COLUMNS, zip(*(run_key(*r) for r in runs)))})
    return ResultTable(runs, stages)


# the files written for special_table() by the row-at-a-time emitter this one replaced
SPECIAL_FILES = {
    "results_decile.csv": [
        ",".join(DECILE_COLUMNS),
        "AAA,1,rural,0,1e+16,4G,wireless,baseline,baseline,baseline,30,baseline,4.94066e-324,1,1,0,1,1,1e+16,"
        "4.94066e-324,9.99989e-321,2,-inf,nan,1e+06,0,inf,inf,0,0,0,1e-300,1e+16,-0,4.94066e-324",
        "AAA,1,rural,1234567,4.94066e-324,4G,wireless,baseline,low_tax,baseline,30,baseline,nan,3,1,2,1,1,0.5,"
        "1e+16,-0,0,inf,-inf,123456,-0,-inf,-inf,2.5e-310,-0,1e+16,-0,0,nan,1e-07",
        "AAA,2,rural,10000000,123456,4G,wireless,baseline,baseline,baseline,30,baseline,0,0,4,0,0,0,-0,-0,1.5,"
        "2.5,3.5,4.5,5.5,6.5,0.5,6,1,0.5,0.5,-0,-0,inf,1e+300",
    ],
    "results_country.csv": [
        ",".join(COUNTRY_COLUMNS),
        "AAA,4G,wireless,baseline,baseline,baseline,30,baseline,10000000,1,0,1,1,1e+16,4.94066e-324,1.5,4.5,"
        "-inf,nan,1e+06,6.5,inf,inf,1,0.5,0.5,1e-300,1e+16,inf,1e+300",
        "AAA,4G,wireless,baseline,low_tax,baseline,30,baseline,1234567,3,2,1,1,0.5,1e+16,0,0,inf,-inf,123456,"
        "0,-inf,-inf,2.5e-310,0,1e+16,0,0,nan,1e-07",
    ],
    "summary_by_policy.csv": [
        "policy,financial_cost_usd,private_cost_usd,government_cost_usd,subsidy_usd",
        "baseline,inf,1e+06,inf,6.5",
        "low_tax,-inf,123456,-inf,0",
    ],
    "summary_by_sharing.csv": [
        "sharing,financial_cost_usd,energy_kwh,co2_kg,nox_g,sox_g,pm10_g",
        "baseline,inf,1,1e-300,1e+16,inf,1e+300",
    ],
    "summary_by_technology.csv": [
        "generation,backhaul,capacity_gb_month,adoption,financial_cost_usd,energy_kwh,co2_kg,nox_g,sox_g,pm10_g",
        "4G,wireless,30,baseline,inf,1,1e-300,1e+16,inf,1e+300",
    ],
    "summary_emissions.csv": [
        "energy_strategy,generation,backhaul,energy_kwh,co2_kg,nox_g,sox_g,pm10_g",
        "baseline,4G,wireless,1,1e-300,1e+16,inf,1e+300",
    ],
}


class TestFormatting:
    @pytest.mark.parametrize("values", [
        SPECIAL_FLOATS,
        [0, 7, 999_999, 1_000_000, 1_234_567, 10**15, 0, 7],  # population-style int column
        [True, False, False, True],
        ["MLA", "rural", "4G", "MLA"],
    ])
    def test_column_matches_row_formatter(self, values):
        assert format_rows([np.array(values)]) == [row_formatter(v) for v in values]

    def test_signed_zero_and_nan_payloads_keep_their_text(self):
        text = format_rows([np.array([0.0, -0.0, NAN, -NAN])])
        assert text == ["0", "-0", f"{NAN:.6g}", f"{-NAN:.6g}"]

    def test_rows_of_mixed_columns_match_row_formatter(self):
        n = len(SPECIAL_FLOATS)
        columns = [np.array(SPECIAL_FLOATS), np.arange(n) * 10**14, np.arange(n) % 3 == 0,
                   np.array(["MLA", "rural"] * (n // 2)), np.array(SPECIAL_FLOATS[::-1])]
        want = [",".join(map(row_formatter, row)) for row in zip(*(values.tolist() for values in columns))]
        assert format_rows(columns) == want

    def test_emit_special_values_bytes(self, tmp_path):
        emit_results(special_table(), tmp_path)
        for name, lines in SPECIAL_FILES.items():
            assert (tmp_path / name).read_text() == "".join(line + "\n" for line in lines), name

    def test_special_table_has_the_pipeline_dtypes(self, baseline_output):
        special, table = special_table(), baseline_output.results
        for name in DECILE_COLUMNS:
            assert special.column(name).dtype.kind == table.column(name).dtype.kind, name


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """The run path's working memory does not grow with result rows."""

    def test_emission_holds_one_block_of_text(self, bundle, table_cache, tmp_path):
        table = run_pipeline(bundle, cache_dir=table_cache).results
        # results_decile.csv alone is about 7 MB of text in 28 blocks; one
        # block's text, the row indices and the country sums stay under 4 MB
        assert traced_peak(emit_results, table, tmp_path) < 4e6
        assert (tmp_path / "results_decile.csv").stat().st_size > 6e6
        assert len(table) > 28 * EMIT_BLOCK

    def test_energy_stage_holds_a_few_year_arrays(self, bundle, table_cache, monkeypatch):
        real, peaks = pipeline.energy, []

        def traced(existing, new, deciles, strategies, country, params, mix_rows, factors):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(existing, new, deciles, strategies, country, params, mix_rows, factors)
            # in (keys, deciles, years) float arrays
            peaks.append((tracemalloc.get_traced_memory()[1] - held) / (existing.size * len(mix_rows) * 8))
            return out

        monkeypatch.setattr(pipeline, "energy", traced)
        out = traced_peak(run_pipeline, bundle, None, 1, table_cache)
        assert out and len(peaks) == 2
        # kwh, on-grid, off-grid, one species, one term buffer and the totals
        assert max(peaks) < 8


class TestEdgeCasesEndToEnd:
    def test_degenerate_deciles_flow_through_as_zeros(self, miniland_copy, table_cache, caplog):
        # keep only two MLA regions: deciles 3..10 become degenerate
        regions = (miniland_copy / "regions.csv").read_text().splitlines()
        kept = [r for r in regions if not r.startswith("MLA-") or r.startswith(("MLA-R01", "MLA-R02"))]
        (miniland_copy / "regions.csv").write_text("\n".join(kept) + "\n")
        with caplog.at_level(logging.INFO, logger="bband_sim"):
            bundle = load_bundle(miniland_copy, miniland_copy / "config.yaml")
            out = run_pipeline(bundle, [BASELINE_RUN], cache_dir=table_cache)
        assert not out.failures
        assert "input load: 6 files, 159 data rows, 2 countries, 20 deciles, 8 degenerate deciles, " in caplog.text
        # one sites key per country: MLA's 8 degenerate deciles are 8 degenerate rows
        assert "stage sites: 2 keys, 2 kernel calls, 0 failed keys, 0 unserviceable rows, 8 degenerate rows" in caplog.text
        table = out.results
        mla = table.column("country_iso3") == "MLA"
        assert mla.sum() == 10
        empty = mla & (table.column("decile_index") >= 3)
        assert (table.column("population", empty) == 0).all()
        assert (table.column("total_sites", empty) == 0).all()
        assert (table.column("financial_cost_usd", empty) == 0).all()
        assert (table.column("energy_kwh", empty) == 0).all()

    def test_mix_row_order_changes_no_emission_bit(self, bundle, miniland_copy, table_cache, full_matrix):
        # each (region, year)'s source rows reversed: an equal bundle, so equal emissions to the bit
        path = miniland_copy / "energy_mix.csv"
        header, *lines = path.read_text().splitlines()
        years = itertools.groupby(lines, key=lambda line: line.split(",")[:2])
        path.write_text("\n".join([header, *(line for _, rows in years for line in reversed(list(rows)))]) + "\n")
        reordered = load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert reordered == bundle
        assert list(reordered.energy_mix["MLA"][2023]) != list(bundle.energy_mix["MLA"][2023])
        out = run_pipeline(reordered, cache_dir=table_cache)
        assert not out.failures
        for name in ("co2_kg", "nox_g", "sox_g", "pm10_g"):
            assert np.array_equal(out.results.column(name).view(np.int64), full_matrix[0].column(name).view(np.int64))

    def test_unserviceable_demand_flagged_not_crashed(self, miniland_copy, tmp_path):
        # a density grid topping out far below urban demand forces the flag
        rewrite = (miniland_copy / "config.yaml").read_text().replace(
            "density_grid: [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]",
            "density_grid: [0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02]",
        )
        (miniland_copy / "config.yaml").write_text(rewrite)
        bundle = load_bundle(miniland_copy, miniland_copy / "config.yaml")
        out = run_pipeline(bundle, [BASELINE_RUN], cache_dir=tmp_path)
        assert not out.failures
        flagged = out.results.column("unserviceable")
        assert flagged.any() and not flagged.all(), "expected unserviceable and serviceable deciles"
        max_density = bundle.density_grid[-1]
        for sites, area in zip(out.results.column("total_sites", flagged).tolist(),
                               out.results.column("area_km2", flagged).tolist()):
            assert sites == math.ceil(max_density * area - 1e-9)
        # every row is flagged exactly when its decile is active and its demand exceeds its table's top capacity
        tables = pipeline.capacity_tables(bundle, cache_dir=tmp_path)
        deciles = {iso3: Deciles.of(regions, iso3, bundle.settlement_thresholds)
                   for iso3, regions in bundle.regions.items()}
        rows = zip(*(out.results.column(f).tolist()
                     for f in ("country_iso3", "generation", "decile_index", "demand_mbps_km2", "unserviceable")))
        for iso3, generation, index, demand, unserviceable in rows:
            top = tables[iso3, Generation(generation)].max_capacity
            assert unserviceable == (deciles[iso3].active[index - 1] and demand > top), (iso3, index)


class TestRunFilter:
    def test_filter_parses_and_selects(self):
        from bband_sim.cli import parse_run_filter
        accept = parse_run_filter("generation=4G,backhaul=wireless|fiber,capacity=30")
        from bband_sim.core import StrategySpace, ScenarioSpace
        all_runs = enumerate_runs(StrategySpace(), ScenarioSpace())
        kept = [r for r in all_runs if accept(*r)]
        assert kept
        assert all(s.generation == Generation.G4 for s, _ in kept)
        assert all(sc.capacity_gb_month == 30.0 for _, sc in kept)

    def test_bad_field_rejected(self):
        from bband_sim.cli import parse_run_filter
        with pytest.raises(ValueError, match="unknown run filter field"):
            parse_run_filter("flavor=salty")

    @pytest.mark.parametrize("expr, message", [
        ("policy=baseline|lowtax", "low_tax"),
        ("generation=6G", "4G|5G"),
        ("capacity=thirty", "numbers"),
    ])
    def test_unknown_value_rejected(self, expr, message):
        from bband_sim.cli import parse_run_filter
        with pytest.raises(ValueError, match=message):
            parse_run_filter(expr)

    def test_capacity_compares_as_number(self):
        from bband_sim.cli import parse_run_filter
        accept = parse_run_filter("capacity=30.0")
        assert accept(*BASELINE_RUN)
        assert not accept(BASELINE_RUN[0], ScenarioSpec(20.0, AdoptionScenario.BASELINE))
