"""Every input diagnostic kind, pinned: full text, line numbers and order.

Each case damages one copy of miniland and lists every diagnostic that
``load_bundle`` must report, in order. An empty list means the damaged copy
still loads: those cases pin which cells are stripped of surrounding blanks
(identifiers and numbers) and which are not (enum values).

An edit is ``(file, old, new)``: replace the first ``old`` with ``new``.
With ``old`` ``None`` the file is overwritten with ``new``, or deleted when
``new`` is ``None`` too; ``APPEND`` adds ``new`` to the end of the file.
"""

import dataclasses
import math

import pytest
import yaml

from bband_sim import core
from bband_sim.cli import EXIT_VALIDATION, main
from bband_sim.core import (
    ADOPTION_CAGR_BOUNDS, MIX_SHARE_BOUNDS, AdoptionScenario, Carrier, CountryParams, FactorRow, Generation,
    Regions, ScenarioSpec, SpectralEfficiencyTable, declared_bounds,
)
from bband_sim.data_io import CONFIG_RECORDS, SCHEMAS, load_bundle
from bband_sim.errors import InputValidationError, ValidationError

APPEND = "append"

# The follow-on diagnostics when a country's row is rejected: its spectrum,
# its twelve regions and its energy mix then reference an unknown country.
MLA_REGIONS = [f"regions.csv:{line}: region MLA-R{line - 1:02d} references unknown country MLA" for line in range(2, 14)]
MLB_REGIONS = [f"regions.csv:{line}: region MLB-S{line - 13:02d} references unknown country MLB" for line in range(14, 26)]
MLA_DROPPED = ["spectrum.csv: spectrum row references unknown country MLA", *MLA_REGIONS,
               "energy_mix.csv: mix row references unknown country MLA"]
MLB_DROPPED = ["spectrum.csv: spectrum row references unknown country MLB", *MLB_REGIONS,
               "energy_mix.csv: mix row references unknown country MLB"]
MIX_SOURCES = "('coal', 'gas', 'oil', 'nuclear', 'hydro', 'renewables_other')"
CONFIG_SECTIONS = "('axes', 'horizon', 'settlement', 'adoption', 'simulation', 'cost', 'energy', 'tables')"
AXES = "['adoption', 'backhaul', 'capacity_gb_month', 'energy_strategy', 'generation', 'policy', 'sharing']"
COUNTRIES_HEADER = (
    "country_iso3,income_group,n_major_operators,arpu_low,arpu_base,arpu_high,"
    "on_grid_share,grid_carbon_intensity_kg_kwh"
)
SE_TABLE_EMPTY = ["se_table.csv: no rows for generation 4G", "se_table.csv: no rows for generation 5G"]
HORIZON = "horizon:\n  start_year: 2023\n  end_year: 2030\n  discount_rate: 0.05\n"
PENETRATION_CAP = "  penetration_cap: 1.0\n"

CASES = {
    # --- file structure ---
    "regions_missing": (
        [("regions.csv", None, None)],
        [
            "regions.csv: file is missing",
            "regions.csv: country MLA has no regions",
            "regions.csv: country MLB has no regions",
        ],
    ),
    # A bundle with no country has nothing to model; the other files' rows then go unchecked against countries.
    "countries_no_rows": (
        [("countries.csv", None, COUNTRIES_HEADER + "\n\n")],
        ["countries.csv: no country rows"],
    ),
    "countries_header": (
        [("countries.csv", "country_iso3,income_group", "iso3,income_group")],
        [f"countries.csv:1: header must be exactly {COUNTRIES_HEADER!r}, got {'iso3' + COUNTRIES_HEADER[12:]!r}"],
    ),
    "regions_extra_column": (
        [("regions.csv", "MLA-R05,MLA,180000,400,70", "MLA-R05,MLA,180000,400,70,1")],
        ["regions.csv:6: wrong number of columns"],
    ),
    "countries_short_row": (
        [("countries.csv", "MLB,UMC,4,8,12,16,0.94,0.48", "MLB,UMC,4,8,12,16,0.94")],
        ["countries.csv:3: wrong number of columns", *MLB_DROPPED],
    ),
    # Blank lines are skipped but counted: the fault is reported on its
    # physical line, 8.
    "regions_blank_line_keeps_physical_line_numbers": (
        [
            ("regions.csv", "MLA-R04,MLA,220000,275,60\n", "MLA-R04,MLA,220000,275,60\n\n"),
            ("regions.csv", "MLA-R06,MLA,150000", "MLA-R06,MLA,-1"),
        ],
        ["regions.csv:8: population: -1 must be >= 0"],
    ),
    # --- blanks around cells: stripped, except enum values ---
    "regions_padded_cells_load": (
        [("regions.csv", "MLA-R05,MLA,180000,400,70", " MLA-R05 , MLA , 180000 , 400 , 70 ")],
        [],
    ),
    "regions_region_id_is_stripped": (
        [("regions.csv", "MLA-R12,MLA", " MLA-R11 ,MLA")],
        ["regions.csv:13: duplicate region_id MLA-R11 in MLA (first seen line 12)"],
    ),
    "countries_padded_cells_load": (
        [("countries.csv", "MLA,LMC,3,6,10,14,0.67,0.62", " MLA ,LMC, 3 , 6 , 10 , 14 , 0.67 , 0.62 ")],
        [],
    ),
    "countries_income_group_not_stripped": (
        [("countries.csv", "MLA,LMC,", "MLA, LMC,")],
        ["countries.csv:2: income_group: ' LMC' is not one of {LIC, LMC, UMC, HIC}", *MLA_DROPPED],
    ),
    "spectrum_padded_cells_load": (
        [("spectrum.csv", "MLA,4G,800,10", " MLA ,4G, 800 , 10 ")],
        [],
    ),
    "spectrum_generation_not_stripped": (
        [("spectrum.csv", "MLA,4G,800,10", "MLA,4G ,800,10")],
        ["spectrum.csv:2: generation: '4G ' is not one of {4G, 5G}"],
    ),
    "energy_mix_padded_cells_load": (
        [("energy_mix.csv", "MLA,2023,coal,0.4", " MLA , 2023 , coal , 0.4 ")],
        [],
    ),
    "emission_factors_padded_cells_load": (
        [("emission_factors.csv", "coal,0.95,0.9,2.2,0.35", " coal , 0.95 , 0.9 , 2.2 , 0.35 ")],
        [],
    ),
    "se_table_padded_cells_load": (
        [("se_table.csv", "4G,-6.7,0.1523", "4G, -6.7 , 0.1523 ")],
        [],
    ),
    "se_table_generation_not_stripped": (
        [("se_table.csv", "4G,-4.7,0.2344", " 4G,-4.7,0.2344")],
        ["se_table.csv:3: generation: ' 4G' is not one of {4G, 5G}"],
    ),
    # --- one bad cell ---
    "regions_population_not_int": (
        [("regions.csv", "MLA-R05,MLA,180000", "MLA-R05,MLA,1.5e5")],
        ["regions.csv:6: population: '1.5e5' is not a valid int"],
    ),
    "regions_population_negative": (
        [("regions.csv", "MLA-R07,MLA,120000", "MLA-R07,MLA,-5")],
        ["regions.csv:8: population: -5 must be >= 0"],
    ),
    "regions_area_not_float": (
        [("regions.csv", "MLA-R05,MLA,180000,400", "MLA-R05,MLA,180000,four")],
        ["regions.csv:6: area_km2: 'four' is not a valid float"],
    ),
    "regions_area_zero": (
        [("regions.csv", "MLA-R05,MLA,180000,400", "MLA-R05,MLA,180000,0")],
        ["regions.csv:6: area_km2: 0.0 must be > 0"],
    ),
    "regions_existing_sites_negative": (
        [("regions.csv", "MLA-R05,MLA,180000,400,70", "MLA-R05,MLA,180000,400,-1")],
        ["regions.csv:6: existing_sites: -1 must be >= 0"],
    ),
    "countries_income_group_unknown": (
        [("countries.csv", "MLB,UMC,", "MLB,XYZ,")],
        ["countries.csv:3: income_group: 'XYZ' is not one of {LIC, LMC, UMC, HIC}", *MLB_DROPPED],
    ),
    "countries_operators_zero": (
        [("countries.csv", "MLB,UMC,4,", "MLB,UMC,0,")],
        ["countries.csv:3: n_major_operators: 0 must be >= 1", *MLB_DROPPED],
    ),
    "countries_arpu_negative": (
        [("countries.csv", "MLA,LMC,3,6,", "MLA,LMC,3,-6,")],
        ["countries.csv:2: arpu_low: -6.0 must be >= 0", *MLA_DROPPED],
    ),
    "countries_grid_intensity_not_float": (
        [("countries.csv", "0.67,0.62", "0.67,x")],
        ["countries.csv:2: grid_carbon_intensity_kg_kwh: 'x' is not a valid float", *MLA_DROPPED],
    ),
    "spectrum_generation_unknown": (
        [("spectrum.csv", "MLB,5G,3500,40", "MLB,6G,3500,40")],
        ["spectrum.csv:11: generation: '6G' is not one of {4G, 5G}"],
    ),
    "spectrum_frequency_zero": (
        [("spectrum.csv", "MLB,4G,800,10", "MLB,4G,0,10")],
        ["spectrum.csv:7: frequency_mhz: 0.0 must be > 0"],
    ),
    "spectrum_bandwidth_negative": (
        [("spectrum.csv", "MLB,5G,3500,40", "MLB,5G,3500,-40")],
        ["spectrum.csv:11: bandwidth_mhz: -40.0 must be > 0"],
    ),
    "energy_mix_year_not_int": (
        [("energy_mix.csv", "MLA,2026,coal,0.37", "MLA,20x6,coal,0.37")],
        [
            "energy_mix.csv:20: year: '20x6' is not a valid int",
            "energy_mix.csv: MLA/2026: shares sum to 0.630000, expected 1",
        ],
    ),
    "energy_mix_share_negative": (
        [("energy_mix.csv", "MLB,2027,coal,0.26", "MLB,2027,coal,-0.26")],
        [
            "energy_mix.csv:74: share: -0.26 must be >= 0",
            "energy_mix.csv: MLB/2027: shares sum to 0.740000, expected 1",
        ],
    ),
    # one diagnostic per unknown region, and its rows are dropped (ZZZ/2023 would not sum to 1)
    "energy_mix_unknown_country": (
        [("energy_mix.csv", APPEND, "ZZZ,2023,coal,0.5\nZZZ,2024,coal,1.0\n")],
        ["energy_mix.csv: mix row references unknown country ZZZ"],
    ),
    "emission_factors_co2_negative": (
        [("emission_factors.csv", "diesel,0.8,", "diesel,-0.8,")],
        [
            "emission_factors.csv:8: co2_kg_kwh: -0.8 must be >= 0",
            "emission_factors.csv: emission factors missing sources: ['diesel']",
        ],
    ),
    "se_table_min_sinr_not_float": (
        [("se_table.csv", "5G,2.4,1.9141", "5G,x,1.9141")],
        ["se_table.csv:21: min_sinr_db: 'x' is not a valid float"],
    ),
    "se_table_se_zero": (
        [("se_table.csv", "4G,-6.7,0.1523", "4G,-6.7,0")],
        ["se_table.csv:2: se_bps_hz: 0.0 must be > 0"],
    ),
    # --- row and cross-row rules ---
    "countries_iso3_empty": (
        [("countries.csv", "MLB,UMC,", ",UMC,")],
        ["countries.csv:3: country_iso3 is empty", *MLB_DROPPED],
    ),
    # the result CSVs write the code unquoted, so a comma would shift every later column
    "countries_iso3_comma": (
        [("countries.csv", "MLA,LMC,", '"MLA,X",LMC,')],
        ["countries.csv:2: 'MLA,X': country_iso3 must not contain a comma, a double quote or a line break",
         *MLA_DROPPED],
    ),
    "countries_duplicate": (
        [("countries.csv", "MLB,UMC,", "MLA,UMC,")],
        ["countries.csv:3: duplicate country MLA", *MLB_DROPPED],
    ),
    "countries_arpu_unordered": (
        [("countries.csv", "MLA,LMC,3,6,10,14", "MLA,LMC,3,6,16,14")],
        ["countries.csv:2: MLA: ARPU tiers must be ordered low <= base <= high", *MLA_DROPPED],
    ),
    "countries_on_grid_above_one": (
        [("countries.csv", "0.67,0.62", "1.67,0.62")],
        ["countries.csv:2: on_grid_share: 1.67 must be <= 1", *MLA_DROPPED],
    ),
    "spectrum_unknown_country": (
        [("spectrum.csv", "MLB,5G,3500,40\n", "MLB,5G,3500,40\nXXX,4G,800,10\n")],
        ["spectrum.csv: spectrum row references unknown country XXX"],
    ),
    "spectrum_generation_without_carriers": (
        [("spectrum.csv", "MLA,5G,700,10\nMLA,5G,3500,30\n", "")],
        ["spectrum.csv: MLA: no 5G carriers in portfolio"],
    ),
    # carriers equal to 1 kHz would draw from one RNG stream
    "spectrum_carriers_share_a_stream": (
        [("spectrum.csv", "MLA,4G,800,10", "MLA,4G,800.0001,10"),
         ("spectrum.csv", "MLA,4G,1800,10", "MLA,4G,800.0004,10")],
        ["spectrum.csv: MLA: 4G carriers [800.0001, 10.0] and [800.0004, 10.0] are equal to 1 kHz, so they would "
         "share an RNG stream"],
    ),
    "regions_id_empty": (
        [("regions.csv", "MLA-R05,MLA", ",MLA")],
        ["regions.csv:6: region_id is empty"],
    ),
    "regions_unknown_country": (
        [("regions.csv", "MLA-R05,MLA", "MLA-R05,XXX")],
        ["regions.csv:6: region MLA-R05 references unknown country XXX"],
    ),
    "regions_duplicate_id": (
        [("regions.csv", "MLA-R12,MLA", "MLA-R11,MLA")],
        ["regions.csv:13: duplicate region_id MLA-R11 in MLA (first seen line 12)"],
    ),
    "energy_mix_unknown_source": (
        [("energy_mix.csv", "MLA,2026,coal,0.37", "MLA,2026,peat,0.37")],
        [
            f"energy_mix.csv:20: source 'peat' is not one of {MIX_SOURCES}",
            "energy_mix.csv: MLA/2026: shares sum to 0.630000, expected 1",
        ],
    ),
    "energy_mix_duplicate_source": (
        [("energy_mix.csv", "MLA,2026,gas,0.25", "MLA,2026,coal,0.25")],
        [
            "energy_mix.csv:21: duplicate source coal for MLA/2026",
            "energy_mix.csv: MLA/2026: shares sum to 0.750000, expected 1",
        ],
    ),
    "energy_mix_sum": (
        [("energy_mix.csv", "MLA,2026,coal,0.37", "MLA,2026,coal,0.34")],
        ["energy_mix.csv: MLA/2026: shares sum to 0.970000, expected 1"],
    ),
    "energy_mix_no_rows": (
        [("energy_mix.csv", None, "region,year,source,share\n")],
        [
            "energy_mix.csv: country MLA has no energy mix rows",
            "energy_mix.csv: country MLB has no energy mix rows",
        ],
    ),
    "energy_mix_missing_years": (
        [("config.yaml", "end_year: 2030", "end_year: 2031")],
        [
            "energy_mix.csv: MLA: missing mix years [2031]",
            "energy_mix.csv: MLB: missing mix years [2031]",
        ],
    ),
    # missing years are shown as ranges, at most five of them
    "energy_mix_missing_year_ranges": (
        [
            ("config.yaml", "end_year: 2030", "end_year: 2045"),
            ("energy_mix.csv", None, "region,year,source,share\n" + "".join(
                f"{iso3},{year},renewables_other,1.0\n"
                for iso3 in ("MLA", "MLB") for year in (2023, 2025, 2029, 2031, 2033, 2035, 2037))),
        ],
        [
            "energy_mix.csv: MLA: missing mix years [2024, 2026-2028, 2030, 2032, 2034] (+2 more)",
            "energy_mix.csv: MLB: missing mix years [2024, 2026-2028, 2030, 2032, 2034] (+2 more)",
        ],
    ),
    "emission_factors_unknown_source": (
        [("emission_factors.csv", "gas,", "peat,")],
        [
            "emission_factors.csv:3: unknown source 'peat'",
            "emission_factors.csv: emission factors missing sources: ['gas']",
        ],
    ),
    "emission_factors_duplicate_source": (
        [("emission_factors.csv", "gas,", "coal,")],
        [
            "emission_factors.csv:3: duplicate source coal",
            "emission_factors.csv: emission factors missing sources: ['gas']",
        ],
    ),
    "emission_factors_zero_source_nonzero": (
        [("emission_factors.csv", "nuclear,0,", "nuclear,0.1,")],
        ["emission_factors.csv: nuclear: operational emission factors must be zero"],
    ),
    "se_table_header": (
        [("se_table.csv", "generation,min_sinr_db", "gen,min_sinr_db")],
        [
            "se_table.csv:1: header must be exactly 'generation,min_sinr_db,se_bps_hz', got 'gen,min_sinr_db,se_bps_hz'",
            *SE_TABLE_EMPTY,
        ],
    ),
    "se_table_extra_column": (
        [("se_table.csv", "4G,-6.7,0.1523", "4G,-6.7,0.1523,9")],
        ["se_table.csv:2: wrong number of columns"],
    ),
    "se_table_short_row": (
        [("se_table.csv", "5G,2.4,1.9141", "5G,2.4")],
        ["se_table.csv:21: wrong number of columns"],
    ),
    "se_table_generation_without_rows": (
        [("se_table.csv", None, "generation,min_sinr_db,se_bps_hz\n4G,-6.7,0.1523\n")],
        ["se_table.csv: no rows for generation 5G"],
    ),
    "se_table_without_rows": (
        [("se_table.csv", None, "generation,min_sinr_db,se_bps_hz\n")],
        SE_TABLE_EMPTY,
    ),
    "se_table_not_increasing": (
        [("se_table.csv", "4G,-4.7,0.2344", "4G,-4.7,0.1")],
        ["se_table.csv: SE table for 4G: se_bps_hz not strictly increasing"],
    ),
    # --- config document ---
    "config_missing": (
        [("config.yaml", None, None)],
        ["config.yaml: config file is missing"],
    ),
    "config_invalid_yaml": (
        [("config.yaml", "axes:\n", "axes: [\n")],
        [
            "config.yaml: invalid YAML: while parsing a flow sequence\n"
            '  in "<unicode string>", line 5, column 7:\n'
            "    axes: [\n"
            "          ^\n"
            "expected ',' or ']', but got '<scalar>'\n"
            '  in "<unicode string>", line 7, column 3:\n'
            "      backhaul: [wireless, fiber]\n"
            "      ^"
        ],
    ),
    "config_not_a_mapping": (
        [("config.yaml", None, "- 1\n")],
        ["config.yaml: config must be a mapping at the top level"],
    ),
    "config_unknown_section": (
        [("config.yaml", "energy:\n", "misc: 1\nenergy:\n")],
        [f"config.yaml: unknown config section 'misc' (valid: {CONFIG_SECTIONS})"],
    ),
    "config_section_not_a_mapping": (
        [("config.yaml", HORIZON, "horizon: 5\n")],
        ["config: horizon must be a mapping"],
    ),
    "config_cagr_not_a_mapping": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: 0.1\n")],
        ["config: adoption.cagr must be a mapping"],
    ),
    "config_float_not_valid": (
        [("config.yaml", "discount_rate: 0.05", "discount_rate: abc")],
        ["config: horizon.discount_rate: 'abc' is not a valid float"],
    ),
    "config_int_not_valid": (
        [("config.yaml", "trials: 10000", "trials: many")],
        ["config: simulation.trials: 'many' is not a valid int"],
    ),
    "config_axis_value_unknown": (
        [("config.yaml", "backhaul: [wireless, fiber]", "backhaul: [wireless, copper]")],
        ["config: axes.backhaul: 'copper' is not one of {wireless, fiber}"],
    ),
    "config_axis_empty": (
        [("config.yaml", "energy_strategy: [baseline, renewables]", "energy_strategy: []")],
        ["config: axes.energy_strategy is empty"],
    ),
    "config_axis_unknown": (
        [("config.yaml", "  adoption: [low, baseline, high]\n", "  adoption: [low, baseline, high]\n  colour: [red]\n")],
        [f"config: axes.colour is not a recognised axis ({AXES})"],
    ),
    "config_capacity_not_a_number": (
        [("config.yaml", "capacity_gb_month: [20, 30, 40]", "capacity_gb_month: [20, abc, 40]")],
        ["config: axes.capacity_gb_month: 'abc' is not a valid float"],
    ),
    "config_capacity_not_positive": (
        [("config.yaml", "capacity_gb_month: [20, 30, 40]", "capacity_gb_month: [20, -5, 40]")],
        ["config: axes.capacity_gb_month: -5.0 must be > 0"],
    ),
    "config_capacity_empty": (
        [("config.yaml", "capacity_gb_month: [20, 30, 40]", "capacity_gb_month: []")],
        ["config: axes.capacity_gb_month is empty"],
    ),
    "config_end_before_start": (
        [("config.yaml", "end_year: 2030", "end_year: 2020")],
        ["config: horizon: end_year 2020 before start_year 2023"],
    ),
    "config_discount_negative": (
        [("config.yaml", "discount_rate: 0.05", "discount_rate: -0.05")],
        ["config: horizon: discount_rate: -0.05 must be >= 0"],
    ),
    # YAML would keep a repeated key's last value without a word
    "config_key_repeated_in_section": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  trials: 100")],
        ["config.yaml:32: duplicate key 'trials'"],
    ),
    "config_section_repeated": (
        [("config.yaml", APPEND, "\naxes:\n  generation: [4G]\n")],
        ["config.yaml:54: duplicate key 'axes'"],
    ),
    "config_cagr_unknown_income_group": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {XIC: {low: 0.1}}\n")],
        ["config: adoption.cagr: unknown income group 'XIC'"],
    ),
    "config_cagr_unknown_scenario": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {medium: 0.1}}\n")],
        ["config: adoption.cagr.LIC: unknown scenario 'medium'"],
    ),
    "config_adoption_invalid": (
        [("config.yaml", "penetration_cap: 1.0", "penetration_cap: 0")],
        ["config: adoption: penetration_cap must be > 0"],
    ),
    "config_simulation_invalid": (
        [("config.yaml", "trials: 10000", "trials: 5")],
        ["config: simulation: trials: 5 must be >= 100"],
    ),
    "config_simulation_trials_above_the_ceiling": (
        [("config.yaml", "trials: 10000", "trials: 100000001")],
        ["config: simulation: trials: 100000001 must be <= 100000000"],
    ),
    "config_simulation_rings_above_the_ceiling": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  interferer_rings: 1000000")],
        ["config: simulation: interferer_rings: 1000000 must be <= 100"],
    ),
    "config_cost_missing_key": (
        [("config.yaml", "  core_usd: 10000\n", "")],
        ["config: cost: missing mandatory keys ['core_usd']"],
    ),
    "config_cost_unknown_key": (
        [("config.yaml", "  core_usd: 10000\n", "  core_usd: 10000\n  tower_usd: 1\n")],
        ["config: cost: unknown keys ['tower_usd']"],
    ),
    # A misspelt key would otherwise be ignored and its default used.
    "config_simulation_unknown_key": (
        [("config.yaml", "trials: 10000", "trails: 10000")],
        ["config: simulation: unknown keys ['trails']"],
    ),
    "config_horizon_unknown_key": (
        [("config.yaml", "discount_rate: 0.05", "discount_rate: 0.05\n  discount: 0.1")],
        ["config: horizon: unknown keys ['discount']"],
    ),
    "config_settlement_unknown_key": (
        [("config.yaml", "suburban_min_density: 300", "suburban_min_density: 300\n  rural_min_density: 10")],
        ["config: settlement: unknown keys ['rural_min_density']"],
    ),
    "config_adoption_unknown_keys": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cap: 0.9\n  cagr_by_income: {}\n")],
        ["config: adoption: unknown keys ['cap', 'cagr_by_income']"],
    ),
    "config_energy_unknown_key": (
        [("config.yaml", "site_kwh_per_hour: 0.249", "site_kwh_per_hour: 0.249\n  site_kwh: 0.3")],
        ["config: energy: unknown keys ['site_kwh']"],
    ),
    "config_tables_unknown_key": (
        [("config.yaml", APPEND, "tables:\n  portfolio:\n    - {generation: 4G, carriers: [[800, 10]]}\n")],
        ["config: tables: unknown keys ['portfolio']"],
    ),
    # the misspelt carriers are not read, so the entry has none
    "config_table_portfolio_unknown_key": (
        [("config.yaml", APPEND, "tables:\n  portfolios:\n    - {generation: 4G, carrier: [[800, 10]]}\n")],
        [
            "config: tables.portfolios[]: unknown keys ['carrier']",
            "config: tables.portfolios: frequency set needs at least one carrier",
        ],
    ),
    "config_cost_invalid": (
        [("config.yaml", "tax_rate_low: 0.10", "tax_rate_low: 0.50")],
        ["config: cost: tax rates must be ordered low <= baseline <= high"],
    ),
    "config_energy_invalid": (
        [("config.yaml", "site_kwh_per_hour: 0.249", "site_kwh_per_hour: 0")],
        ["config: energy: site_kwh_per_hour: 0.0 must be > 0"],
    ),
    "config_table_portfolio_invalid": (
        [("config.yaml", APPEND, "tables:\n  portfolios:\n    - {generation: 6G, carriers: [[800, 10]]}\n")],
        ["config: tables.portfolios: '6G' is not a valid Generation"],
    ),
    "config_table_portfolio_carriers_share_a_stream": (
        [("config.yaml", APPEND,
          "tables:\n  portfolios:\n    - {generation: 4G, carriers: [[800.0001, 10], [800.0004, 10]]}\n")],
        ["config: tables.portfolios: carriers [800.0001, 10.0] and [800.0004, 10.0] are equal to 1 kHz, so they "
         "would share an RNG stream"],
    ),
    # each colliding pair is its own diagnostic, as in spectrum.csv
    "config_table_portfolio_carriers_share_two_streams": (
        [("config.yaml", APPEND,
          "tables:\n  portfolios:\n    - {generation: 4G, carriers: [[800, 10], [800.0001, 10], [800.0002, 10]]}\n")],
        [
            "config: tables.portfolios: carriers [800.0, 10.0] and [800.0001, 10.0] are equal to 1 kHz, so they "
            "would share an RNG stream",
            "config: tables.portfolios: carriers [800.0, 10.0] and [800.0002, 10.0] are equal to 1 kHz, so they "
            "would share an RNG stream",
        ],
    ),
    "config_settlement_unordered": (
        [("config.yaml", "urban_min_density: 1500", "urban_min_density: 100")],
        ["config: settlement: urban_min_density 100.0 must be > suburban_min_density 300.0"],
    ),
    # --- numbers must be finite ---
    "energy_mix_share_nan": (
        [("energy_mix.csv", "MLA,2026,coal,0.37", "MLA,2026,coal,nan")],
        [
            "energy_mix.csv:20: share: 'nan' is not finite",
            "energy_mix.csv: MLA/2026: shares sum to 0.630000, expected 1",
        ],
    ),
    "emission_factors_nan": (
        [("emission_factors.csv", "gas,0.45,", "gas,nan,")],
        [
            "emission_factors.csv:3: co2_kg_kwh: 'nan' is not finite",
            "emission_factors.csv: emission factors missing sources: ['gas']",
        ],
    ),
    "countries_arpu_high_inf": (
        [("countries.csv", "MLA,LMC,3,6,10,14", "MLA,LMC,3,6,10,inf")],
        ["countries.csv:2: arpu_high: 'inf' is not finite", *MLA_DROPPED],
    ),
    "countries_on_grid_share_nan": (
        [("countries.csv", "0.67,0.62", "nan,0.62")],
        ["countries.csv:2: on_grid_share: 'nan' is not finite", *MLA_DROPPED],
    ),
    "regions_area_overflows": (
        [("regions.csv", "MLA-R05,MLA,180000,400", "MLA-R05,MLA,180000,1e309")],
        ["regions.csv:6: area_km2: '1e309' is not finite"],
    ),
    "spectrum_frequency_minus_inf": (
        [("spectrum.csv", "MLB,4G,800,10", "MLB,4G,-inf,10")],
        ["spectrum.csv:7: frequency_mhz: '-inf' is not finite"],
    ),
    "se_table_min_sinr_nan": (
        [("se_table.csv", "5G,2.4,1.9141", "5G,nan,1.9141")],
        ["se_table.csv:21: min_sinr_db: 'nan' is not finite"],
    ),
    "config_horizon_nan": (
        [("config.yaml", "discount_rate: 0.05", "discount_rate: .nan")],
        ["config: horizon.discount_rate: nan is not finite"],
    ),
    "config_adoption_inf": (
        [("config.yaml", "base_cell_penetration: 0.55", "base_cell_penetration: .inf")],
        ["config: adoption.base_cell_penetration: inf is not finite"],
    ),
    "config_simulation_nan": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  shadow_sigma_db: .nan")],
        ["config: simulation.shadow_sigma_db: nan is not finite"],
    ),
    "config_cost_inf": (
        [("config.yaml", "civils_usd: 30000", "civils_usd: .inf")],
        ["config: cost.civils_usd: inf is not finite"],
    ),
    "config_energy_nan": (
        [("config.yaml", "backhaul_fiber_kwh_per_hour: 0.010", "backhaul_fiber_kwh_per_hour: .nan")],
        ["config: energy.backhaul_fiber_kwh_per_hour: nan is not finite"],
    ),
    "config_settlement_inf": (
        [("config.yaml", "urban_min_density: 1500", "urban_min_density: .inf")],
        ["config: settlement.urban_min_density: inf is not finite"],
    ),
    "config_density_grid_nan": (
        [("config.yaml", "density_grid: [0.01,", "density_grid: [.nan,")],
        ["config: simulation.density_grid: nan is not finite"],
    ),
    "config_capacity_inf": (
        [("config.yaml", "capacity_gb_month: [20, 30, 40]", "capacity_gb_month: [20, .inf, 40]")],
        ["config: axes.capacity_gb_month: inf is not finite"],
    ),
    "config_cagr_nan": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {low: .nan}}\n")],
        ["config: adoption.cagr.LIC.low: nan is not finite"],
    ),
    "config_carrier_nan": (
        [("config.yaml", APPEND, "tables:\n  portfolios:\n    - {generation: 4G, carriers: [[800, .nan]]}\n")],
        ["config: tables.portfolios: carriers: nan is not finite"],
    ),
    # --- config values of the wrong shape ---
    "config_cost_not_a_number": (
        [("config.yaml", "civils_usd: 30000", "civils_usd: abc")],
        ["config: cost.civils_usd: 'abc' is not a valid float"],
    ),
    "config_cagr_not_a_number": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {low: abc}}\n")],
        ["config: adoption.cagr.LIC.low: 'abc' is not a valid float"],
    ),
    "config_density_grid_not_a_number": (
        [("config.yaml", "density_grid: [0.01,", "density_grid: [abc,")],
        ["config: simulation.density_grid: 'abc' is not a valid float"],
    ),
    "config_density_grid_not_a_list": (
        [("config.yaml", "density_grid: [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]", "density_grid: 5")],
        ["config: simulation.density_grid must be a list"],
    ),
    # YAML reads yes, on and true as booleans, which int() and float() would take as 1
    "config_bool_not_a_number": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  tx_gain_db: yes\n  network_load: on")],
        [
            "config: simulation.tx_gain_db: True is not a valid float",
            "config: simulation.network_load: True is not a valid float",
        ],
    ),
    "config_bool_not_an_int": (
        [("config.yaml", "trials: 10000", "trials: true")],
        ["config: simulation.trials: True is not a valid int"],
    ),
    "config_capacity_bool": (
        [("config.yaml", "capacity_gb_month: [20, 30, 40]", "capacity_gb_month: [20, yes, 40]")],
        ["config: axes.capacity_gb_month: True is not a valid float"],
    ),
    "config_density_grid_bool": (
        [("config.yaml", "density_grid: [0.01,", "density_grid: [on,")],
        ["config: simulation.density_grid: True is not a valid float"],
    ),
    "config_cagr_bool": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {low: no}}\n")],
        ["config: adoption.cagr.LIC.low: False is not a valid float"],
    ),
    # --- density grids that cannot give a capacity table, and seeds no RNG takes ---
    "config_density_grid_too_short": (
        [("config.yaml", "density_grid: [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]",
          "density_grid: [0.5, 0.2, 1.0]")],
        ["config: simulation: density grid needs at least 8 points"],
    ),
    "config_density_grid_not_increasing": (
        [("config.yaml", "2.0, 5.0, 10.0]", "2.0, 10.0, 5.0]")],
        ["config: simulation: density grid must be strictly increasing"],
    ),
    "config_density_grid_shared_stream": (
        [("config.yaml", "density_grid: [0.01, 0.02,", "density_grid: [0.0100001, 0.0100004, 0.02,")],
        ["config: simulation: density grid points closer than 1e-6 sites/km^2 (or to 0) share an RNG stream"],
    ),
    "config_density_grid_stream_of_zero": (
        [("config.yaml", "density_grid: [0.01,", "density_grid: [4.0e-7, 0.01,")],
        ["config: simulation: density grid points closer than 1e-6 sites/km^2 (or to 0) share an RNG stream"],
    ),
    "config_density_grid_negative_point": (
        [("config.yaml", "density_grid: [0.01,", "density_grid: [-0.5, 0.01,")],
        ["config: simulation: density grid points must be > 0"],
    ),
    "config_seed_negative": (
        [("config.yaml", "seed: 20230", "seed: -5")],
        ["config: simulation: seed: -5 must be >= 0"],
    ),
    # --- link parameters the radio chain cannot take ---
    "config_temperature_zero": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  temperature_k: 0")],
        ["config: simulation: temperature_k: 0.0 must be > 0"],
    ),
    "config_temperature_negative": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  temperature_k: -5")],
        ["config: simulation: temperature_k: -5.0 must be > 0"],
    ),
    "config_shadow_sigma_negative": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  shadow_sigma_db: -3")],
        ["config: simulation: shadow_sigma_db: -3.0 must be >= 0"],
    ),
    "config_shadow_mu_zero": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  shadow_mu_db: 0")],
        ["config: simulation: shadow_mu_db must be > 0 when shadow_sigma_db > 0"],
    ),
    "config_shadow_mu_zero_without_fading_loads": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  shadow_mu_db: 0\n  shadow_sigma_db: 0")],
        [],
    ),
    # --- every rule a config section or a CSV row breaks: the field bounds in field order, then the rest ---
    "config_simulation_three_faults": (
        [("config.yaml", "trials: 10000", "trials: 10000\n  temperature_k: 0\n  shadow_sigma_db: -3\n  reliability: 2")],
        [
            "config: simulation: shadow_sigma_db: -3.0 must be >= 0",
            "config: simulation: temperature_k: 0.0 must be > 0",
            "config: simulation: reliability: 2.0 must be < 1",
        ],
    ),
    "config_cost_two_faults": (
        [("config.yaml", "tax_rate_low: 0.10", "tax_rate_low: 0.50"), ("config.yaml", "civils_usd: 30000", "civils_usd: -1")],
        ["config: cost: civils_usd: -1.0 must be >= 0", "config: cost: tax rates must be ordered low <= baseline <= high"],
    ),
    # a cell outside its bound drops the row before the rules across its cells run
    "countries_arpu_unordered_and_on_grid_above_one": (
        [("countries.csv", "MLA,LMC,3,6,10,14,0.67", "MLA,LMC,3,6,16,14,1.67")],
        ["countries.csv:2: on_grid_share: 1.67 must be <= 1", *MLA_DROPPED],
    ),
    "countries_iso3_comma_and_arpu_unordered": (
        [("countries.csv", "MLA,LMC,3,6,10,14,", '"MLA,X",LMC,3,6,16,14,')],
        [
            "countries.csv:2: 'MLA,X': country_iso3 must not contain a comma, a double quote or a line break",
            "countries.csv:2: MLA,X: ARPU tiers must be ordered low <= base <= high",
            *MLA_DROPPED,
        ],
    ),
    "config_axis_not_a_list": (
        [("config.yaml", "backhaul: [wireless, fiber]", "backhaul: 7")],
        ["config: axes.backhaul must be a list"],
    ),
    "config_capacity_not_a_list": (
        [("config.yaml", "capacity_gb_month: [20, 30, 40]", "capacity_gb_month: 30")],
        ["config: axes.capacity_gb_month must be a list"],
    ),
    "config_portfolios_not_a_list": (
        [("config.yaml", APPEND, "tables:\n  portfolios: 3\n")],
        ["config: tables.portfolios must be a list"],
    ),
    # each names the pair it expects, not the Python error that building a carrier from it would raise
    **{f"config_table_portfolio_carriers_{name}": (
        [("config.yaml", APPEND, f"tables:\n  portfolios:\n    - {{generation: 4G, carriers: {carriers}}}\n")],
        [f"config: tables.portfolios: carriers: {carriers} is not a list of [frequency_mhz, bandwidth_mhz] pairs"],
    ) for name, carriers in (("one_number", "[[800]]"), ("three_numbers", "[[800, 10, 5]]"), ("a_number", "5"),
                             ("a_flat_pair", "[800, 10]"))},
    "config_int_not_integral": (
        [("config.yaml", "start_year: 2023", "start_year: 2023.9")],
        ["config: horizon.start_year: 2023.9 is not a valid int"],
    ),
    "config_int_integral_float_loads": (
        [("config.yaml", "trials: 10000", "trials: 10000.0")],
        [],
    ),
    "config_int_inf": (
        [("config.yaml", "trials: 10000", "trials: .inf")],
        ["config: simulation.trials: inf is not a valid int"],
    ),
    # --- rates whose growth over the horizon would corrupt or crash a run ---
    "config_cagr_below_minus_one": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {low: -3.0}}\n")],
        ["config: adoption.cagr.LIC.low: -3.0 must be >= -1"],
    ),
    "config_cagr_minus_one_loads": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {low: -1}}\n")],
        [],
    ),
    "config_cagr_overflows": (
        [("config.yaml", PENETRATION_CAP, PENETRATION_CAP + "  cagr: {LIC: {low: 1.0e300}, HIC: {high: 1.0e30}}\n")],
        ["config: adoption.cagr.LIC.low: (1 + 1e+300) ** 8 overflows"],
    ),
    "config_discount_overflows": (
        [("config.yaml", "discount_rate: 0.05", "discount_rate: 1.0e300")],
        ["config: horizon.discount_rate: (1 + 1e+300) ** 8 overflows"],
    ),
    # --- country totals a run cannot hold as 64-bit integers ---
    "regions_population_total_overflows": (
        [("regions.csv", "MLA-R01,MLA,480000,", "MLA-R01,MLA,10000000000000000000,")],
        ["regions.csv: MLA: total population above 2**63 - 1"],
    ),
    "regions_both_totals_overflow": (
        [("regions.csv", "MLB-S01,MLB,900000,300,200", "MLB-S01,MLB,9223372036854775807,300,9223372036854775807")],
        ["regions.csv: MLB: total population and total existing_sites above 2**63 - 1"],
    ),
    "regions_population_total_at_the_limit_loads": (
        [("regions.csv", "MLA-R01,MLA,480000,", "MLA-R01,MLA,9223372036853105807,")],
        [],
    ),
    # --- region areas whose decile arithmetic leaves float range ---
    "regions_density_not_finite": (  # 10 regions: the region is a decile of its own, of density inf
        [("regions.csv", "MLA-R01,MLA,480000,200,", "MLA-R01,MLA,480000,1e-320,"),
         ("regions.csv", "MLA-R11,MLA,40000,5000,30\nMLA-R12,MLA,20000,6250,25\n", "")],
        ["regions.csv:2: region MLA-R01: population / area_km2 is not finite"],
    ),
    "regions_population_beyond_float_range_is_its_total": (  # population / area would raise, not overflow
        [("regions.csv", "MLA-R01,MLA,480000,", f"MLA-R01,MLA,{10**400},")],
        ["regions.csv: MLA: total population above 2**63 - 1"],
    ),
    "regions_area_total_not_finite": (  # 20 regions: the two sparsest share decile 10, of area inf
        [("regions.csv", APPEND,
          "".join(f"MLA-R{i},MLA,1000,{'1e308' if i < 15 else 1000},0\n" for i in range(13, 21)))],
        ["regions.csv: MLA: total area_km2 is not finite"],
    ),
    # --- a record csv cannot read: the rows before it load ---
    "regions_record_over_the_field_limit": (  # a stray quote runs one field past csv's 131072 characters
        [("regions.csv", APPEND, '"' + "x" * 140_000)],
        ["regions.csv:26: unreadable record: field larger than field limit (131072)"],
    ),
}

#: The damaged configs that passed ``validate`` before rates were bounded:
#: ``run`` then crashed with an OverflowError, or wrote sign-flipping demand.
BAD_RATES = ("config_cagr_below_minus_one", "config_cagr_overflows", "config_discount_overflows")


def damage(data_dir, edits):
    for name, old, new in edits:
        path = data_dir / name
        if old is None and new is None:
            path.unlink()
        elif old is None:
            path.write_text(new)
        elif old is APPEND:
            path.write_text(path.read_text() + new)
        else:
            text = path.read_text()
            assert old in text, f"{name}: {old!r} not found"
            path.write_text(text.replace(old, new, 1))


def diagnostics(data_dir, config_path):
    try:
        load_bundle(data_dir, config_path)
    except InputValidationError as err:
        return [str(d) for d in err.diagnostics]
    return []


@pytest.mark.parametrize("edits, expected", list(CASES.values()), ids=list(CASES))
def test_diagnostics_pinned(miniland_copy, edits, expected):
    damage(miniland_copy, edits)
    assert diagnostics(miniland_copy, miniland_copy / "config.yaml") == expected


@pytest.mark.parametrize("case", BAD_RATES)
def test_bad_rates_stop_validate_and_run(miniland_copy, tmp_path, capsys, case):
    edits, expected = CASES[case]
    damage(miniland_copy, edits)
    args = ["--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")]
    assert main(["validate", *args]) == EXIT_VALIDATION
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count(expected[0]) == 2
    assert not (tmp_path / "out").exists()


#: The damaged regions that passed ``validate`` before country totals and
#: region densities were bounded: ``run`` then died with an OverflowError
#: traceback, stopped at an infinite decile density (exit 3), or failed every
#: run on a decile area sum of inf.
OVERFLOWING_TOTALS = ("regions_population_total_overflows", "regions_both_totals_overflow",
                      "regions_density_not_finite", "regions_area_total_not_finite")


@pytest.mark.parametrize("case", OVERFLOWING_TOTALS)
def test_overflowing_totals_stop_validate_and_run(miniland_copy, tmp_path, capsys, case):
    edits, expected = CASES[case]
    damage(miniland_copy, edits)
    args = ["--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")]
    assert main(["validate", *args]) == EXIT_VALIDATION
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count(expected[0]) == 2
    assert not (tmp_path / "out").exists()


#: The damaged configs that passed ``validate`` before the density grid, the
#: seed and the link parameters were checked on load: ``run`` and ``tables``
#: then failed (exit 3, or a traceback for the seed and a zero temperature),
#: or built, for a negative shadow sigma, the table of its absolute value.
BAD_TABLE_INPUTS = ("config_density_grid_too_short", "config_density_grid_shared_stream", "config_seed_negative",
                    "config_table_portfolio_carriers_share_a_stream", "config_density_grid_negative_point",
                    "config_temperature_zero", "config_temperature_negative", "config_shadow_sigma_negative",
                    "config_shadow_mu_zero")


@pytest.mark.parametrize("case", BAD_TABLE_INPUTS)
def test_bad_table_inputs_stop_validate_run_and_tables(miniland_copy, tmp_path, capsys, case):
    edits, expected = CASES[case]
    damage(miniland_copy, edits)
    args = ["--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")]
    assert main(["validate", *args]) == EXIT_VALIDATION
    assert main(["run", *args, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    assert main(["tables", *args, "--out", str(tmp_path / "tables")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count(expected[0]) == 3
    assert not (tmp_path / "run").exists() and not (tmp_path / "tables").exists()


def test_carriers_sharing_a_stream_stop_validate_and_run(miniland_copy, tmp_path, capsys):
    edits, expected = CASES["spectrum_carriers_share_a_stream"]
    damage(miniland_copy, edits)
    args = ["--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")]
    assert main(["validate", *args]) == EXIT_VALIDATION
    assert main(["run", *args, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count(expected[0]) == 2
    assert not (tmp_path / "run").exists()


def test_a_bundle_with_no_country_stops_validate_and_run(miniland_copy, tmp_path, capsys):
    # four header-only CSVs: before, validate printed OK and run wrote 1440 runs as six header-only files
    for name in ("countries.csv", "regions.csv", "spectrum.csv", "energy_mix.csv"):
        path = miniland_copy / name
        path.write_text(path.read_text().splitlines()[0] + "\n")
    args = ["--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")]
    assert main(["validate", *args]) == EXIT_VALIDATION
    assert main(["run", *args, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["countries.csv: no country rows", "INVALID: 1 problem(s)",
                                                    "countries.csv: no country rows"]
    assert not (tmp_path / "run").exists()


def test_long_horizon_keeps_validate_output_short(miniland_copy, capsys):
    # every rate now overflows too, one line each; the mix years are one range per country
    config = miniland_copy / "config.yaml"
    text = config.read_text()
    for end_year in ("200000", "100000000"):
        config.write_text(text.replace("end_year: 2030", f"end_year: {end_year}"))
        assert main(["validate", "--data", str(miniland_copy), "--config", str(config)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"energy_mix.csv: MLA: missing mix years [2031-{end_year}]\n" in err
        assert len(err.encode()) < 4096
    # a float end year reads as its integer, and the work still grows with the mix rows alone
    config.write_text(text.replace("end_year: 2030", "end_year: 1.0e+300"))
    assert main(["validate", "--data", str(miniland_copy), "--config", str(config)]) == EXIT_VALIDATION
    assert f"missing mix years [2031-{int(1.0e+300)}]" in capsys.readouterr().err


def test_yaml_nested_past_the_parser_recursion_is_one_diagnostic(miniland_copy):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text() + "tables:\n  portfolios: " + "[" * 1000 + "]" * 1000 + "\n")
    [only] = diagnostics(miniland_copy, config)
    assert only.startswith("config.yaml: invalid YAML: maximum recursion depth exceeded")
    assert main(["validate", "--data", str(miniland_copy), "--config", str(config)]) == EXIT_VALIDATION


def test_missing_data_directory(miniland_copy):
    missing = miniland_copy / "elsewhere"
    assert diagnostics(missing, miniland_copy / "config.yaml") == [f"{missing}: data directory is missing"]


# A file that is not UTF-8 (here a Latin-1 e-acute) is one diagnostic with
# the offset of its first bad byte; a CSV then contributes no rows.
LATIN1_CASES = {
    "regions.csv": (
        ("MLA-R05,MLA", "MLA-R\u00e905,MLA"),
        ["regions.csv: country MLA has no regions", "regions.csv: country MLB has no regions"],
    ),
    "config.yaml": (("# Miniland synthetic", "# Miniland synth\u00e9tic"), []),
}


@pytest.mark.parametrize("name", list(LATIN1_CASES))
def test_non_utf8_file_is_one_diagnostic(miniland_copy, capsys, name):
    (old, new), follow_on = LATIN1_CASES[name]
    path = miniland_copy / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    data = text.replace(old, new, 1).encode("latin-1")
    path.write_bytes(data)
    first_bad = f"{name}: not valid UTF-8: byte 0xe9 at offset {data.index(0xE9)}"
    assert diagnostics(miniland_copy, miniland_copy / "config.yaml") == [first_bad, *follow_on]
    code = main(["validate", "--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")])
    assert code == EXIT_VALIDATION
    assert first_bad in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"  # how spreadsheet "CSV UTF-8" exports begin


@pytest.mark.parametrize("name", ["regions.csv", "config.yaml"])
def test_byte_order_mark_is_accepted(miniland_copy, name):
    path = miniland_copy / name
    path.write_bytes(BOM + path.read_bytes())
    assert diagnostics(miniland_copy, miniland_copy / "config.yaml") == []


def test_byte_order_mark_then_non_utf8_gives_the_file_offset(miniland_copy):
    (old, new), follow_on = LATIN1_CASES["regions.csv"]
    path = miniland_copy / "regions.csv"
    data = BOM + path.read_text(encoding="utf-8").replace(old, new, 1).encode("latin-1")
    path.write_bytes(data)
    first_bad = f"regions.csv: not valid UTF-8: byte 0xe9 at offset {data.index(0xE9)}"
    assert diagnostics(miniland_copy, miniland_copy / "config.yaml") == [first_bad, *follow_on]


# --- each single-field bound: one declaration in core, read by the record and by the input reader ---

#: The records whose fields declare bounds on a CSV's columns, and a valid one of each from miniland.
CSV_RECORDS = {
    "countries.csv": (CountryParams, lambda b: b.countries["MLA"]),
    "spectrum.csv": (Carrier, lambda b: b.countries["MLA"].spectrum_portfolio[0][1]),
    "emission_factors.csv": (FactorRow, lambda b: b.emission_factors.by_source["coal"]),
}


def _bound_cases():
    """``(record, field, kind, bounds, input, rebuild)`` for every bound core declares.

    ``input`` is ``(file, column)`` for a CSV column, or ``("config", path)`` for a config key (the path's keys
    from the section down); ``rebuild(bundle, value)``
    builds the record with that value, or is None where only the reader checks the bound.
    """
    def kind(record, name):
        return {"int": int, "float": float, "str": str}[{f.name: f.type for f in dataclasses.fields(record)}[name]]

    for file, (record, valid) in CSV_RECORDS.items():
        for name, bounds in declared_bounds(record).items():
            yield (record, name, kind(record, name), bounds, (file, name),
                   lambda b, v, valid=valid, name=name: dataclasses.replace(valid(b), **{name: v}))
    yield (SpectralEfficiencyTable, "se_bps_hz", float, SpectralEfficiencyTable.SE_BPS_HZ_BOUNDS,
           ("se_table.csv", "se_bps_hz"),
           lambda b, v: SpectralEfficiencyTable({**b.se_table.rows, Generation.G4: ((0.0, v),)}))
    yield None, "share", float, MIX_SHARE_BOUNDS, ("energy_mix.csv", "share"), None
    # each Regions column is checked on its cells alone: there is no record to rebuild
    column_kinds = {column: column_kind for column, column_kind, _ in SCHEMAS["regions.csv"]}
    for name, bounds in declared_bounds(Regions).items():
        yield Regions, name, column_kinds[name], bounds, ("regions.csv", name), None
    yield (ScenarioSpec, "capacity_gb_month", float, declared_bounds(ScenarioSpec)["capacity_gb_month"],
           ("config", ("axes", "capacity_gb_month")), lambda b, v: ScenarioSpec(v, AdoptionScenario.BASELINE))
    yield None, "cagr.LIC.low", float, ADOPTION_CAGR_BOUNDS, ("config", ("adoption", "cagr", "LIC", "low")), None
    # the loader's own declaration of the config records, so that no section's bounds go untested
    for section, record in CONFIG_RECORDS.items():
        for name, bounds in declared_bounds(record).items():
            yield (record, name, kind(record, name), bounds, ("config", (section, name)),
                   lambda b, v, record=record, name=name: record(**{name: v}))


BOUND_CASES = [(*case, op, limit) for case in _bound_cases() for op, limit in case[3]]


def test_every_declared_bound_has_a_case():
    records = [c for c in vars(core).values() if isinstance(c, type) and dataclasses.is_dataclass(c)]
    declared = {(record, name) for record in records for name in declared_bounds(record)}
    assert declared <= {(case[0], case[1]) for case in BOUND_CASES}


def _outside(op, limit, kind):
    """The value of ``kind`` nearest ``limit`` that breaks the bound ``op limit``."""
    if op == "nonempty":
        return ""
    if op in (">", "<"):
        return kind(limit)
    step = -1 if op == ">=" else 1
    return limit + step if kind is int else math.nextafter(limit, step * math.inf)


def _damage_with(data_dir, source, value):
    """Set ``source`` (a CSV column's first row, or a config key) to ``value``; the expected diagnostic prefix."""
    file, column = source
    if file == "config":
        config = yaml.safe_load((data_dir / "config.yaml").read_text())
        section, *path, key = column
        parent = config[section]
        for step in path:
            parent = parent.setdefault(step, {})
        parent[key] = [value, 30.0] if section == "axes" else value
        (data_dir / "config.yaml").write_text(yaml.safe_dump(config))
        # a record reports its bound after the section; the reader reports a list item's or a table's with its path
        return f"config: {section}." if section == "axes" or path else f"config: {section}: "
    path = data_dir / file
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = str(value)
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    return f"{file}:2: "


@pytest.mark.parametrize("record, name, kind, bounds, source, rebuild, op, limit", BOUND_CASES,
                         ids=[f"{case[1]}{case[6]}{case[7]}" for case in BOUND_CASES])
def test_a_bound_is_one_rule_with_one_text(miniland_copy, bundle, record, name, kind, bounds, source, rebuild, op,
                                           limit):
    if source[0] != "config":
        # the reader checks the declaration itself, not a copy
        assert {column: b for column, _, b in SCHEMAS[source[0]]}[source[1]] is bounds
    value = _outside(op, limit, kind)
    text = f"{name} is empty" if op == "nonempty" else f"{name}: {value} must be {op} {limit}"
    prefix = _damage_with(miniland_copy, source, value)
    assert diagnostics(miniland_copy, miniland_copy / "config.yaml").count(prefix + text) == 1
    if rebuild:
        with pytest.raises(ValidationError) as err:
            rebuild(bundle, value)
        assert err.value.args[0] == text


@pytest.mark.parametrize("record, name, kind, bounds, source, rebuild, op, limit",
                         [case for case in BOUND_CASES if case[6] in (">=", "<=")],
                         ids=[f"{case[1]}{case[6]}{case[7]}" for case in BOUND_CASES if case[6] in (">=", "<=")])
def test_a_value_on_an_inclusive_limit_passes(miniland_copy, bundle, record, name, kind, bounds, source, rebuild, op,
                                              limit):
    value = kind(limit)
    prefix = _damage_with(miniland_copy, source, value)
    assert not [d for d in diagnostics(miniland_copy, miniland_copy / "config.yaml") if d.startswith(prefix + name)]
    if rebuild:
        try:
            rebuild(bundle, value)
        except ValidationError as err:  # a rule across fields may break; the bound must not
            assert not [m for m in err.args if m.startswith(f"{name}:")]
