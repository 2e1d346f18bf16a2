import csv
from pathlib import Path

import pytest
import yaml

from bband_sim.core import AdoptionScenario, Carrier, Generation, Horizon, IncomeGroup
from bband_sim.data_io import default_se_table_path, load_bundle, load_table_inputs, save_bundle
from bband_sim.errors import InputValidationError


def rewrite(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text, f"fixture line {old!r} not found"
    path.write_text(text.replace(old, new))


class TestLoadMiniland:
    def test_fixture_is_valid(self, bundle):
        assert sorted(bundle.countries) == ["MLA", "MLB"]
        assert len(bundle.regions["MLA"]) == 12
        assert len(bundle.regions["MLB"]) == 12
        assert bundle.countries["MLA"].market_share == pytest.approx(1 / 3)
        assert bundle.countries["MLB"].income_group == IncomeGroup.UMC

    def test_mix_years_cover_horizon(self, bundle):
        for iso3 in bundle.countries:
            years = sorted(bundle.energy_mix[iso3])
            assert years == list(range(2023, 2031))

    def test_spectrum_portfolios(self, bundle):
        fs4 = bundle.countries["MLA"].frequency_set(Generation.G4)
        assert fs4.total_bandwidth_mhz == 30
        fs5 = bundle.countries["MLB"].frequency_set(Generation.G5)
        assert fs5.total_bandwidth_mhz == 50


class TestValidationDiagnostics:
    def test_mix_sum_rejected_with_year(self, miniland_copy):
        rewrite(miniland_copy / "energy_mix.csv", "MLA,2026,coal,0.37", "MLA,2026,coal,0.34")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        messages = [str(d) for d in err.value.diagnostics]
        assert any("MLA/2026" in m and "0.97" in m for m in messages)

    def test_unknown_country_reference_names_both_ids(self, miniland_copy):
        rewrite(miniland_copy / "regions.csv", "MLA-R05,MLA", "MLA-R05,XXX")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        messages = [str(d) for d in err.value.diagnostics]
        assert any("MLA-R05" in m and "XXX" in m for m in messages)

    def test_header_must_match_exactly(self, miniland_copy):
        rewrite(miniland_copy / "countries.csv", "country_iso3,income_group", "iso3,income_group")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert any("header" in str(d) for d in err.value.diagnostics)

    def test_negative_quantity_rejected(self, miniland_copy):
        rewrite(miniland_copy / "regions.csv", "MLA-R07,MLA,120000", "MLA-R07,MLA,-5")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert any("population" in str(d) for d in err.value.diagnostics)

    def test_collects_all_errors_not_fail_fast(self, miniland_copy):
        rewrite(miniland_copy / "regions.csv", "MLA-R07,MLA,120000", "MLA-R07,MLA,-5")
        rewrite(miniland_copy / "energy_mix.csv", "MLB,2027,coal,0.26", "MLB,2027,coal,0.5")
        rewrite(miniland_copy / "spectrum.csv", "MLB,5G,3500,40", "MLB,5G,3500,-40")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        files = {d.file for d in err.value.diagnostics}
        assert {"regions.csv", "energy_mix.csv", "spectrum.csv"} <= files

    def test_missing_file_reported(self, miniland_copy):
        (miniland_copy / "emission_factors.csv").unlink()
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert any("missing" in str(d) for d in err.value.diagnostics)

    def test_duplicate_region_id(self, miniland_copy):
        rewrite(miniland_copy / "regions.csv", "MLA-R12,MLA", "MLA-R11,MLA")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert any("duplicate" in str(d) for d in err.value.diagnostics)


def load_with_sections(data_dir: Path, **sections):
    """``load_bundle`` of ``data_dir`` with config sections replaced; a ``None`` section is dropped."""
    config = yaml.safe_load((data_dir / "config.yaml").read_text())
    for name, section in sections.items():
        if section is None:
            config.pop(name)
        else:
            config[name] = section
    (data_dir / "config.yaml").write_text(yaml.safe_dump(config))
    return load_bundle(data_dir, data_dir / "config.yaml")


class TestValidateAxes:
    def test_defaults_when_omitted(self, miniland_copy):
        bundle = load_with_sections(miniland_copy, axes=None)
        assert bundle.scenario_space.capacities_gb_month == (20.0, 30.0, 40.0)
        assert len(bundle.strategy_space.policies) == 5

    def test_unknown_adoption_listed(self, miniland_copy):
        with pytest.raises(InputValidationError) as err:
            load_with_sections(miniland_copy, axes={"adoption": ["medium"]})
        message = " ".join(str(d) for d in err.value.diagnostics)
        assert "medium" in message
        for valid in ("low", "baseline", "high"):
            assert valid in message

    def test_subset_axes(self, miniland_copy):
        bundle = load_with_sections(miniland_copy, axes={"generation": ["4G"], "capacity_gb_month": [30]},
                                    horizon={"start_year": 2024, "end_year": 2028})
        assert [g.value for g in bundle.strategy_space.generations] == ["4G"]
        assert bundle.scenario_space.capacities_gb_month == (30.0,)
        assert bundle.scenario_space.horizon == Horizon(2024, 2028)

    def test_lic_baseline_cagr_default(self, bundle):
        assert bundle.adoption.cagr(IncomeGroup.LIC, AdoptionScenario.BASELINE) == 0.04


MLA_SPECTRUM = "MLA,4G,800,10\nMLA,4G,1800,10\nMLA,4G,2500,10\nMLA,5G,700,10\nMLA,5G,3500,30\n"
# generations interleaved and frequencies unsorted: a carrier's place in its set comes from the file alone
MLA_SPECTRUM_INTERLEAVED = "MLA,4G,1800,10\nMLA,5G,3500,30\nMLA,4G,800,10\nMLA,5G,700,10\nMLA,4G,2500,10\n"


def spectrum_rows(path: Path) -> list[tuple]:
    """The rows of a ``spectrum.csv`` as ``(iso3, generation, MHz, MHz)``, in file order."""
    with path.open(newline="") as fh:
        return [(iso3, gen, float(freq), float(bw)) for iso3, gen, freq, bw in list(csv.reader(fh))[1:]]


def interleave_regions(path: Path):
    """Rewrite a ``regions.csv`` with its two countries' rows alternating, each country's in file order."""
    header, *lines = path.read_text().splitlines()
    mla = [line for line in lines if line.split(",")[1] == "MLA"]
    mlb = [line for line in lines if line not in mla]
    assert len(mla) == len(mlb) == 12
    path.write_text("\n".join([header, *(line for pair in zip(mla, mlb) for line in pair)]) + "\n")


class TestRoundTrip:
    @pytest.fixture(params=["miniland", "interleaved", "regions_interleaved"])
    def source(self, request, miniland_copy) -> Path:
        """A data directory to round-trip: miniland, or a copy with MLA's spectrum rows, or the two countries'
        regions, interleaved."""
        if request.param == "interleaved":
            rewrite(miniland_copy / "spectrum.csv", MLA_SPECTRUM, MLA_SPECTRUM_INTERLEAVED)
        if request.param == "regions_interleaved":
            interleave_regions(miniland_copy / "regions.csv")
        return miniland_copy

    def test_save_load_identity(self, source, tmp_path):
        bundle = load_bundle(source, source / "config.yaml")
        data_dir = tmp_path / "data"
        config = tmp_path / "config.yaml"
        save_bundle(bundle, data_dir, config)
        reloaded = load_bundle(data_dir, config)
        assert reloaded == bundle
        rows = spectrum_rows(source / "spectrum.csv")
        assert spectrum_rows(data_dir / "spectrum.csv") == rows
        for iso3, params in reloaded.countries.items():
            for gen in Generation:
                assert params.frequency_set(gen).carriers == tuple(
                    Carrier(freq, bw) for i, g, freq, bw in rows if (i, g) == (iso3, gen.value))

    def test_double_round_trip_stable(self, source, tmp_path):
        bundle = load_bundle(source, source / "config.yaml")
        save_bundle(bundle, tmp_path / "a", tmp_path / "a.yaml")
        b1 = load_bundle(tmp_path / "a", tmp_path / "a.yaml")
        save_bundle(b1, tmp_path / "b", tmp_path / "b.yaml")
        b2 = load_bundle(tmp_path / "b", tmp_path / "b.yaml")
        assert b1 == b2
        for name in ("regions.csv", "countries.csv", "spectrum.csv", "energy_mix.csv", "emission_factors.csv", "se_table.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestConfigGrammar:
    def test_unknown_section_rejected(self, miniland_dir, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"axes": {}, "misc": {"x": 1}}))
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_dir, config)
        assert any("misc" in str(d) for d in err.value.diagnostics)

    def test_incomplete_cost_section_rejected(self, miniland_copy):
        rewrite(miniland_copy / "config.yaml", "  core_usd: 10000\n", "")
        with pytest.raises(InputValidationError) as err:
            load_bundle(miniland_copy, miniland_copy / "config.yaml")
        assert any("core_usd" in str(d) for d in err.value.diagnostics)

    def test_empty_config_uses_defaults(self, miniland_dir, tmp_path):
        config = tmp_path / "empty.yaml"
        config.write_text("")
        bundle = load_bundle(miniland_dir, config)
        assert bundle.sim_params.trials == 10_000
        assert bundle.cost_inputs.equipment_usd == 40_000.0


class TestTableInputs:
    def test_matches_bundle(self, bundle, miniland_dir, miniland_config):
        inputs = load_table_inputs(miniland_config, miniland_dir)
        assert inputs.sim_params == bundle.sim_params
        assert inputs.density_grid == bundle.density_grid
        assert inputs.se_table == bundle.se_table
        assert inputs.portfolios == bundle.table_portfolios

    def test_se_table_from_data_dir_else_packaged(self, miniland_copy):
        config = miniland_copy / "config.yaml"
        packaged = load_table_inputs(config).se_table
        se = default_se_table_path().read_text().replace("4G,-6.7,0.1523", "4G,-6.5,0.1523")
        (miniland_copy / "se_table.csv").write_text(se)
        assert load_table_inputs(config, miniland_copy).se_table != packaged
        assert load_table_inputs(config, miniland_copy / "elsewhere").se_table == packaged

    def test_collects_all_errors_not_fail_fast(self, miniland_copy):
        rewrite(miniland_copy / "config.yaml", "  trials: 10000\n", "  trials: 5\n")
        with (miniland_copy / "config.yaml").open("a") as fh:
            fh.write("tables:\n  portfolios:\n    - {generation: 6G, carriers: [[800, 10]]}\n")
        (miniland_copy / "se_table.csv").write_text("generation,min_sinr_db,se_bps_hz\n4G,x,1\n")
        with pytest.raises(InputValidationError) as err:
            load_table_inputs(miniland_copy / "config.yaml", miniland_copy)
        messages = [str(d) for d in err.value.diagnostics]
        assert any("trials" in m for m in messages)
        assert any("tables.portfolios" in m for m in messages)
        assert any(m.startswith("se_table.csv") for m in messages)
