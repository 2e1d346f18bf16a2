"""The input path stays numpy-free, and moving its types kept every old name and cache key.

``data_io`` imports only ``core`` and ``errors``, and neither imports numpy,
so ``validate``, ``import bband_sim`` and ``import bband_sim.cli`` never
load it; ``run`` and ``tables`` do when they start. A ``run`` whose capacity
tables all come from the cache never loads the thread pool either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bband_sim
from bband_sim import core, cost, demand, energy, radio
from bband_sim.radio import table_cache_key

SRC = Path(bband_sim.__file__).resolve().parent

#: Checks, in a fresh interpreter (pytest has already loaded numpy), that
#: importing the package and the CLI, validating a good and a bad data
#: directory, and parsing and applying a ``--runs`` filter load no numpy module.
CHILD = """
import sys
import bband_sim
import bband_sim.cli as cli
good, bad = sys.argv[1:3], sys.argv[3:5]
codes = [cli.main(["validate", "--data", data, "--config", config]) for data, config in (good, bad)]
assert codes == [0, 2], codes
accept = cli.parse_run_filter("generation=4G,capacity=30")
run = bband_sim.enumerate_runs(bband_sim.StrategySpace(), bband_sim.ScenarioSpace(capacities_gb_month=(30.0,)))[0]
assert accept(*run)
loaded = sorted(name for name in sys.modules if name == "numpy" or name.startswith("numpy."))
assert not loaded, loaded[:5]
"""


def test_validate_and_imports_load_no_numpy(miniland_dir, miniland_config, miniland_copy):
    with (miniland_copy / "regions.csv").open("a") as fh:
        fh.write("R-bad,MLA,-5,1.0,0\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    argv = [miniland_dir, miniland_config, miniland_copy, miniland_copy / "config.yaml"]
    child = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "OK"
    assert "population" in child.stderr  # the damaged copy was reported, not skipped


#: Runs ``cli.main`` on the given arguments in a fresh interpreter, then
#: checks that nothing loaded ``concurrent.futures``.
RUN_CHILD = """
import sys
import bband_sim.cli as cli
assert cli.main(sys.argv[1:]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("concurrent"))
assert not loaded, loaded
"""


def test_warm_cache_run_loads_no_thread_pool(bundle, miniland_dir, miniland_config, table_cache, tmp_path):
    from bband_sim.pipeline import capacity_tables

    capacity_tables(bundle, cache_dir=table_cache)  # every table is in the cache now
    env = {**os.environ, "BBAND_SIM_CACHE": str(table_cache),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    argv = ["run", "--data", miniland_dir, "--config", miniland_config, "--out", out, "--jobs", "2",
            "--runs", "generation=4G,capacity=30"]
    child = subprocess.run([sys.executable, "-c", RUN_CHILD, *map(str, argv)], env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    assert (out / "results_decile.csv").is_file()


def relative_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def absolute_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    return {name.partition(".")[0] for name in names}


def test_data_io_imports_only_numpy_free_modules():
    allowed = {"core", "errors"}
    assert relative_imports("data_io") <= allowed
    for module in allowed:
        assert relative_imports(module) <= allowed, module
        assert "numpy" not in absolute_imports(module), module


def test_pipeline_exports_resolve_on_first_use():
    from bband_sim import pipeline

    assert bband_sim.run_pipeline is pipeline.run_pipeline
    assert bband_sim.emit_results is pipeline.emit_results
    assert bband_sim.PipelineOutput is pipeline.PipelineOutput
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bband_sim, "no_such_name")
    assert bband_sim.__all__ == [
        "AdoptionScenario", "Backhaul", "BbandSimError", "CountryParams", "DecileRecord", "EnergyStrategy",
        "Generation", "IncomeGroup", "InputBundle", "InputValidationError", "MissingDataError", "PipelineOutput",
        "Policy", "Regions", "ScenarioSpace", "ScenarioSpec", "Settlement", "Sharing",
        "StrategyBundle", "StrategySpace", "ValidationError", "build_deciles", "classify_settlement",
        "emit_results", "enumerate_runs", "load_bundle", "run_pipeline", "save_bundle",
    ]
    assert all(hasattr(bband_sim, name) for name in bband_sim.__all__)


#: The input types that moved to ``core``, by the module that defined them before.
MOVED = {
    radio: ("SimulationParams", "Carrier", "FrequencySet", "SpectralEfficiencyTable", "MIMO_STREAMS",
            "DEFAULT_DENSITY_GRID"),
    cost: ("CostInputs",),
    demand: ("AdoptionParams", "DEFAULT_ADOPTION_CAGR"),
    energy: ("EnergyParams", "FactorRow", "EmissionFactors", "MIX_SOURCES", "ZERO_EMISSION_SOURCES",
             "DIESEL_SOURCE", "MIX_SUM_TOLERANCE"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_moved_names_keep_their_old_import_path(module, name):
    assert getattr(module, name) is getattr(core, name)


#: The capacity-cache file name of each miniland (country, generation), as
#: written before the input types moved: the tables' keys must not change.
MINILAND_CACHE_KEYS = {
    ("MLA", "4G"): "ab8a38f9050224a11bd3a54034f0b3e8ad1b6a2e6a24c68e39d4d0d587a56e0d",
    ("MLA", "5G"): "eaffea49072d2f2393d1982fa0a30e2f725dc72bb55b15e9aecc3b5c52a4d2c1",
    ("MLB", "4G"): "ab8a38f9050224a11bd3a54034f0b3e8ad1b6a2e6a24c68e39d4d0d587a56e0d",
    ("MLB", "5G"): "c4503100731f784d7eff68503983ddaddc60b70627d484f419b54204585723b7",
}


def test_miniland_cache_keys_unchanged(bundle):
    keys = {
        (iso3, gen.value): table_cache_key(bundle.sim_params, bundle.se_table,
                                           bundle.countries[iso3].frequency_set(gen), bundle.density_grid)
        for iso3 in sorted(bundle.countries) for gen in bundle.strategy_space.generations
    }
    assert keys == MINILAND_CACHE_KEYS
