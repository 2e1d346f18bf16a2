import csv
import dataclasses
import errno
import hashlib
import itertools
import logging
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bband_sim import save_bundle
from bband_sim.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main, parse_run_filter
from bband_sim.core import enumerate_runs, run_key
from bband_sim.data_io import load_bundle
from bband_sim.errors import ValidationError
from bband_sim.pipeline import EMIT_BLOCK
from conftest import MINILAND_CONFIG, MINILAND_DIR

SINGLE_RUN_FILTER = (
    "generation=4G,backhaul=wireless,sharing=baseline,policy=baseline,"
    "energy=baseline,capacity=30,adoption=baseline"
)


def test_validate_ok(miniland_dir, miniland_config, capsys):
    code = main(["validate", "--data", str(miniland_dir), "--config", str(miniland_config)])
    assert code == EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_validate_broken_exits_2(miniland_copy, capsys):
    (miniland_copy / "countries.csv").unlink()
    code = main(["validate", "--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml")])
    assert code == EXIT_VALIDATION
    assert "countries.csv" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "tables"])
def test_negative_seed_is_one_line_and_exit_2(miniland_dir, miniland_config, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--data", str(miniland_dir), "--config", str(miniland_config), "--out", str(out),
                 "--seed", "-1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "--seed: seed: -1 must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "tables"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two", "++3"])
def test_jobs_below_one_is_a_usage_error(miniland_dir, miniland_config, tmp_path, capsys, command, jobs):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--data", str(miniland_dir), "--config", str(miniland_config), "--out", str(out),
              "--jobs", jobs])
    assert exit_.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.endswith(f"bband-sim {command}: error: argument --jobs: must be an integer >= 1, got {jobs!r}\n")
    assert not out.exists()


def test_run_single_filter(miniland_dir, miniland_config, table_cache, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
    out = tmp_path / "out"
    code = main([
        "run", "--data", str(miniland_dir), "--config", str(miniland_config),
        "--out", str(out), "--runs", SINGLE_RUN_FILTER,
    ])
    assert code == EXIT_OK
    with (out / "results_decile.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 20


def test_non_finite_money_fails_the_run(miniland_copy, table_cache, tmp_path, monkeypatch, capsys):
    # an ARPU of 1e307 loads, but its revenue present value overflows to inf
    countries = miniland_copy / "countries.csv"
    countries.write_text(countries.read_text().replace("MLA,LMC,3,6,10,14,", "MLA,LMC,3,6,10,1e307,"))
    monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "run", "--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml"),
            "--out", str(out), "--runs", SINGLE_RUN_FILTER,
        ])
    assert code == EXIT_RUNTIME
    # the overflow is the run's failure, reported once, not a numpy warning besides
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.count("ValidationError: sites stage: non-finite revenue_pv_usd") == 1
    files = sorted(out.glob("*.csv"))
    assert len(files) == 6
    assert all(len(path.read_text().splitlines()) == 1 for path in files)
    # the failed run is one line, named by the --runs expression that selects it alone
    [failed] = [line for line in err.splitlines() if line.startswith("FAILED run ")]
    key = failed.removeprefix("FAILED run ").partition(": ")[0]
    bundle = load_bundle(miniland_copy, miniland_copy / "config.yaml")
    accept = parse_run_filter(key)
    assert [run_key(*r) for r in enumerate_runs(bundle.strategy_space, bundle.scenario_space) if accept(*r)] == [
        ("4G", "wireless", "baseline", "baseline", "baseline", 30.0, "baseline")]


@pytest.mark.parametrize("command", ["validate", "run", "tables"])
def test_trials_above_the_ceiling_is_one_diagnostic_and_exit_2(miniland_copy, tmp_path, monkeypatch, capsys, command):
    # 1e17 trials would loop through about 5e13 blocks: every command rejects them on load
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", "  trials: 100000000000000000\n"))
    monkeypatch.setenv("BBAND_SIM_CACHE", str(tmp_path / "cache"))
    capsys.readouterr()
    code = main([command, "--data", str(miniland_copy), "--config", str(config),
                 *(["--out", str(tmp_path / "out")] if command != "validate" else [])])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "config: simulation: trials: 100000000000000000 must be <= 100000000"
    assert err[1:] == (["INVALID: 1 problem(s)"] if command == "validate" else [])
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", ["run", "tables"])
def test_memory_error_in_a_simulation_is_one_line_and_exit_3(miniland_copy, tmp_path, monkeypatch, capsys, command):
    from bband_sim import radio

    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. PiB for an array with shape (100000000000000000,)")
        yield

    monkeypatch.setattr(radio, "sinr_blocks", unallocatable)
    monkeypatch.setenv("BBAND_SIM_CACHE", str(tmp_path / "cache"))
    config = miniland_copy / "config.yaml"
    capsys.readouterr()
    code = main([command, "--data", str(miniland_copy), "--config", str(config), "--out", str(tmp_path / "out"),
                 *(["--runs", SINGLE_RUN_FILTER] if command == "run" else [])])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == "runtime error: Unable to allocate 745. PiB for an array with shape (100000000000000000,)\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


#: The one diagnostic of each link budget out of float range, which every command gives at load.
OUT_OF_RANGE = {
    "tx_power_dbm: 4000": "config: simulation: the largest received power, 3947.4 dBm on each of a trial's 7 paths "
                          "at 800 MHz, is out of float range in mW",
    "noise_figure_db: 4000": "config: simulation: the noise floor over 10 MHz, 3896.02 dBm, is out of float range "
                             "in mW",
    "tx_power_dbm: -4000": "config: simulation: the largest received power, -4052.6 dBm on each of a trial's 7 "
                           "paths at 800 MHz, is out of float range in mW",
    "temperature_k: 1.0e-310": "config: simulation: the noise floor over 10 MHz, -inf dBm, is out of float range in mW",
    "shadow_mu_db: 1.0e-200": "config: simulation: the shadow fading's lognormal, 1e-200 dB mean and 10 dB deviation, "
                              "is out of float range",
}


@pytest.mark.parametrize("command, edit", [
    pytest.param(command, edit, id=edit if command == "validate" else f"{edit}-{command}")
    for edit in sorted(OUT_OF_RANGE) for command in ("validate", "run", "tables")
])
def test_validate_rejects_a_link_budget_out_of_float_range(miniland_copy, tmp_path, monkeypatch, capsys, command,
                                                           edit):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", f"  trials: 10000\n  {edit}\n"))
    monkeypatch.setenv("BBAND_SIM_CACHE", str(tmp_path / "cache"))
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--data", str(miniland_copy), "--config", str(config), *out]) == EXIT_VALIDATION
    invalid = ["INVALID: 1 problem(s)"] if command == "validate" else []
    assert capsys.readouterr().err.splitlines() == [OUT_OF_RANGE[edit], *invalid]
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", ["run", "tables"])
def test_failed_build_leaves_no_directory(miniland_copy, tmp_path, monkeypatch, capsys, command):
    from bband_sim import radio

    def out_of_range(*args, **kwargs):
        raise ValidationError("5G carrier 3500x30 at 0.01 sites/km2: link budget out of float range")
        yield

    # with no BBAND_SIM_CACHE, run caches under --out: neither directory is made before a table is written
    monkeypatch.delenv("BBAND_SIM_CACHE", raising=False)
    monkeypatch.setattr(radio, "sinr_blocks", out_of_range)
    config = miniland_copy / "config.yaml"
    code = main([command, "--data", str(miniland_copy), "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    assert not (tmp_path / "out").exists()


def test_run_is_deterministic_across_invocations(miniland_dir, miniland_config, table_cache, tmp_path, monkeypatch):
    monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "run", "--data", str(miniland_dir), "--config", str(miniland_config),
            "--out", str(out), "--runs", SINGLE_RUN_FILTER,
        ])
        assert code == EXIT_OK
        outs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert outs[0] == outs[1]


def test_verbose_logs_each_stage_and_writes_the_same_bytes(
    miniland_dir, miniland_config, table_cache, tmp_path, monkeypatch, caplog
):
    monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
    outs = {}
    for flags, level in (([], logging.WARNING), (["-v"], logging.INFO)):
        out = tmp_path / ("verbose" if flags else "quiet")
        with caplog.at_level(level, logger="bband_sim"):
            code = main([*flags, "run", "--data", str(miniland_dir), "--config", str(miniland_config),
                         "--out", str(out), "--runs", "generation=4G,capacity=30"])
        assert code == EXIT_OK
        outs[out.name] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert len(outs["verbose"]) == 6
    assert outs["verbose"] == outs["quiet"]
    loads = [r.getMessage() for r in caplog.records if r.getMessage().startswith("input load:")]
    assert [m.rsplit(",", 1)[0] for m in loads] == [
        "input load: 6 files, 169 data rows, 2 countries, 20 deciles, 0 degenerate deciles",
    ]
    stages = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage ")]
    # 240 runs over 2 countries: 3 sites, 120 cost and 48 energy keys per country
    assert [m.rsplit(",", 1)[0] for m in stages] == [
        "stage sites: 6 keys, 2 kernel calls, 0 failed keys, 0 unserviceable rows, 0 degenerate rows",
        "stage cost: 240 keys, 2 kernel calls, 0 failed keys",
        "stage energy: 96 keys, 2 kernel calls, 0 failed keys",
        "stage emit: 4800 keys, 6 kernel calls, 0 failed keys",
    ]


def test_wide_fixture_matches_its_reference(tmp_path, monkeypatch, caplog):
    """The generated 40-country fixture, cold, on one policy: the slice whose deciles reach unserviceable demand."""
    import importlib.util

    from conftest import REPO_ROOT

    spec = importlib.util.spec_from_file_location("bench_fixture", REPO_ROOT / "bench" / "fixture.py")
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    data = fixture.generate("wide", 20230, tmp_path / "wide")
    monkeypatch.delenv("BBAND_SIM_CACHE", raising=False)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="bband_sim"):
        code = main(["-v", "run", "--data", str(data), "--config", str(data / "config.yaml"), "--out", str(out),
                     "--seed", "20230", "--runs", "policy=baseline,energy=baseline,adoption=baseline"])
    assert code == EXIT_OK
    for line in (REPO_ROOT / "bench" / "reference" / "wide.sha256").read_text().splitlines():
        digest, name = line.split()
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    sites = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage sites:")]
    assert [m.rsplit(",", 1)[0] for m in sites] == [
        "stage sites: 240 keys, 40 kernel calls, 0 failed keys, 4 unserviceable rows, 0 degenerate rows",
    ]


def test_bad_runs_expression(miniland_dir, miniland_config, tmp_path, capsys):
    code = main([
        "run", "--data", str(miniland_dir), "--config", str(miniland_config),
        "--out", str(tmp_path / "out"), "--runs", "flavor=salty",
    ])
    assert code == EXIT_VALIDATION


def test_unknown_filter_value_lists_valid_values(miniland_dir, miniland_config, tmp_path, capsys):
    code = main([
        "run", "--data", str(miniland_dir), "--config", str(miniland_config),
        "--out", str(tmp_path / "out"), "--runs", "policy=baseline|lowtax",
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "lowtax" in err
    assert "baseline|low_tax|high_tax|low_spectrum|high_spectrum" in err
    assert not (tmp_path / "out").exists()


def test_empty_filter_match(miniland_dir, miniland_config, tmp_path, capsys):
    code = main([
        "run", "--data", str(miniland_dir), "--config", str(miniland_config),
        "--out", str(tmp_path / "out"), "--runs", "capacity=999",
    ])
    assert code == EXIT_VALIDATION


def test_run_unwritable_out_is_io_error(miniland_dir, miniland_config, table_cache, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main([
        "run", "--data", str(miniland_dir), "--config", str(miniland_config),
        "--out", str(blocker / "out"), "--runs", SINGLE_RUN_FILTER,
    ])
    assert code == EXIT_IO


#: The six result files of a run, and the ``--runs`` slice written over a full earlier run below.
RESULT_FILES = ("results_decile.csv", "results_country.csv", "summary_by_technology.csv", "summary_by_sharing.csv",
                "summary_by_policy.csv", "summary_emissions.csv")
SLICE_FILTER = "generation=4G"


def run_into(out: Path, *args: str) -> int:
    return main(["run", "--data", str(MINILAND_DIR), "--config", str(MINILAND_CONFIG), "--out", str(out), *args])


@pytest.fixture(scope="module")
def earlier_and_slice(table_cache, tmp_path_factory) -> tuple[dict[str, bytes], dict[str, int]]:
    """A full miniland run's result bytes, by file name, and the number of blocks of each file of the slice."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BBAND_SIM_CACHE", str(table_cache))
        full, part = tmp_path_factory.mktemp("full"), tmp_path_factory.mktemp("slice")
        assert run_into(full) == EXIT_OK and run_into(part, "--runs", SLICE_FILTER) == EXIT_OK
    earlier = {name: (full / name).read_bytes() for name in RESULT_FILES}
    blocks = {name: math.ceil(((part / name).read_bytes().count(b"\n") - 1) / EMIT_BLOCK) for name in RESULT_FILES}
    assert earlier != {name: (part / name).read_bytes() for name in RESULT_FILES}
    assert blocks["results_decile.csv"] > 1 and blocks["results_country.csv"] > 1
    return earlier, blocks


class FaultyWrites:
    """A result file opened for writing, whose write of block ``block`` (0 is the first) raises ``error``."""

    def __init__(self, fh, block: int, error: BaseException):
        self.fh, self.block, self.error = fh, block, error
        self.writes = itertools.count(-1)  # write -1 is the header

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text: str) -> int:
        if next(self.writes) == self.block:
            raise self.error
        return self.fh.write(text)


def fail_writes(monkeypatch, name: str, block: int, error: BaseException) -> None:
    """Make each file whose name holds ``name``, opened for writing, a :class:`FaultyWrites`."""
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FaultyWrites(fh, block, error) if "w" in mode and name in path.name else fh

    monkeypatch.setattr(Path, "open", open_)


class TestResultFilesAreOneSet:
    """A run that fails while writing its results leaves the earlier run's six files as they were."""

    fail = staticmethod(fail_writes)

    def earlier_run(self, tmp_path, earlier) -> Path:
        out = tmp_path / "out"
        out.mkdir()
        for name, text in earlier.items():
            (out / name).write_bytes(text)
        return out

    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("name", RESULT_FILES)
    def test_a_write_fault_is_exit_4_and_leaves_the_earlier_set(self, earlier_and_slice, table_cache, tmp_path,
                                                                monkeypatch, capsys, name, at):
        earlier, blocks = earlier_and_slice
        out = self.earlier_run(tmp_path, earlier)
        monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
        block = 0 if at == "first" else blocks[name] - 1
        self.fail(monkeypatch, name, block, OSError(errno.ENOSPC, "No space left on device"))
        assert run_into(out, "--runs", SLICE_FILTER) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"I/O error: cannot write {out / name}: "), err
        # the earlier six files, byte for byte, and no temporary file
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_an_interrupt_leaves_the_earlier_set(self, earlier_and_slice, table_cache, tmp_path, monkeypatch):
        earlier, _ = earlier_and_slice
        out = self.earlier_run(tmp_path, earlier)
        monkeypatch.setenv("BBAND_SIM_CACHE", str(table_cache))
        self.fail(monkeypatch, "summary_emissions.csv", 0, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_into(out, "--runs", SLICE_FILTER)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


ENOSPC = OSError(errno.ENOSPC, "No space left on device")


def test_a_cache_write_fault_is_exit_4_and_names_the_file(miniland_copy, tmp_path, monkeypatch, capsys):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", "  trials: 200\n"))
    cache = tmp_path / "cache"
    monkeypatch.setenv("BBAND_SIM_CACHE", str(cache))
    fail_writes(monkeypatch, ".csv", 0, ENOSPC)  # the first table's rows
    assert main(["run", "--data", str(miniland_copy), "--config", str(config), "--out", str(tmp_path / "out"),
                 "--runs", SINGLE_RUN_FILTER]) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(
        rf"I/O error: cannot write {re.escape(str(cache))}/[0-9a-f]{{64}}\.csv: \[Errno 28\] No space left on device",
        err[0]), err
    assert list(cache.iterdir()) == []  # no temporary file
    assert not (tmp_path / "out").exists()


def test_a_tables_write_fault_leaves_no_file(miniland_copy, tmp_path, monkeypatch, capsys):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", "  trials: 200\n"))
    out = tmp_path / "tables"
    fail_writes(monkeypatch, "capacity_tables.csv", 0, ENOSPC)
    assert main(["tables", "--config", str(config), "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [
        f"I/O error: cannot write {out / 'capacity_tables.csv'}: [Errno 28] No space left on device"]
    assert list(out.iterdir()) == []


def test_an_interrupted_save_bundle_leaves_the_earlier_bundle(bundle, tmp_path, monkeypatch):
    data_dir = tmp_path / "bundle"
    save_bundle(bundle, data_dir, data_dir / "config.yaml")
    earlier = {p.name: p.read_bytes() for p in data_dir.iterdir()}
    fail_writes(monkeypatch, "config.yaml", -1, KeyboardInterrupt())  # the last file, after six whole CSVs
    with pytest.raises(KeyboardInterrupt):
        save_bundle(dataclasses.replace(bundle, countries={"MLA": bundle.countries["MLA"]}), data_dir,
                    data_dir / "config.yaml")
    assert {p.name: p.read_bytes() for p in data_dir.iterdir()} == earlier


def alias_nest(depth: int) -> str:
    """YAML anchors ``a0`` to ``a<depth>``: ``a0`` ten numbers, and each later one ten aliases of the one before."""
    lines = ["a0: &a0 [" + ", ".join(["100"] * 10) + "]"]
    lines += [f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, depth + 1)]
    return "\n".join(lines) + "\n"


def test_a_yaml_alias_nest_in_a_diagnostic_is_shown_short(miniland_copy, capsys):
    # in full, the value's repr is its 10**4 expanded lists: one line of 522,273 characters
    config = miniland_copy / "config.yaml"
    config.write_text(alias_nest(4) + config.read_text().replace("capacity_gb_month: [20, 30, 40]",
                                                                 "capacity_gb_month: [20, 30, *a4]"))
    assert main(["validate", "--data", str(miniland_copy), "--config", str(config)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert max(map(len, err)) <= 1000
    assert "config: axes.capacity_gb_month: [[[...], [...], [...], [...], [...], [...], ...], [[...], [...], [...], " \
           "[...], [...], [...], ...], [[...], [...], [...], [...], [...], [...], ...], [[...], [...], [...], [...], " \
           "[...], [...], ...], [[...], [...], [...], [...], [...], [...], ...], [[...], [...], [...], [...], [...], " \
           "[...], ...], ...] is not a valid float" in err


def test_tables_command(miniland_config, tmp_path, capsys):
    out = tmp_path / "tables"
    code = main(["tables", "--config", str(miniland_config), "--out", str(out), "--jobs", "2"])
    assert code == EXIT_OK
    path = out / "capacity_tables.csv"
    assert path.is_file()
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    generations = {r["generation"] for r in rows}
    assert generations == {"4G", "5G"}
    # one row per grid point per portfolio
    assert len(rows) == 2 * 10


def table_counts(message: str) -> str:
    """A ``capacity tables:`` line without its two timings, which it must end with."""
    counts, reads, builds = message.rsplit(", ", 2)
    assert re.fullmatch(r"cache reads \d+\.\d{3} s", reads) and re.fullmatch(r"builds \d+\.\d{3} s", builds), message
    return counts


def test_tables_build_shared_carriers_once_and_log_the_counts(miniland_copy, tmp_path, caplog):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", "  trials: 200\n") + (
        "tables:\n  portfolios:\n    - {generation: 4G, carriers: [[800, 10], [1800, 10]]}\n"
        "    - {generation: 4G, carriers: [[800, 10], [2600, 20]]}\n"
        "    - {generation: 4G, carriers: [[800, 10], [1800, 10]]}\n"
    ))
    out = tmp_path / "tables"
    with caplog.at_level(logging.INFO, logger="bband_sim"):
        assert main(["-v", "tables", "--config", str(config), "--out", str(out), "--jobs", "2"]) == EXIT_OK
    # 2 tables of 2 carriers over 10 densities; 800x10 is simulated once for both
    assert [table_counts(r.getMessage()) for r in caplog.records if r.getMessage().startswith("capacity tables:")] == [
        "capacity tables: 3 lookups, 2 distinct tables, 0 read from cache, 2 built, 40 carrier-density pairs, "
        "30 simulations",
    ]
    with (out / "capacity_tables.csv").open() as fh:
        labels = [r["freq_set"] for r in csv.DictReader(fh)]
    assert labels == ["800x10+1800x10"] * 10 + ["800x10+2600x20"] * 10 + ["800x10+1800x10"] * 10


def test_verbose_logs_the_table_counts_of_a_cold_and_a_warm_cache(miniland_copy, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("BBAND_SIM_CACHE", str(tmp_path / "cache"))
    args = ["run", "--data", str(miniland_copy), "--config", str(miniland_copy / "config.yaml"),
            "--runs", "policy=baseline,energy=baseline,capacity=30"]
    outs = {}
    for name, flags in (("cold", ["-v"]), ("warm", ["-v"]), ("quiet", [])):
        caplog.clear()
        with caplog.at_level(logging.INFO if flags else logging.WARNING, logger="bband_sim"):
            assert main([*flags, *args, "--out", str(tmp_path / name)]) == EXIT_OK
        outs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.csv")}
        counts = [table_counts(r.getMessage()) for r in caplog.records if r.getMessage().startswith("capacity tables:")]
        if name == "cold":
            # MLA and MLB share their 4G table, and the 700x10 carrier of their 5G tables
            assert counts == ["capacity tables: 4 lookups, 3 distinct tables, 0 read from cache, 3 built, "
                              "70 carrier-density pairs, 60 simulations"]
        elif name == "warm":
            assert counts == ["capacity tables: 4 lookups, 3 distinct tables, 3 read from cache, 0 built, "
                              "0 carrier-density pairs, 0 simulations"]
        else:
            assert counts == []
    assert len(outs["cold"]) == 6
    assert outs["cold"] == outs["warm"] == outs["quiet"]


def test_tables_invalid_config_lists_every_problem(miniland_copy, tmp_path, capsys):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", "  trials: 5\n") + "misc: {}\n")
    code = main(["tables", "--config", str(config), "--out", str(tmp_path / "tables")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "trials" in err and "misc" in err
    assert not (tmp_path / "tables").exists()


# CLI damage fuzz: miniland as save_bundle writes it, with one header, one
# cell or one config value damaged. `validate` must exit 0 or 2, never raise.
INPUT_CSVS = ("regions.csv", "countries.csv", "spectrum.csv", "energy_mix.csv", "emission_factors.csv", "se_table.csv")
STRING_COLUMNS = {"region_id", "country_iso3", "region", "source"}
CELL_DAMAGE = ("", "nan", "-inf", "1e309", "-1", "abc", "extra column", "dropped column")
# Damage that no int, float or enum column accepts.
NOT_A_NUMBER = {"", "nan", "-inf", "1e309", "abc"}
CONFIG_PATHS = (
    ("axes",), ("axes", "generation"), ("axes", "backhaul"), ("axes", "capacity_gb_month"), ("axes", "adoption"),
    ("horizon",), ("horizon", "start_year"), ("horizon", "discount_rate"), ("settlement", "urban_min_density"),
    ("adoption", "penetration_cap"), ("adoption", "cagr"), ("adoption", "cagr", "LIC"), ("adoption", "cagr", "LIC", "low"),
    ("simulation", "density_grid"), ("simulation", "trials"), ("simulation", "seed"), ("simulation", "shadow_sigma_db"),
    ("cost",), ("cost", "civils_usd"), ("energy", "site_kwh_per_hour"), ("tables", "portfolios"),
    ("tables", "portfolios", 0), ("tables", "portfolios", 0, "carriers"), ("tables", "portfolios", 0, "carriers", 0),
)
CONFIG_SHAPES = ("abc", 7, -1, 2023.9, math.nan, math.inf, None, True, [], ["abc"], [math.nan], {"x": 1}, [[1, 2, 3]])


@pytest.fixture(scope="module")
def saved_miniland(bundle, tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("saved") / "miniland"
    save_bundle(bundle, data_dir, data_dir / "config.yaml")
    return data_dir


def validate_damaged(source: Path, damage) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "miniland"
        shutil.copytree(source, data_dir)
        damage(data_dir)
        return main(["validate", "--data", str(data_dir), "--config", str(data_dir / "config.yaml")])


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(INPUT_CSVS), line=st.integers(0, 100), column=st.integers(0, 10), damage=st.sampled_from(CELL_DAMAGE))
@example(name="countries.csv", line=1, column=6, damage="nan")
@example(name="se_table.csv", line=1, column=2, damage="extra column")
def test_validate_survives_csv_damage(saved_miniland, name, line, column, damage):
    lines = (saved_miniland / name).read_text().splitlines()
    line %= len(lines)
    header = lines[0].split(",")
    column %= len(header)

    def damage_cell(data_dir):
        cells = lines[line].split(",")
        if damage == "extra column":
            cells.append("1")
        elif damage == "dropped column":
            del cells[column]
        else:
            cells[column] = damage
        (data_dir / name).write_text("\n".join([*lines[:line], ",".join(cells), *lines[line + 1:]]) + "\n")

    code = validate_damaged(saved_miniland, damage_cell)
    typed = header[column] not in STRING_COLUMNS
    if line == 0 or damage.endswith("column") or (typed and damage in NOT_A_NUMBER):
        assert code == EXIT_VALIDATION
    else:
        assert code in (EXIT_OK, EXIT_VALIDATION)


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(CONFIG_PATHS), shape=st.sampled_from(CONFIG_SHAPES))
@example(path=("simulation", "density_grid"), shape=7)
@example(path=("axes", "backhaul"), shape=7)
@example(path=("adoption", "cagr", "LIC", "low"), shape="abc")
@example(path=("simulation", "shadow_sigma_db"), shape=True)
def test_validate_survives_config_damage(saved_miniland, path, shape):
    def damage_config(data_dir):
        config = yaml.safe_load((data_dir / "config.yaml").read_text())
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = shape
        (data_dir / "config.yaml").write_text(yaml.safe_dump(config))

    code = validate_damaged(saved_miniland, damage_config)
    if isinstance(shape, (str, bool)) or isinstance(shape, float) and not math.isfinite(shape):
        assert code == EXIT_VALIDATION
    else:
        assert code in (EXIT_OK, EXIT_VALIDATION)
