import csv
import logging

import pytest

from bband_sim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

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
    stages = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage ")]
    # 240 runs over 2 countries: 3 sites, 120 cost and 48 energy keys per country
    assert [m.rsplit(",", 1)[0] for m in stages] == [
        "stage sites: 6 keys, 2 kernel calls, 0 failed keys",
        "stage cost: 240 keys, 2 kernel calls, 0 failed keys",
        "stage energy: 96 keys, 2 kernel calls, 0 failed keys",
        "stage emit: 4800 keys, 6 kernel calls, 0 failed keys",
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


def test_tables_invalid_config_lists_every_problem(miniland_copy, tmp_path, capsys):
    config = miniland_copy / "config.yaml"
    config.write_text(config.read_text().replace("  trials: 10000\n", "  trials: 5\n") + "misc: {}\n")
    code = main(["tables", "--config", str(config), "--out", str(tmp_path / "tables")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "trials" in err and "misc" in err
    assert not (tmp_path / "tables").exists()
