import hashlib
import importlib.util
import shutil

import pytest

from bband_sim import emit_results, run_pipeline
from conftest import GOLDEN_DIR, REPO_ROOT

spec = importlib.util.spec_from_file_location("generate_golden", REPO_ROOT / "tools" / "generate_golden.py")
generate_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(generate_golden)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_check_passes_on_the_committed_goldens_and_writes_nothing(capsys):
    before = snapshot(GOLDEN_DIR)
    assert generate_golden.main(["--check"]) == 0
    assert "6 of 6 golden files match" in capsys.readouterr().out
    assert snapshot(GOLDEN_DIR) == before


def test_check_lists_each_mismatching_file_and_exits_1(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    checksums = golden / "checksums.sha256"
    lines = checksums.read_text().splitlines()
    lines = [("0" * 64 + line[64:]) if line.endswith(("results_country.csv", "summary_by_policy.csv")) else line
             for line in lines]
    checksums.write_text("\n".join(lines) + "\n")
    before = snapshot(golden)
    monkeypatch.setattr(generate_golden, "GOLDEN", golden)
    assert generate_golden.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["MISMATCH: results_country.csv", "MISMATCH: summary_by_policy.csv"]
    assert snapshot(golden) == before


@pytest.fixture(scope="module")
def matrix_paths(bundle, table_cache, tmp_path_factory):
    """The files the full miniland matrix emits, as ``--check`` compares them."""
    return emit_results(run_pipeline(bundle, cache_dir=table_cache).results, tmp_path_factory.mktemp("emitted"))


@pytest.mark.parametrize("damaged, verdict", [
    ("2.40362e+10", "every differing cell is one step apart in its last printed digit (the %.6g near-tie signature)"),
    ("2.40371e+10", "some cell differs by more than one step in its last printed digit"),
])
def test_check_shows_where_a_committed_summary_copy_differs(tmp_path, monkeypatch, capsys, matrix_paths, damaged,
                                                            verdict):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    copy = golden / "summary_by_policy.csv"
    text = copy.read_text()
    assert text.count("\nbaseline,2.40361e+10,") == 1
    copy.write_text(text.replace("\nbaseline,2.40361e+10,", f"\nbaseline,{damaged},"))
    # the checksum follows the damaged copy, as in goldens written on another host
    checksums = golden / "checksums.sha256"
    digest = hashlib.sha256(copy.read_bytes()).hexdigest()
    checksums.write_text("".join((digest + line[64:] if line.endswith(copy.name) else line) + "\n"
                                 for line in checksums.read_text().splitlines()))
    monkeypatch.setattr(generate_golden, "GOLDEN", golden)
    assert generate_golden.check(matrix_paths) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["MISMATCH: summary_by_policy.csv"]
    assert out.splitlines() == [
        f"summary_by_policy.csv:2: committed: baseline,{damaged},2.25448e+10,1.49134e+09,6.73665e+09",
        "summary_by_policy.csv:2: emitted:   baseline,2.40361e+10,2.25448e+10,1.49134e+09,6.73665e+09",
        f"summary_by_policy.csv: {verdict}",
        "5 of 6 golden files match",
    ]


def test_one_step_apart_is_a_neighbouring_six_digit_value():
    step = generate_golden.one_step_apart
    assert step("1.23012e+07", "1.23013e+07") and step("1.99999e+07", "2e+07") and step("0.5", "0.500001")
    assert not step("1.23012e+07", "1.23014e+07") and not step("60", "61") and not step("-0", "0")
    assert not step("1234567", "1234568") and not step("baseline", "low_tax") and not step("1", None)
