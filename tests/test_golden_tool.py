import importlib.util
import shutil

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
