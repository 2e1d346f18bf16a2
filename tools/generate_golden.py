#!/usr/bin/env python3
"""Regenerate, or check, the committed golden outputs for the miniland fixture.

Runs the full scenario matrix at the fixture's pinned seed and records:

* verbatim copies of the four summary CSVs (small, diffable)
* SHA-256 checksums of every emitted file (byte-identity for the large ones)

Run from the repository root:  python3 tools/generate_golden.py

With ``--check`` it writes nothing under ``tests/golden/``: it runs the
matrix into a temporary directory, compares every emitted file against
``checksums.sha256``, lists the files that differ and exits 1 if any do.
For each differing summary file whose committed copy differs from the
emitted one, it prints the first differing line pair and says whether
every differing cell is one step apart in its last printed digit: the
signature of a value within an ulp or so of a ``%.6g`` rounding tie.
"""

import argparse
import hashlib
import math
import re
import shutil
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bband_sim import emit_results, load_bundle, run_pipeline  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "miniland"
SUMMARY_FILES = (
    "summary_by_technology.csv",
    "summary_by_sharing.csv",
    "summary_by_policy.csv",
    "summary_emissions.csv",
)


def one_step_apart(a: str | None, b: str | None) -> bool:
    """Whether two cells are the ``%.6g`` texts of neighbouring 6-significant-digit values."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):  # a missing cell, or text
        return False
    digits = max(len(re.sub(r"\D", "", cell.split("e")[0]).lstrip("0")) for cell in (a, b))
    if x == y or not (math.isfinite(x) and math.isfinite(y)) or digits > 6:
        return False
    unit = 10.0 ** (math.floor(math.log10(max(abs(x), abs(y)))) - 5)  # one in the sixth significant digit
    return abs(x - y) <= unit * (1 + 1e-9)


def describe(name: str, path: Path | None) -> None:
    """Print where the emitted file ``name`` differs from its committed copy, when a copy is committed."""
    if name not in SUMMARY_FILES or not (GOLDEN / name).is_file():
        print(f"{name}: only its checksum is committed, so no differing line can be shown")
        return
    committed = (GOLDEN / name).read_text().splitlines()
    emitted = path.read_text().splitlines() if path is not None else []
    differing = [(i, a, b) for i, (a, b) in enumerate(zip_longest(committed, emitted), 1) if a != b]
    if not differing:
        print(f"{name}: the committed copy equals the emitted file; only the checksum differs")
        return
    line, a, b = differing[0]
    print(f"{name}:{line}: committed: {a or '(no line)'}\n{name}:{line}: emitted:   {b or '(no line)'}")
    cells = [(x, y) for _, a, b in differing for x, y in zip_longest((a or "").split(","), (b or "").split(","))
             if x != y]
    if all(one_step_apart(x, y) for x, y in cells):
        print(f"{name}: every differing cell is one step apart in its last printed digit (the %.6g near-tie signature)")
    else:
        print(f"{name}: some cell differs by more than one step in its last printed digit")


def check(paths: list[Path]) -> int:
    """Compare each emitted file with its recorded checksum; 1 if any differ or are missing.

    Each differing file is named on stderr, and :func:`describe` says on stdout where it differs.
    """
    recorded = dict(line.split()[::-1] for line in (GOLDEN / "checksums.sha256").read_text().splitlines() if line)
    by_name = {path.name: path for path in paths}
    emitted = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in by_name.items()}
    bad = sorted(name for name in recorded.keys() | emitted.keys() if recorded.get(name) != emitted.get(name))
    for name in bad:
        print(f"MISMATCH: {name}", file=sys.stderr)
        describe(name, by_name.get(name))
    print(f"{len(emitted) - len(bad)} of {len(recorded)} golden files match")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare against the goldens instead of writing them")
    args = parser.parse_args(argv)
    bundle = load_bundle(ROOT / "data" / "miniland", ROOT / "data" / "miniland" / "config.yaml")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        result = run_pipeline(bundle, jobs=2, cache_dir=Path(tmp) / "cache")
        if result.failures:
            for f in result.failures:
                print("FAILED:", f, file=sys.stderr)
            return 1
        paths = emit_results(result.results, out)
        if args.check:
            return check(paths)

        GOLDEN.mkdir(parents=True, exist_ok=True)
        lines = []
        for path in sorted(paths):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.name}")
            if path.name in SUMMARY_FILES:
                shutil.copy2(path, GOLDEN / path.name)
        (GOLDEN / "checksums.sha256").write_text("\n".join(lines) + "\n")
    print(f"wrote golden files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
