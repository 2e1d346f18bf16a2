#!/usr/bin/env python3
"""Regenerate, or check, the committed golden outputs for the miniland fixture.

Runs the full scenario matrix at the fixture's pinned seed and records:

* verbatim copies of the four summary CSVs (small, diffable)
* SHA-256 checksums of every emitted file (byte-identity for the large ones)

Run from the repository root:  python3 tools/generate_golden.py

With ``--check`` it writes nothing under ``tests/golden/``: it runs the
matrix into a temporary directory, compares every emitted file against
``checksums.sha256``, lists the files that differ and exits 1 if any do.
"""

import argparse
import hashlib
import shutil
import sys
import tempfile
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


def check(paths: list[Path]) -> int:
    """Compare each emitted file with its recorded checksum; 1 if any differ or are missing."""
    recorded = dict(line.split()[::-1] for line in (GOLDEN / "checksums.sha256").read_text().splitlines() if line)
    emitted = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    bad = sorted(name for name in recorded.keys() | emitted.keys() if recorded.get(name) != emitted.get(name))
    for name in bad:
        print(f"MISMATCH: {name}", file=sys.stderr)
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
