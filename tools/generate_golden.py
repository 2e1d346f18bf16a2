#!/usr/bin/env python3
"""Regenerate the committed golden outputs for the miniland fixture.

Runs the full scenario matrix at the fixture's pinned seed and records:

* verbatim copies of the four summary CSVs (small, diffable)
* SHA-256 checksums of every emitted file (byte-identity for the large ones)

Run from the repository root:  python3 tools/generate_golden.py
"""

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


def main() -> int:
    bundle = load_bundle(ROOT / "data" / "miniland", ROOT / "data" / "miniland" / "config.yaml")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        result = run_pipeline(bundle, jobs=2, cache_dir=Path(tmp) / "cache")
        if result.failures:
            for f in result.failures:
                print("FAILED:", f, file=sys.stderr)
            return 1
        paths = emit_results(result.table, out)

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
