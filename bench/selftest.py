#!/usr/bin/env python3
"""Self-test of the benchmark's fixture generator.

For each generated workload it checks that the same seed writes identical
bytes, that another seed writes different ones, and that ``bband-sim
validate`` accepts the output. Run from a checkout: ``python3 bench/selftest.py``.
"""

import sys

import fixture
import run


def main() -> int:
    tally = run.Tally()
    for kind in sorted(fixture.KINDS):
        work = run.WORK / "selftest" / kind
        run.reset(work)
        data, config = run.prepare(kind, run.DEFAULT_SEED, work, tally)
        rc, _, _, stdout, _ = run.spawn(
            [sys.executable, "-m", "bband_sim.cli", "validate", "--data", str(data), "--config", str(config)],
            run.child_env(work / "cache"), work / "validate",
        )
        tally.check(rc == 0 and stdout.strip() == "OK", f"{kind} fixture: validate exit {rc}")
    print(f"selftest: {tally.attempted - len(tally.problems)}/{tally.attempted} checks passed")
    return 1 if tally.problems else 0


if __name__ == "__main__":
    sys.exit(main())
