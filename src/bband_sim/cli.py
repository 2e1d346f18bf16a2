"""Command line interface.

Subcommands:

* ``run``      execute the scenario matrix and write result CSVs
* ``validate`` check a data directory and config without running anything:
  the loaders' checks, which ``run`` and ``tables`` make too, so an input
  ``validate`` passes is one they accept
* ``tables``   build and write the capacity lookup tables only

Exit codes: 0 success, 2 input validation failure, 3 runtime failure (an
allocation failure included), 4 I/O failure. The environment variable
``BBAND_SIM_CACHE`` overrides the capacity-table cache directory (default:
``<out>/capacity_cache``).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .core import AXES, SimulationParams, enumerate_runs, run_key
from .data_io import Diagnostic, load_bundle, load_table_inputs
from .errors import BbandSimError, InputValidationError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

logger = logging.getLogger("bband_sim")

#: Run filter fields, in :data:`core.AXES` order: each axis's name, with
#: ``energy`` and ``capacity`` short for the two long ones.
RUN_FILTER_FIELDS = tuple({"energy_strategy": "energy", "capacity_gb_month": "capacity"}.get(a.name, a.name) for a in AXES)

#: The values each run filter field may take (capacity: any number).
RUN_FILTER_VALUES = {f: [v.value for v in a.kind] for f, a in zip(RUN_FILTER_FIELDS, AXES) if a.kind is not float}


def parse_run_filter(expr: str):
    """Parse ``field=v1|v2,field=v`` into a predicate over (strategy, scenario).

    Fields: generation, backhaul, sharing, policy, energy, capacity,
    adoption. Clauses are ANDed; ``|`` separates alternatives in a clause.
    A value the field cannot take raises ValueError naming the valid ones;
    capacities compare as numbers.
    """
    clauses = []
    for part in expr.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"run filter clause {part!r} must look like field=value")
        field, _, values = part.partition("=")
        field = field.strip()
        if field not in RUN_FILTER_FIELDS:
            raise ValueError(f"unknown run filter field {field!r} (valid: {RUN_FILTER_FIELDS})")
        allowed = {v.strip() for v in values.split("|")}
        if field == "capacity":
            try:
                allowed = {float(v) for v in allowed}
            except ValueError:
                raise ValueError(f"capacity values must be numbers, got {sorted(allowed)}") from None
        else:
            unknown = sorted(allowed - set(RUN_FILTER_VALUES[field]))
            if unknown:
                raise ValueError(f"unknown {field} value(s) {unknown} (valid: {'|'.join(RUN_FILTER_VALUES[field])})")
        clauses.append((field, allowed))

    def accept(strategy, scenario) -> bool:
        lookup = dict(zip(RUN_FILTER_FIELDS, run_key(strategy, scenario)))
        return all(lookup[f] in allowed for f, allowed in clauses)

    return accept


def run_filter_of(strategy, scenario) -> str:
    """The ``--runs`` expression that selects this one run: every field, with the run's value."""
    return ",".join(f"{field}={value}" for field, value in zip(RUN_FILTER_FIELDS, run_key(strategy, scenario)))


def _seeded(params: SimulationParams, seed: int | None) -> SimulationParams:
    """``params`` with the ``--seed`` override, if one is given; a bad seed is an input diagnostic."""
    if seed is None:
        return params
    try:
        return dataclasses.replace(params, seed=seed)
    except ValidationError as err:
        raise InputValidationError([Diagnostic("--seed", 0, str(err))]) from None


def _jobs(text: str) -> int:
    """A ``--jobs`` value: an integer >= 1."""
    if not text.removeprefix("+").isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _cmd_validate(args) -> int:
    load_bundle(args.data, args.config)
    print("OK")
    return EXIT_OK


def _cmd_run(args) -> int:
    from .pipeline import emit_results, run_pipeline  # here, so that `validate` never imports numpy

    bundle = load_bundle(args.data, args.config)
    bundle = dataclasses.replace(bundle, sim_params=_seeded(bundle.sim_params, args.seed))

    runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
    if args.runs:
        try:
            accept = parse_run_filter(args.runs)
        except ValueError as err:
            print(f"bad --runs expression: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        runs = [r for r in runs if accept(*r)]
        if not runs:
            print("run filter matched nothing", file=sys.stderr)
            return EXIT_VALIDATION

    out_dir = Path(args.out)
    cache_dir = os.environ.get("BBAND_SIM_CACHE") or out_dir / "capacity_cache"
    output = run_pipeline(bundle, runs, jobs=args.jobs, cache_dir=cache_dir)
    paths = emit_results(output.results, out_dir)
    for p in paths:
        logger.info("wrote %s", p)
    print(f"{len(runs)} run(s), {len(output.results)} result rows -> {out_dir}")
    if output.failures:
        for f in output.failures:
            print(f"FAILED run {run_filter_of(f.strategy, f.scenario)}: {f.error}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_tables(args) -> int:
    from .radio import build_capacity_tables, save_capacity_tables

    inputs = load_table_inputs(args.config, args.data)
    sim_params = _seeded(inputs.sim_params, args.seed)
    tables = build_capacity_tables(sim_params, inputs.se_table, inputs.portfolios, inputs.density_grid, args.jobs)
    path = Path(args.out) / "capacity_tables.csv"
    save_capacity_tables(tables, path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bband-sim",
        description="Universal mobile broadband cost, energy and emissions simulator.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the scenario matrix")
    run.add_argument("--data", required=True, help="input data directory")
    run.add_argument("--config", required=True, help="YAML config file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    run.add_argument("--jobs", type=_jobs, default=1, help="threads for capacity-table builds (runs execute in one thread)")
    run.add_argument("--runs", default=None, help="filter, e.g. 'generation=4G,capacity=30'")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="validate inputs and exit")
    val.add_argument("--data", required=True)
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)

    tab = sub.add_parser("tables", help="build capacity lookup tables only")
    tab.add_argument("--config", required=True)
    tab.add_argument("--out", required=True)
    tab.add_argument("--data", default=None, help="optional data dir providing se_table.csv")
    tab.add_argument("--seed", type=int, default=None)
    tab.add_argument("--jobs", type=_jobs, default=1, help="threads for capacity-table builds")
    tab.set_defaults(func=_cmd_tables)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its input diagnostics and errors become the documented exit codes."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except InputValidationError as err:
        for diag in err.diagnostics:
            print(diag, file=sys.stderr)
        if args.command == "validate":
            print(f"INVALID: {len(err.diagnostics)} problem(s)", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except (BbandSimError, MemoryError) as err:  # MemoryError: a simulation too large to allocate
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
