#!/usr/bin/env python3
"""bband-sim benchmark: the real CLI on three seeded workloads.

    python3 bench/run.py --workload {matrix,radio,wide} --seed N --seconds S --trace {0,1}

``--trace 0`` times ``bband-sim`` child processes with tracing off and
reports the end-to-end metrics. ``--trace 1`` runs the same command in
this process twice per pass, untraced and traced (see ``spans.py``), with
``--jobs 1`` so spans hold no waits for another thread, and reports the
per-layer metrics. Metric names and units come from ``BENCHMARK.json``.
Every invocation's outputs are checked; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import fixture
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference"
MINILAND = ROOT / "data" / "miniland"
GOLDEN = ROOT / "tests" / "golden" / "miniland" / "checksums.sha256"

DEFAULT_SEED = 20230  # miniland's pinned config seed, so matrix meets the golden files
SETUP_PER_SAMPLE = 2  # `validate` runs per timed run
MIN_SAMPLES = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    jobs: int  # --jobs of the timed invocations; the check invocation uses the other of 1 and 2
    runs: str | None  # --runs slice, None for the full matrix
    cold_cache: bool  # every invocation starts from an empty capacity cache


# BENCHMARK.json lists matrix and radio. wide stays runnable by hand: its
# run-to-run spread on a shared 2-core host came close to the 0.25 bound.
WORKLOADS = {
    "matrix": Workload(
        "miniland full 1440-run matrix, warm cache, jobs 2: per-row cost, energy and emit work dominate; "
        "radio is idle and 4/5 of energy work repeats across policies",
        jobs=2, runs=None, cold_cache=False),
    "radio": Workload(
        "4x12 generated fixture, 50k trials, 2 rings, 4 runs, empty cache each run, jobs 2: cold capacity-table "
        "builds dominate; matrix and emit layers are nearly idle",
        jobs=2, runs="sharing=baseline,policy=baseline,energy=baseline,capacity=30,adoption=baseline",
        cold_cache=True),
    "wide": Workload(
        "40x500 generated fixture, 48 runs on one policy, warm cache, jobs 1: input load, deciles and 80 cache "
        "loads weigh more, and there is no policy repetition to remove",
        jobs=1, runs="policy=baseline,energy=baseline,adoption=baseline", cold_cache=False),
}


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def read_checksums(path: Path) -> dict[str, str]:
    pairs = (line.split() for line in path.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


OUTPUT_FILES = tuple(sorted(read_checksums(GOLDEN))) if GOLDEN.is_file() else ()


def digest_outputs(out: Path) -> tuple[dict[str, str | None], int]:
    """sha256 of every result CSV in ``out`` and the number of decile rows."""
    digests, rows = {}, -1
    for name in OUTPUT_FILES:
        path = out / name
        if not path.is_file():
            digests[name] = None
            continue
        data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name == "results_decile.csv":
            rows = data.count(b"\n") - 1
    return digests, rows


def child_env(cache: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), "BBAND_SIM_CACHE": str(cache)}


def spawn(argv: list[str], env: dict[str, str], log: Path) -> tuple[int, float, float, str, str]:
    """Run one child to exit: (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli_argv(data: Path, config: Path, seed: int, out: Path, jobs: int, runs: str | None) -> list[str]:
    argv = ["run", "--data", str(data), "--config", str(config), "--out", str(out),
            "--seed", str(seed), "--jobs", str(jobs)]
    return argv + (["--runs", runs] if runs else [])


def prepare(name: str, seed: int, work: Path, tally: Tally) -> tuple[Path, Path]:
    """Input directory and config of a workload; generated ones are checked for determinism."""
    if name == "matrix":
        return MINILAND, MINILAND / "config.yaml"
    data = fixture.generate(name, seed, work / "data")
    again = fixture.generate(name, seed, work / "data_again")
    other = fixture.generate(name, seed + 1, work / "data_other")
    files = sorted(p.name for p in data.iterdir())
    same = all((data / f).read_bytes() == (again / f).read_bytes() for f in files)
    differs = any((data / f).read_bytes() != (other / f).read_bytes() for f in files)
    tally.check(same and differs, f"{name} fixture: same seed identical={same}, other seed differs={differs}")
    return data, data / "config.yaml"


def seeded_bundle(data: Path, config: Path, seed: int):
    from bband_sim import load_bundle

    bundle = load_bundle(data, config)
    return dataclasses.replace(bundle, sim_params=dataclasses.replace(bundle.sim_params, seed=seed))


def describe(bundle, runs_expr: str | None) -> dict:
    """Input sizes of a workload, from the same functions the CLI uses."""
    from bband_sim import enumerate_runs
    from bband_sim.cli import parse_run_filter
    from bband_sim.radio import table_cache_key

    runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
    if runs_expr:
        accept = parse_run_filter(runs_expr)
        runs = [r for r in runs if accept(*r)]
    generations = sorted({s.generation for s, _ in runs}, key=lambda g: g.value)
    keys = [
        table_cache_key(bundle.sim_params, bundle.se_table, bundle.frequency_set(iso3, gen), bundle.density_grid)
        for iso3 in sorted(bundle.countries) for gen in generations
    ]
    return {
        "countries": len(bundle.countries),
        "regions": sum(len(r) for r in bundle.regions.values()),
        "runs": len(runs),
        "rows": len(runs) * 10 * len(bundle.countries),  # every run covers 10 deciles per country
        "table_lookups": len(keys),
        "distinct_tables": len(set(keys)),
    }


def reference_digests(name: str, seed: int) -> dict[str, str] | None:
    """Committed checksums the outputs must match at the default seed."""
    if seed != DEFAULT_SEED:
        return None
    path = GOLDEN if name == "matrix" else REFERENCE / f"{name}.sha256"
    return read_checksums(path) if path.is_file() else None


class OutputCheck:
    """Every invocation must match the first one (or the committed reference)."""

    def __init__(self, tally: Tally, expected_rows: int, reference: dict[str, str] | None):
        self.tally = tally
        self.expected_rows = expected_rows
        self.reference = reference
        self.first: dict[str, str | None] | None = None

    def __call__(self, what: str, rc: int, stderr: str, out: Path) -> int:
        digests, rows = digest_outputs(out)
        if self.first is None:
            self.first = digests
        want = self.reference or self.first
        ok = (rc == 0 and "FAILED run" not in stderr and rows == self.expected_rows
              and None not in digests.values() and digests == want)
        self.tally.check(ok, f"{what}: exit {rc}, {rows} rows (want {self.expected_rows}), "
                             f"outputs {'match' if digests == want else 'differ'}")
        return rows


def reset(*dirs: Path) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


@dataclasses.dataclass(frozen=True)
class Context:
    """One benchmark run: its workload, seed, inputs and failure tally."""

    name: str
    workload: Workload
    seed: int
    seconds: float
    work: Path
    data: Path
    config: Path
    bundle: object  # the seeded bband_sim InputBundle
    sizes: dict
    tally: Tally


def measure_end_to_end(ctx: Context) -> tuple[dict, dict]:
    w, work, data, config, seed, tally = ctx.workload, ctx.work, ctx.data, ctx.config, ctx.seed, ctx.tally
    cache, out = work / "cache", work / "out"
    env = child_env(cache)
    cli = [sys.executable, "-m", "bband_sim.cli"]
    check = OutputCheck(tally, ctx.sizes["rows"], reference_digests(ctx.name, seed))

    # Untimed: the other --jobs value must write the same bytes. Starting
    # from an empty cache, this run also warms it for the timed ones.
    reset(out, cache)
    rc, _, _, _, err = spawn([*cli, *cli_argv(data, config, seed, out, 3 - w.jobs, w.runs)], env, work / "check")
    check(f"check run at --jobs {3 - w.jobs}", rc, err, out)

    # Set-up samples are spread between the timed runs, so that both see the
    # same stretches of a shared host's speed.
    setup, walls, rss, rates = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or (time.perf_counter() - start) * (1 + 1 / len(walls)) <= ctx.seconds:
        for _ in range(SETUP_PER_SAMPLE):
            rc, wall, _, stdout, _ = spawn([*cli, "validate", "--data", str(data), "--config", str(config)],
                                           env, work / "validate")
            tally.check(rc == 0 and stdout.strip() == "OK", f"validate {len(setup)}: exit {rc}")
            setup.append(wall)
        reset(out, *([cache] if w.cold_cache else []))
        rc, wall, peak, _, err = spawn([*cli, *cli_argv(data, config, seed, out, w.jobs, w.runs)], env, work / "run")
        rows = check(f"timed run {len(walls)}", rc, err, out)
        walls.append(wall)
        rss.append(peak)
        rates.append(max(rows, 0) / wall)

    metrics = {
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": walls, "rows_per_s": rates, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, {"samples": samples, "first_digests": check.first}


class LayerCounters:
    """Result hooks for the traced run: counts that spans alone do not give."""

    def __init__(self):
        self.deciles = self.degenerate = self.unserviceable = 0
        self.trials = 0
        self.cache_keys: list[str] = []
        self.runs: list = []
        self.result_rows = self.failed_runs = self.emit_bytes = 0

    def hooks(self) -> dict:
        def build_deciles(args, kwargs, result):
            self.deciles += len(result)
            self.degenerate += sum(d.degenerate for d in result)

        def build_capacity_table(args, kwargs, result):
            params, _, freq_set, grid = args[:4]
            self.trials += params.trials * len(freq_set.carriers) * len(grid)

        def run_pipeline(args, kwargs, result):
            self.runs = list(args[1])
            self.result_rows = len(result.results)
            self.failed_runs = len(result.failures)

        def emit_results(args, kwargs, result):
            self.emit_bytes = sum(p.stat().st_size for p in result)

        def required_sites(args, kwargs, result):
            self.unserviceable += result.unserviceable

        return {
            "core.build_deciles": build_deciles,
            "radio.build_capacity_table": build_capacity_table,
            "radio.table_cache_key": lambda args, kwargs, key: self.cache_keys.append(key),
            "dimensioning.required_sites": required_sites,
            "pipeline.run_pipeline": run_pipeline,
            "pipeline.emit_results": emit_results,
        }

    def useful_emissions(self) -> int:
        """Distinct policy-free (country, decile, strategy, scenario, year) keys."""
        keys = {(s.generation, s.backhaul, s.sharing, s.energy_strategy, sc) for s, sc in self.runs}
        return sum(sc.n_years for *_, sc in keys) * self.deciles


def layer_metrics(summary: dict, counters: LayerCounters, tracer: spans.Tracer) -> dict:
    def total(prefix: str, field: str):
        return sum(v[field] for k, v in summary.items() if k.startswith(prefix))

    def span(name: str, field: str = "inclusive_s"):
        return summary.get(name, {}).get(field, 0)

    lookups = span("radio.table_cache_key", "count")
    build_s = span("radio.build_capacity_table")
    emissions_calls = span("energy.emissions", "count")
    return {
        "data_io.load_bundle_s": span("data_io.load_bundle"),
        "core.build_deciles_s": span("core.build_deciles"),
        "core.deciles": counters.deciles,
        "core.degenerate_deciles": counters.degenerate,
        "core.runs": len(counters.runs),
        "radio.build_s": build_s,
        "radio.builds": span("radio.build_capacity_table", "count"),
        "radio.trials": counters.trials,
        "radio.trials_per_s": counters.trials / build_s if build_s else 0.0,
        "radio.runtime_warnings": tracer.runtime_warnings,
        "radio.load_s": span("radio.load_capacity_tables"),
        "radio.loads": span("radio.load_capacity_tables", "count"),
        "radio.cache_hit_ratio": span("radio.load_capacity_tables", "count") / lookups if lookups else 0.0,
        "radio.distinct_tables": len(set(counters.cache_keys)) / lookups if lookups else 0.0,
        "demand.s": total("demand.", "inclusive_s"),
        "demand.calls": total("demand.", "count"),
        "dimensioning.s": total("dimensioning.", "inclusive_s"),
        "dimensioning.calls": total("dimensioning.", "count"),
        "dimensioning.unserviceable": counters.unserviceable,
        "cost.s": total("cost.", "inclusive_s"),
        "cost.calls": total("cost.", "count"),
        "energy.s": total("energy.", "inclusive_s"),
        "energy.calls": total("energy.", "count"),
        "energy.emissions_calls": emissions_calls,
        "energy.useful_ratio": counters.useful_emissions() / emissions_calls if emissions_calls else 0.0,
        "pipeline.run_pipeline_s": span("pipeline.run_pipeline"),
        "pipeline.self_s": span("pipeline.run_pipeline", "self_s"),
        "pipeline.result_rows": counters.result_rows,
        "pipeline.failed_runs": counters.failed_runs,
        "pipeline.emit_s": span("pipeline.emit_results"),
        "pipeline.emit_bytes": counters.emit_bytes,
        "pipeline.decile_row_calls": span("pipeline.decile_row", "count"),
        "pipeline.decile_row_per_row": (span("pipeline.decile_row", "count") / counters.result_rows
                                        if counters.result_rows else 0.0),
    }


def timed(fn, repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def radio_micro(bundle) -> dict:
    """One table at --jobs 1 and 2, and single simulate_density calls at fixed settings."""
    from bband_sim.core import Generation
    from bband_sim.radio import build_capacity_table, simulate_density

    p, se, grid = bundle.sim_params, bundle.se_table, bundle.density_grid
    fs = bundle.frequency_set(sorted(bundle.countries)[0], Generation.G4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        jobs1 = timed(lambda: build_capacity_table(p, se, fs, grid, jobs=1))
        jobs2 = timed(lambda: build_capacity_table(p, se, fs, grid, jobs=2))
        t10k = dataclasses.replace(p, trials=10_000, interferer_rings=1)
        t100k = dataclasses.replace(p, trials=100_000, interferer_rings=3)
        return {
            "radio.parallel_efficiency": jobs1 / (2 * jobs2),
            "radio.sim_t10k_r1_s": timed(lambda: simulate_density(t10k, se, fs, 1.0), repeats=5),
            "radio.sim_t100k_r3_s": timed(lambda: simulate_density(t100k, se, fs, 1.0), repeats=3),
        }


def measure_layers(ctx: Context) -> tuple[dict, dict]:
    import bband_sim.cli as cli
    import bband_sim.pipeline as pipeline

    w, work, data, config, seed, tally = ctx.workload, ctx.work, ctx.data, ctx.config, ctx.seed, ctx.tally

    cache = work / "cache"
    if not w.cold_cache:
        pipeline.capacity_tables(ctx.bundle, cache_dir=cache, jobs=2)
    imports = []
    for _ in range(3):
        rc, wall, _, _, _ = spawn([sys.executable, "-c", "import bband_sim.cli"], child_env(cache), work / "import")
        tally.check(rc == 0, f"import bband_sim.cli: exit {rc}")
        imports.append(wall)

    check = OutputCheck(tally, ctx.sizes["rows"], reference_digests(ctx.name, seed))
    os.environ["BBAND_SIM_CACHE"] = str(cache)

    def invoke(out: Path) -> tuple[int, str]:
        reset(out, *([cache] if w.cold_cache else []))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(cli_argv(data, config, seed, out, 1, w.runs))
            except Exception:  # counted as a failed invocation; the traceback goes to stderr
                traceback.print_exc()
                rc = 1
        return rc, err.getvalue()

    passes, plain, traced = [], [], []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= ctx.seconds:
        out = work / "out_plain"
        t0 = time.perf_counter()
        rc, err = invoke(out)
        plain.append(time.perf_counter() - t0)
        check(f"untraced pass {len(passes)}", rc, err, out)

        tracer, counters = spans.Tracer(), LayerCounters()
        undo = spans.install(tracer, [cli, pipeline], counters.hooks(),
                             count_warnings={"radio.build_capacity_table"})
        out = work / "out_traced"
        try:
            t0 = time.perf_counter()
            rc, err = invoke(out)
            traced.append(time.perf_counter() - t0)
        finally:
            spans.uninstall(undo)
        check(f"traced pass {len(passes)}", rc, err, out)
        summary = tracer.summary()
        passes.append(layer_metrics(summary, counters, tracer))

    tracer.save(work / "spans.npz")
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics.update(radio_micro(ctx.bundle))
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["data_io.input_rows"] = sum(len(p.read_text().splitlines()) - 1 for p in data.glob("*.csv"))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["failed_frac"] = len(tally.problems) / tally.attempted
    return metrics, {"spans": summary, "untraced_s": plain, "traced_s": traced}


def provenance(name: str, seed: int, args, sizes: dict, why: str) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace, "why": why,
        "inputs": sizes, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bband-sim benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the outputs' checksums as the {{radio,wide}} reference (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, SRC / "bband_sim" / "cli.py", MINILAND / "config.yaml", GOLDEN)
               if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(map(str, missing))}; run from a bband-sim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bband_sim

    if Path(bband_sim.__file__).resolve().parent != SRC / "bband_sim":
        print(f"bench: imported {bband_sim.__file__}, not the checkout's", file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text())
    name, w = args.workload, WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / name
    reset(work)
    work.mkdir(parents=True)
    tally = Tally()
    data, config = prepare(name, args.seed, work, tally)
    bundle = seeded_bundle(data, config, args.seed)
    sizes = describe(bundle, w.runs)
    ctx = Context(name, w, args.seed, args.seconds, work, data, config, bundle, sizes, tally)
    metrics, detail = (measure_layers if args.trace else measure_end_to_end)(ctx)

    if args.write_reference:
        if args.seed != DEFAULT_SEED or name == "matrix" or args.trace or tally.problems:
            print("bench: --write-reference needs radio or wide, the default seed, --trace 0 and no failures",
                  file=sys.stderr)
            return 2
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{name}.sha256").write_text(
            "".join(f"{d}  {n}\n" for n, d in sorted(detail["first_digests"].items())))

    info = provenance(name, args.seed, args, sizes, w.why)
    record = {"provenance": info, "metrics": metrics, "problems": tally.problems, **detail}
    (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
