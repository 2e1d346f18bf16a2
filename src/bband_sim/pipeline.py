"""End-to-end orchestration: demand -> capacity -> sites -> cost -> energy.

Capacity tables come from one :func:`radio.build_capacity_tables` call per
run, the path ``tables`` takes too; it owns the disk cache and its trust
check (see :mod:`radio`). With a warm cache, about half of a miniland
``run``'s wall time is starting the interpreter and importing modules (numpy
among them); of the work in this module, result emission takes the most.
Each stage (sites: demand and dimensioning; cost and cross-subsidy; energy
and emissions) runs once per key of the axes :data:`core.STAGE_AXES`
declares for it, and every country has the same stage keys.

:func:`run_pipeline` numbers each stage's keys in key order from the run
keys' columns, then runs each stage over all its keys, one kernel call per
country: sites as :func:`demand.demand_columns` over the distinct
scenarios and :func:`dimensioning.site_counts` over the keys, cost as
:func:`cost.cost_columns`, and energy as :func:`energy.energy`. Every
run shares the bundle's one :class:`core.Horizon`: demand takes it, and
energy the mix rows of its years, once per call. Every kernel takes the
same kind of input: the batch's (keys, deciles) arrays from earlier
stages, the country's :class:`DecileRecord` list, one
:class:`StrategyBundle` (or :class:`ScenarioSpec`) per key, the
:class:`CountryParams` and the stage's parameters. Each kernel works
out its own coefficients (sharing divisors, backhaul draw, spectrum MHz,
on-grid share, diesel); this module only routes keys and slices arrays.
The cost and energy kernels equal the per-decile scalar chains in
``tests/reference_chains.py`` bit for bit. A batch that raises, or
computes a non-finite float, runs again key by key, so a failing key
fails only the runs that need it. The :class:`ResultTable` keeps five
stages, each as its stage rows' columns and each row's index into them:
the decile stage per (country, decile), the run stage per run, and the
three keyed stages per (country, key, decile). Its rows are in file order
(countries sorted, then deciles, then runs by run key), so row i is line
i + 2 of ``results_decile.csv``.

:func:`emit_results` writes the rows as they lie, each file one
:data:`EMIT_BLOCK` of rows at a time, so the result text it holds does not
grow with the rows. A ``results_decile.csv`` row is its five stage segments
joined: the decile and run segments are formatted once, and each block
formats only the keyed stage rows it refers to. The country file and the
summaries are group-bys (``np.bincount``/``np.add.at``) that add in row
order, exactly as a running total would; each group and filter field is
read on the rows of its stage. Besides the result table, the run path's
working memory is then a few (keys, deciles, years) arrays in
:func:`energy.energy` and one block of text.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    AXES,
    N_DECILES,
    STAGE_AXES,
    DecileRecord,
    Generation,
    ScenarioSpec,
    StrategyBundle,
    build_deciles,
    enumerate_runs,
    run_key,
)
from .cost import cost_columns
from .data_io import InputBundle
from .demand import demand_columns
from .dimensioning import site_counts
from .energy import ENERGY_FIELDS, energy
from .errors import BbandSimError, ValidationError
from .radio import CapacityTable, build_capacity_tables

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunFailure:
    strategy: StrategyBundle
    scenario: ScenarioSpec
    error: str


#: The columns of each result stage, in ``results_decile.csv`` order, so
#: that a row's text is its five stage segments joined. The run stage holds
#: the run key.
STAGE_COLUMNS = {
    "decile": ("country_iso3", "decile_index", "settlement", "population", "area_km2"),
    "run": tuple(axis.name for axis in AXES),
    "sites": ("demand_mbps_km2", "total_sites", "existing_sites", "new_sites", "upgraded_sites", "unserviceable",
              "revenue_pv_usd"),
    "cost": ("network_usd", "administration_usd", "spectrum_usd", "tax_usd", "profit_usd", "private_cost_usd",
             "subsidy_usd", "government_cost_usd", "financial_cost_usd"),
    "energy": ENERGY_FIELDS,
}
_STAGE_OF = {name: stage for stage, names in STAGE_COLUMNS.items() for name in names}

DECILE_COLUMNS = [name for names in STAGE_COLUMNS.values() for name in names]

#: Result columns set by the run (strategy and scenario), in sort order.
RUN_KEY_COLUMNS = STAGE_COLUMNS["run"]


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Per-decile results, one row per (run, country, decile), kept per stage.

    Rows are in file order: row i is line i + 2 of ``results_decile.csv``.
    ``runs`` lists each run once, failed runs included. ``stages`` maps each
    of the five stages of :data:`STAGE_COLUMNS` to each row's index into the
    stage rows, and the stage's columns. A run stage row is one run of
    ``runs``, a decile stage row one (country, decile), and a keyed stage row
    one (country, stage key, decile), stored once however many runs share it.
    """

    runs: Sequence[tuple[StrategyBundle, ScenarioSpec]]
    stages: Mapping[str, tuple[np.ndarray, Mapping[str, np.ndarray]]]

    @property
    def run(self) -> np.ndarray:
        """Each row's index into :attr:`runs`."""
        return self.stages["run"][0]

    def __len__(self) -> int:
        return len(self.run)

    def column(self, name: str, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The values of a stage column at row indices ``rows`` (default: every row)."""
        index, columns = self.stages[_STAGE_OF[name]]
        return columns[name][index[rows]]


@dataclass(frozen=True)
class PipelineOutput:
    """The result table of a run matrix, and the runs that failed."""

    results: ResultTable
    failures: list[RunFailure]


def capacity_tables(
    bundle: InputBundle,
    cache_dir: Path | str | None = None,
    jobs: int = 1,
    generations: Sequence[Generation] | None = None,
) -> dict[tuple[str, Generation], CapacityTable]:
    """One capacity table per country and generation, from one :func:`radio.build_capacity_tables` call.

    The tables are read from ``cache_dir`` or built; sets with one cache key share a table.
    """
    if generations is None:
        generations = bundle.strategy_space.generations
    sets = {(iso3, gen): bundle.countries[iso3].frequency_set(gen)
            for iso3 in sorted(bundle.countries) for gen in generations}
    tables = build_capacity_tables(bundle.sim_params, bundle.se_table, list(sets.values()), bundle.density_grid, jobs,
                                   cache_dir)
    return dict(zip(sets, tables))


def _decile_columns(deciles: Sequence[DecileRecord]) -> dict[str, np.ndarray]:
    return {
        "country_iso3": np.array([d.country_iso3 for d in deciles]),
        "decile_index": np.array([d.decile_index for d in deciles], dtype=np.int64),
        "settlement": np.array([d.settlement.value for d in deciles]),
        "population": np.array([d.population for d in deciles], dtype=np.int64),
        "area_km2": np.array([d.area_km2 for d in deciles], dtype=np.float64),
    }


def _log_stage(stage: str, keys: int, calls: int, failed: int, start: float, counts: str = "") -> None:
    logger.info("stage %s: %d keys, %d kernel calls, %d failed keys, %s%.3f s",
                stage, keys, calls, failed, counts, time.perf_counter() - start)


def _batched(
    stage: str,
    batches: Sequence[np.ndarray],
    compute: Callable[[int, np.ndarray], Mapping[str, np.ndarray]],
    shape: tuple[int, int, int],
    counts: Callable[[Mapping[str, np.ndarray], Mapping[tuple[int, int], str]], str] = lambda columns, errors: "",
) -> tuple[dict[str, np.ndarray], dict[tuple[int, int], str]]:
    """One stage over ``batches``, each country's key ids: one ``compute`` call per non-empty batch.

    A batch that raises, or that computes a non-finite value in a float
    column, runs again one key at a time, so each failing key fails alone.
    Returns the stage's columns, shaped ``shape`` (countries, keys,
    deciles), zero where no key was computed, and each failing (country,
    key)'s error. ``counts`` adds its text, from the columns and
    errors, to the stage's log line.
    """
    start, calls, columns, errors = time.perf_counter(), 0, {}, {}

    def put(country: int, keys: np.ndarray, out: Mapping[str, np.ndarray]) -> None:
        for name, values in out.items():
            if values.dtype.kind == "f" and not np.isfinite(values).all():
                raise ValidationError(f"{stage} stage: non-finite {name}")
        for name, values in out.items():
            if name not in columns:
                columns[name] = np.zeros(shape, dtype=values.dtype)
            columns[name][country, keys] = values

    # an overflow or invalid value needs no numpy warning: put fails its key as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for country, keys in ((c, keys) for c, keys in enumerate(batches) if len(keys)):
            try:
                calls += 1
                put(country, keys, compute(country, keys))
            except BbandSimError:
                for key in keys.tolist():
                    try:
                        calls += 1
                        put(country, [key], compute(country, np.array([key])))
                    except BbandSimError as err:
                        errors[country, key] = f"{type(err).__name__}: {err}"
    _log_stage(stage, sum(map(len, batches)), calls, len(errors), start, counts(columns, errors))
    return columns, errors


def run_pipeline(
    bundle: InputBundle,
    runs: Sequence[tuple[StrategyBundle, ScenarioSpec]] | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
) -> PipelineOutput:
    """Execute the run matrix and return per-decile results.

    ``runs`` defaults to the full enumeration of the bundle's axes. A
    failing run is recorded with the first failing stage key it needs
    (countries sorted, then sites, cost, energy) and does not abort the
    rest. ``jobs`` is the thread count for capacity-table builds; the runs
    themselves execute in one thread. The result table lists the runs as
    given, failed ones included, and holds the rows of the runs that did
    not fail in file order: countries sorted, then deciles, then runs by
    run key, equal keys as given.
    """
    if runs is None:
        runs = enumerate_runs(bundle.strategy_space, bundle.scenario_space)
    deciles = {iso3: build_deciles(bundle.regions[iso3], iso3, bundle.settlement_thresholds)
               for iso3 in sorted(bundle.regions)}
    needed = sorted({strategy.generation for strategy, _ in runs}, key=lambda g: g.value)
    tables = capacity_tables(bundle, cache_dir=cache_dir, jobs=jobs, generations=needed)
    countries, horizon = list(deciles), bundle.scenario_space.horizon

    # each run's key as one column per axis, and its code on each axis, in the axis's value order
    run_keys = [run_key(*r) for r in runs]
    key_columns = {name: np.array([k[i] for k in run_keys]) for i, name in enumerate(RUN_KEY_COLUMNS)}
    codes = np.stack([np.unique(key_columns[name], return_inverse=True)[1] for name in RUN_KEY_COLUMNS], axis=-1)
    # a stage key is a run key on the stage's axes, which hold no country; each stage's keys are numbered in key
    # order, and every (run, country) needs one key of each stage: each key's first run, and each run's key ids
    first, ids = zip(*(np.unique(codes[:, [RUN_KEY_COLUMNS.index(a) for a in axes]], axis=0, return_index=True,
                                 return_inverse=True)[1:] for axes in STAGE_AXES.values()))
    key_ids = np.stack(ids, axis=-1)
    site_of = [key_ids[f, 0] for f in first]  # each key's sites key
    shapes = [(len(countries), len(f), N_DECILES) for f in first]

    def sites(c: int, keys: np.ndarray) -> dict[str, np.ndarray]:
        iso3, ds = countries[c], deciles[countries[c]]
        batch = [runs[first[0][k]] for k in keys]
        scenarios = {scenario: i for i, scenario in enumerate(dict.fromkeys(sc for _, sc in batch))}
        demand = demand_columns(ds, bundle.countries[iso3], bundle.adoption, horizon, list(scenarios))
        out = {name: values[[scenarios[sc] for _, sc in batch]] for name, values in demand.items()}
        return {**out, **site_counts(out["demand_mbps_km2"], [tables[(iso3, s.generation)] for s, _ in batch], ds)}

    def flagged(columns: Mapping[str, np.ndarray], errors: Mapping[tuple[int, int], str]) -> str:
        """The unserviceable and degenerate (country, key, decile) rows of the computed keys."""
        computed = len(first[0]) - np.bincount([c for c, _ in errors], minlength=len(countries))
        degenerate = computed @ [sum(d.degenerate for d in deciles[iso3]) for iso3 in countries]
        return f"{columns.get('unserviceable', np.zeros(0)).sum()} unserviceable rows, {degenerate} degenerate rows, "

    sited, site_errors = _batched("sites", [np.arange(len(first[0]))] * len(countries), sites, shapes[0], flagged)

    def needing_sites(j: int) -> list[np.ndarray]:
        """Each country's batch of stage ``j`` keys, without the keys whose sites failed."""
        return [np.flatnonzero([(c, k) not in site_errors for k in site_of[j].tolist()])
                for c in range(len(countries))]

    def cost(c: int, keys: np.ndarray) -> dict[str, np.ndarray]:
        iso3, on = countries[c], site_of[1][keys]
        return cost_columns(
            sited["new_sites"][c, on], sited["upgraded_sites"][c, on], sited["revenue_pv_usd"][c, on], deciles[iso3],
            [runs[first[1][k]][0] for k in keys], bundle.countries[iso3], bundle.cost_inputs,
        )

    costs, cost_errors = _batched("cost", needing_sites(1), cost, shapes[1])

    def energy_batch(c: int, keys: np.ndarray) -> dict[str, np.ndarray]:
        iso3, on = countries[c], site_of[2][keys]
        return energy(
            sited["existing_sites"][c, on], sited["new_sites"][c, on], deciles[iso3],
            [runs[first[2][k]][0] for k in keys], bundle.countries[iso3], bundle.energy_params,
            [bundle.energy_mix[iso3][year] for year in horizon.years()], bundle.emission_factors,
        )

    used, energy_errors = _batched("energy", needing_sites(2), energy_batch, shapes[2])

    errors = (site_errors, cost_errors, energy_errors)
    ok = np.ones(len(runs), dtype=bool)
    failures: list[RunFailure] = []
    for i in (range(len(runs)) if any(errors) else ()):
        error = next((e[c, k] for c in range(len(countries)) for e, k in zip(errors, key_ids[i].tolist())
                      if (c, k) in e), None)
        if error is not None:
            ok[i] = False
            failures.append(RunFailure(*runs[i], error))
    ranked = np.lexsort(codes.T[::-1])  # the runs in run-key order, equal keys as given
    good = ranked[ok[ranked]]
    per_run = len(countries) * N_DECILES
    country, decile = np.divmod(np.arange(per_run), N_DECILES)
    # rows in file order: each (country, decile) place, then each good run in run-key order
    stages = {"decile": (np.repeat(np.arange(per_run), len(good)),
                         _decile_columns([d for iso3 in countries for d in deciles[iso3]])),
              "run": (np.tile(good, per_run), key_columns)}
    for j, (stage, columns) in enumerate(zip(STAGE_AXES, (sited, costs, used))):
        # stage row (country, key, decile), built per place and run, not per row
        index = (country[:, None] * len(first[j]) + key_ids[good, j]) * N_DECILES + decile[:, None]
        stages[stage] = (index.reshape(-1), {name: columns.get(name, np.zeros(0)).reshape(-1)
                                             for name in STAGE_COLUMNS[stage]})
    return PipelineOutput(ResultTable(list(runs), stages), failures)


# ---------------------------------------------------------------------------
# Emission of result files
# ---------------------------------------------------------------------------

#: Country-file columns: the group, then site counts and the decile file's money, energy and emission sums.
COUNTRY_COLUMNS = [
    "country_iso3", *RUN_KEY_COLUMNS, "population", "total_sites", "new_sites", "upgraded_sites",
    "unserviceable_deciles", *DECILE_COLUMNS[DECILE_COLUMNS.index("revenue_pv_usd"):],
]

#: Group fields (country and run key) and (column, source) sums of the country file.
_COUNTRY_GROUP = COUNTRY_COLUMNS[:COUNTRY_COLUMNS.index("population")]
_COUNTRY_SUMS = [(f, {"unserviceable_deciles": "unserviceable"}.get(f, f))
                 for f in COUNTRY_COLUMNS[len(_COUNTRY_GROUP):]]

_COST_ENERGY = ["financial_cost_usd", "energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g"]

#: (file name, group fields, value fields, baseline filter) of each summary file.
_SUMMARIES = [
    ("summary_by_technology.csv", ["generation", "backhaul", "capacity_gb_month", "adoption"], _COST_ENERGY,
     {"sharing": "baseline", "policy": "baseline", "energy_strategy": "baseline"}),
    ("summary_by_sharing.csv", ["sharing"], _COST_ENERGY, {"policy": "baseline", "energy_strategy": "baseline"}),
    ("summary_by_policy.csv", ["policy"],
     ["financial_cost_usd", "private_cost_usd", "government_cost_usd", "subsidy_usd"],
     {"sharing": "baseline", "energy_strategy": "baseline"}),
    ("summary_emissions.csv", ["energy_strategy", "generation", "backhaul"],
     ["energy_kwh", "co2_kg", "nox_g", "sox_g", "pm10_g"], {"sharing": "baseline", "policy": "baseline"}),
]

#: Rows of each result file formatted and written per block: the text of
#: one block at a time is all the text that emission holds.
EMIT_BLOCK = 1024


def format_rows(columns: Sequence[np.ndarray]) -> list[str]:
    """The CSV text of each row of equal-length ``columns``, its values joined by commas.

    Integers verbatim, bools as 1/0, floats at 6 significant digits,
    strings as they are. The columns of one kind are formatted together,
    each distinct value once, and rows share its text; floats are told
    apart by bit pattern, so -0.0 and 0.0 keep their own text.
    """
    kinds = ["i" if values.dtype.kind == "b" else values.dtype.kind for values in columns]  # bools stack as 0/1
    texts: list = [None] * len(columns)
    for kind in set(kinds):
        which = [i for i, k in enumerate(kinds) if k == kind]
        stacked = np.stack([columns[i] for i in which])
        distinct, inverse = np.unique(stacked.view(np.int64) if kind == "f" else stacked, return_inverse=True)
        spec = {"f": "{:.6g}", "i": "{:d}"}.get(kind, "{}")
        text = np.array(list(map(spec.format, distinct.view(stacked.dtype).tolist())), dtype=object)
        for i, column_text in zip(which, text[inverse.reshape(stacked.shape)].tolist()):
            texts[i] = column_text
    return list(map(",".join, zip(*texts)))


def _group_sums(
    table: ResultTable,
    group: Sequence[str],
    sums: Sequence[tuple[str, str]],
    where: Mapping[str, str] | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-group sums over the table's rows: each group's first row, and the sums as columns.

    Each field of ``where`` and ``group`` is compared, or coded, on the rows
    of its stage, and read per row through the stage's row index. Rows whose
    ``where`` fields differ from its values are skipped. A group is one
    value of each ``group`` field; groups come sorted by those values in
    field order. ``sums`` holds ``(column, source)`` pairs: a float source
    sums as float, an int or bool source counts in integers. Each sum adds
    its rows in row order, the file's (``np.bincount`` and ``np.add.at`` add
    in index order), as a running total would.
    """
    rows = np.arange(len(table))
    for f, v in (where or {}).items():
        index, columns = table.stages[_STAGE_OF[f]]
        rows = rows[(columns[f] == v)[index[rows]]]
    key = np.zeros(len(rows), dtype=np.int64)
    for f in group:  # the mixed-radix code of the group's values
        index, columns = table.stages[_STAGE_OF[f]]
        labels, code = np.unique(columns[f], return_inverse=True)
        key = key * len(labels) + code[index[rows]]
    _, first, gid = np.unique(key, return_index=True, return_inverse=True)
    out = {}
    for column, source in sums:
        values = table.column(source, rows)
        if values.dtype.kind == "f":
            out[column] = np.bincount(gid, weights=values, minlength=len(first))
        else:
            out[column] = np.zeros(len(first), dtype=np.int64)
            np.add.at(out[column], gid, values)
    return rows[first], out


def _write_csv(path: Path, columns: Sequence[str], blocks: Iterable[Sequence[str]]) -> None:
    """Write ``columns`` as the header, then each block of row texts."""
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            for lines in blocks:  # each block holds one row or more
                fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def _blocks(n: int) -> Iterable[slice]:
    """Consecutive slices of at most :data:`EMIT_BLOCK` of ``n`` rows."""
    return (slice(start, start + EMIT_BLOCK) for start in range(0, n, EMIT_BLOCK))


def _decile_blocks(table: ResultTable) -> Iterable[list[str]]:
    """``results_decile.csv`` row texts, one block of :data:`EMIT_BLOCK` rows at a time.

    A row's text is its five stage segments joined, a segment being one
    stage row's columns. The decile and run segments, which scale with
    deciles and runs, are formatted once. A block formats only the keyed
    stage rows it refers to: rows group by (country, decile), and a
    keyed stage row is one (country, key, decile), so it falls in one group
    and is formatted about once in all.
    """
    fixed = []
    for stage in ("decile", "run"):
        index, columns = table.stages[stage]
        fixed.append((index, format_rows([columns[name] for name in STAGE_COLUMNS[stage]])))
    for block in _blocks(len(table)):
        parts = [map(text.__getitem__, index[block].tolist()) for index, text in fixed]
        for stage in STAGE_AXES:
            index, columns = table.stages[stage]
            stage_rows, inverse = np.unique(index[block], return_inverse=True)
            text = format_rows([columns[name][stage_rows] for name in STAGE_COLUMNS[stage]])
            parts.append(map(text.__getitem__, inverse.tolist()))
        yield list(map(",".join, zip(*parts)))


def emit_results(table: ResultTable, out_dir: Path | str) -> list[Path]:
    """Write the decile, country and summary CSVs; returns the paths written.

    Output is byte-stable: the decile file's rows are the table's, in its
    file order, floats carry 6 significant digits, and re-running with
    identical inputs rewrites identical files. Every sum adds its rows in
    that order. Each file is formatted and written one :data:`EMIT_BLOCK`
    of rows at a time, so the text held at once does not grow with the
    number of rows.
    """
    start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, group: Sequence[str], sums: Sequence[tuple[str, str]],
              where: Mapping[str, str] | None = None) -> Path:
        first, totals = _group_sums(table, group, sums, where)
        _write_csv(out / name, [*group, *(column for column, _ in sums)], (
            format_rows([*(table.column(f, first[block]) for f in group), *(totals[c][block] for c, _ in sums)])
            for block in _blocks(len(first))
        ))
        return out / name

    paths = [out / "results_decile.csv"]
    _write_csv(paths[0], DECILE_COLUMNS, _decile_blocks(table))
    paths.append(write("results_country.csv", _COUNTRY_GROUP, _COUNTRY_SUMS))
    paths += [write(name, group, [(f, f) for f in values], where) for name, group, values, where in _SUMMARIES]
    _log_stage("emit", len(table), len(paths), 0, start)
    return paths
