"""Seeded synthetic inputs for the ``radio`` and ``wide`` benchmark workloads.

The files follow the miniland CSV schemas (see ``data/miniland``) and the
miniland config, with only the ``simulation`` section changed. The same
``(kind, seed)`` always writes byte-identical files.

Countries cycle over four spectrum portfolios. The first two share their
4G carriers, so the 8 (portfolio, generation) pairs name 7 distinct
capacity tables: a workload with more than 4 countries repeats table
lookups that the disk cache can serve.

Usage: ``python3 bench/fixture.py --kind wide --seed 20230 --out DIR``
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
MINILAND_CONFIG = ROOT / "data" / "miniland" / "config.yaml"

DENSITY_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]

# kind -> (country id prefix, countries, regions per country, simulation overrides)
KINDS = {
    "radio": ("R", 4, 12, {"trials": 50000, "interferer_rings": 2}),
    "wide": ("W", 40, 500, {}),
}

# (frequency MHz, bandwidth MHz) carriers per generation.
PORTFOLIOS = (
    {"4G": ((800, 10), (1800, 10), (2500, 10)), "5G": ((700, 10), (3500, 30))},
    {"4G": ((800, 10), (1800, 10), (2500, 10)), "5G": ((700, 10), (3500, 40))},
    {"4G": ((800, 10), (2600, 20)), "5G": ((700, 10), (3500, 60))},
    {"4G": ((900, 10), (1800, 15)), "5G": ((3500, 80),)},
)

INCOME_GROUPS = ("LIC", "LMC", "UMC", "HIC")
MIX_SOURCES = ("coal", "gas", "oil", "nuclear", "hydro", "renewables_other")
EMISSION_FACTORS = (
    ("coal", "0.95", "0.9", "2.2", "0.35"),
    ("gas", "0.45", "0.45", "0.01", "0.02"),
    ("oil", "0.72", "1.1", "1.3", "0.09"),
    ("nuclear", "0", "0", "0", "0"),
    ("hydro", "0", "0", "0", "0"),
    ("renewables_other", "0", "0", "0", "0"),
    ("diesel", "0.8", "10", "4", "1"),
)


def _write(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mix_percents(rng: random.Random) -> list[int]:
    """Integer percentages over MIX_SOURCES that sum to exactly 100."""
    weights = [rng.random() + 0.05 for _ in MIX_SOURCES]
    scale = 100 / sum(weights)
    pct = [int(w * scale) for w in weights]
    pct[0] += 100 - sum(pct)
    return pct


def generate(kind: str, seed: int, out: Path | str) -> Path:
    """Write a data directory (with ``config.yaml``) for ``kind`` into ``out``."""
    prefix, n_countries, n_regions, sim_overrides = KINDS[kind]
    rng = random.Random(f"{kind}:{seed}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    isos = [f"{prefix}{i:02d}" for i in range(n_countries)]
    countries, spectrum, regions, mix = [], [], [], []
    for i, iso in enumerate(isos):
        arpu_low = rng.randint(2, 10)
        arpu_base = arpu_low + rng.randint(1, 6)
        countries.append((
            iso, INCOME_GROUPS[rng.randrange(len(INCOME_GROUPS))], rng.randint(2, 4),
            arpu_low, arpu_base, arpu_base + rng.randint(1, 6),
            f"{rng.uniform(0.5, 1.0):.2f}", f"{rng.uniform(0.2, 0.8):.2f}",
        ))
        for gen, carriers in PORTFOLIOS[i % len(PORTFOLIOS)].items():
            spectrum.extend((iso, gen, f, bw) for f, bw in carriers)
        for j in range(n_regions):
            # Densities from ~5 to ~5000 persons/km^2 cover all settlement types.
            density = rng.lognormvariate(5.0, 1.5)
            area = round(rng.lognormvariate(6.0, 0.8), 1) + 1.0
            population = int(density * area)
            sites = max(1, int(population / rng.uniform(4000, 20000)))
            regions.append((f"{iso}-{j:04d}", iso, population, area, sites))
        for year in range(2023, 2031):
            for source, pct in zip(MIX_SOURCES, _mix_percents(rng)):
                mix.append((iso, year, source, f"{pct / 100:.2f}"))

    _write(out / "countries.csv",
           "country_iso3,income_group,n_major_operators,arpu_low,arpu_base,arpu_high,"
           "on_grid_share,grid_carbon_intensity_kg_kwh", countries)
    _write(out / "spectrum.csv", "country_iso3,generation,frequency_mhz,bandwidth_mhz", spectrum)
    _write(out / "regions.csv", "region_id,country_iso3,population,area_km2,existing_sites", regions)
    _write(out / "energy_mix.csv", "region,year,source,share", mix)
    _write(out / "emission_factors.csv", "source,co2_kg_kwh,nox_g_kwh,sox_g_kwh,pm10_g_kwh", EMISSION_FACTORS)

    config = yaml.safe_load(MINILAND_CONFIG.read_text(encoding="utf-8"))
    config["simulation"] = {"seed": seed, "density_grid": DENSITY_GRID, "trials": 10000, **sim_overrides}
    (out / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(KINDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(generate(args.kind, args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
