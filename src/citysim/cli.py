"""Command-line entry point: batch experiments over scenario files.

Subcommands
    simulate         one run, four output files (five with a grid)
    sweep-lambda     one run per learning-rate multiplier plus a summary CSV
    compare-matching optimal vs noisy matching over paired seeds
    analyze          embed and cluster a population snapshot CSV
    equilibria       audit the default interaction matrix as a game

Every subcommand that runs simulations takes a scenario from --config PATH
or --preset NAME (exactly one), with --seed and --out overriding the file;
sweep-lambda and compare-matching also take --jobs for parallel member
runs. Outputs are byte-stable for identical inputs except the summary
JSON's "meta" block, which carries wall-clock values. Every file goes
through core's two writers, so every CSV and JSON file has one cell and
line-end rule (see core._write_csv and core._write_json).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import PointSet, classical_mds, cluster_summary, kmeans
from .core import ConfigurationError, InteractionMatrix, _write_csv, _write_json
from .engine import PERSON_COLUMNS, SimConfig, TimeSeriesLog, run, write_run_outputs
from .equilibrium import BimatrixGame, pure_nash, support_enumeration_report
from .matching import MatchMode
from .presets import get_preset, preset_names
from .scenario import Scenario, load_scenario

__all__ = [
    "main",
    "build_parser",
    "detect_plateau",
    "simulate_scenario",
    "sweep_lambda",
    "compare_matching",
    "equilibrium_audit",
]

# Counts previously reported for the default matrix treated as a
# common-interest game; the audit reports both sides without requiring
# agreement.
_REFERENCE_COUNTS = {"total": 36, "pure": 4}


def detect_plateau(
    times,
    values,
    max_time: float,
    *,
    window_frac: float = 0.05,
    tol: float = 1e-5,
) -> tuple[float, float]:
    """(plateau time, plateau level) for a logged series.

    The plateau time is the earliest logged time from which every trailing
    window of ``window_frac * max_time`` keeps a least-squares slope whose
    magnitude stays under ``tol`` (happiness per time unit). Windows with a
    single point count as flat, so a constant series plateaus at its first
    logged time. The level is the mean of the series from the plateau on.
    Returns (nan, nan) when the slope never settles.
    """
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.size == 0 or t.shape != y.shape:
        raise ConfigurationError("plateau detection needs matching nonempty series")
    window = window_frac * max_time
    lo = np.searchsorted(t, t - window, side="left")
    idx = np.arange(t.size)
    n = (idx - lo + 1).astype(np.float64)

    ct = np.concatenate([[0.0], np.cumsum(t)])
    cy = np.concatenate([[0.0], np.cumsum(y)])
    ctt = np.concatenate([[0.0], np.cumsum(t * t)])
    cty = np.concatenate([[0.0], np.cumsum(t * y)])
    st = ct[idx + 1] - ct[lo]
    sy = cy[idx + 1] - cy[lo]
    stt = ctt[idx + 1] - ctt[lo]
    sty = cty[idx + 1] - cty[lo]
    denom = stt - st * st / n
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.where(denom > 0, (sty - st * sy / n) / np.where(denom > 0, denom, 1.0), 0.0)

    flat = np.abs(slope) < tol
    settled = np.logical_and.accumulate(flat[::-1])[::-1]
    hits = np.nonzero(settled)[0]
    if hits.size == 0:
        return math.nan, math.nan
    first = int(hits[0])
    return float(t[first]), float(np.mean(y[first:]))


def _resolved_out(scenario: Scenario, override: str | None, suffix: str = "") -> Path:
    if override is not None:
        return Path(override)
    if scenario.out_dir is not None:
        return Path(scenario.out_dir)
    return Path("runs") / (scenario.name + suffix)


def simulate_scenario(scenario: Scenario, out_dir: str | Path) -> tuple[TimeSeriesLog, list[Path]]:
    """Run one scenario and write its output files."""
    t0 = time.perf_counter()
    log = run(scenario.config)
    paths = write_run_outputs(log, scenario.config, out_dir, time.perf_counter() - t0)
    return log, paths


def _run_config(config: SimConfig) -> TimeSeriesLog:
    # pool.map pickles its function by reference, so it must be defined at
    # module level. Passing `run` itself would break once cli.run is
    # rebound to a wrapper that cannot be pickled; this function looks
    # `run` up in the worker at call time instead.
    return run(config)


def _run_many(configs: list[SimConfig], jobs: int) -> list[TimeSeriesLog]:
    if jobs <= 1 or len(configs) <= 1:
        return [run(c) for c in configs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        return list(pool.map(_run_config, configs))


def _multiplier_tag(m: float) -> str:
    return str(int(m)) if float(m).is_integer() else repr(float(m))


def _columns(rows: list[dict], keys: list[str]) -> list[np.ndarray]:
    """One array per key, holding that key's value from every row in order."""
    return [np.asarray([row[key] for row in rows]) for key in keys]


def sweep_lambda(
    scenario: Scenario,
    multipliers: list[float],
    out_dir: str | Path,
    jobs: int = 1,
) -> list[dict]:
    """One run per multiplier at a fixed seed, plus a comparison table.

    Each run writes the standard files under multiplier-<m>/; the combined
    sweep_summary.csv holds one row per multiplier with its plateau time
    and plateau happiness.
    """
    if not multipliers:
        raise ConfigurationError("multipliers: need at least one value")
    for m in multipliers:
        if not (m > 0 and math.isfinite(m)):
            raise ConfigurationError(f"multipliers: must be positive, got {m}")
    out = Path(out_dir)
    configs = [
        replace(scenario.config, schedule=replace(scenario.config.schedule, multiplier=float(m)))
        for m in multipliers
    ]
    t0 = time.perf_counter()
    logs = _run_many(configs, jobs)
    wall = time.perf_counter() - t0
    rows = []
    for m, config, log in zip(multipliers, configs, logs):
        write_run_outputs(log, config, out / f"multiplier-{_multiplier_tag(m)}", wall / len(logs))
        when, level = detect_plateau(log.times, log.mean_happiness, config.max_time)
        rows.append(
            {
                "multiplier": float(m),
                "time_to_plateau": when,
                "plateau_happiness": level,
                "status": log.status,
            }
        )
    out.mkdir(parents=True, exist_ok=True)
    header = ["multiplier", "time_to_plateau", "plateau_happiness", "status"]
    _write_csv(out / "sweep_summary.csv", header, _columns(rows, header))
    return rows


def _convergent_happiness(log: TimeSeriesLog) -> float:
    tail = max(1, math.ceil(0.1 * len(log.times)))
    return float(np.mean(log.mean_happiness[-tail:]))


def _signed_direction(diff: float) -> str:
    if diff > 0:
        return "noisy_higher"
    if diff < 0:
        return "optimal_higher"
    return "equal"


def compare_matching(
    scenario: Scenario,
    n_seeds: int,
    out_dir: str | Path,
    jobs: int = 1,
) -> dict:
    """Optimal vs noisy matching on paired seeds; reports both directions.

    Per run the report records the population minimum (depth of the initial
    drop) and the convergent happiness (mean over the last 10% of logged
    rounds). Directions are reported as observed, whichever way they point.
    """
    if n_seeds < 2:
        raise ConfigurationError(f"seeds: need at least 2 paired seeds, got {n_seeds}")
    base = scenario.config.seed
    modes = (MatchMode.OPTIMAL, MatchMode.NOISY)
    configs = [
        replace(
            scenario.config,
            seed=base + i,
            matching=replace(scenario.config.matching, mode=mode),
        )
        for mode in modes
        for i in range(n_seeds)
    ]
    logs = _run_many(configs, jobs)

    per_run: dict[str, list[dict]] = {m.value: [] for m in modes}
    for config, log in zip(configs, logs):
        per_run[config.matching.mode.value].append(
            {
                "seed": config.seed,
                "min_population": int(min(log.population)),
                "convergent_happiness": _convergent_happiness(log),
                "status": log.status,
            }
        )

    def _mean(mode: str, key: str) -> float:
        return float(np.mean([r[key] for r in per_run[mode]]))

    diff_h = _mean("noisy", "convergent_happiness") - _mean("optimal", "convergent_happiness")
    diff_p = _mean("noisy", "min_population") - _mean("optimal", "min_population")

    report = {
        "scenario": scenario.name,
        "seeds": [base + i for i in range(n_seeds)],
        "per_run": per_run,
        "paired_means": {
            mode.value: {
                "min_population": _mean(mode.value, "min_population"),
                "convergent_happiness": _mean(mode.value, "convergent_happiness"),
            }
            for mode in modes
        },
        "differences_noisy_minus_optimal": {
            "convergent_happiness": diff_h,
            "min_population": diff_p,
        },
        "direction": {
            "convergent_happiness": _signed_direction(diff_h),
            "min_population": _signed_direction(diff_p),
        },
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [{"mode": mode.value, **row} for mode in modes for row in per_run[mode.value]]
    header = ["mode", "seed", "min_population", "convergent_happiness", "status"]
    _write_csv(out / "compare_matching.csv", header, _columns(rows, header))
    _write_json(out / "compare_matching.json", report)
    return report


def equilibrium_audit(out_dir: str | Path | None = None) -> dict:
    """Pure and support-enumerated equilibria of the default matrix game."""
    game = BimatrixGame.common_interest(InteractionMatrix.default())
    pure = pure_nash(game)
    found, degeneracy = support_enumeration_report(game)
    report = {
        "pure_count": len(pure),
        "total_count": len(found),
        "pure_cells": [[int(i), int(j)] for i, j in pure],
        "support_sizes": sorted(
            {f"{len(eq.supports[0])}x{len(eq.supports[1])}" for eq in found}
        ),
        "degeneracy": {
            "examined_supports": degeneracy.examined_supports,
            "singular_systems": degeneracy.singular_systems,
            "zero_probability_solutions": degeneracy.zero_probability_solutions,
        },
        "reference": {
            "total": _REFERENCE_COUNTS["total"],
            "pure": _REFERENCE_COUNTS["pure"],
            "total_agrees": len(found) == _REFERENCE_COUNTS["total"],
            "pure_agrees": len(pure) == _REFERENCE_COUNTS["pure"],
        },
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "equilibria.json", report)
    return report


def _read_population_csv(path: Path) -> tuple[list[int], np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty population file") from None
        trait_cols = [i for i, name in enumerate(header) if name not in PERSON_COLUMNS]
        if "id" not in header or not trait_cols:
            raise ConfigurationError(f"{path}: not a population snapshot CSV")
        id_col = header.index("id")
        ids, rows = [], []
        for record in reader:
            try:
                ids.append(int(record[id_col]))
                rows.append([float(record[i]) for i in trait_cols])
            except (ValueError, IndexError):
                raise ConfigurationError(f"{path}:{reader.line_num}: bad row {record!r}") from None
    if not rows:
        raise ConfigurationError(f"{path}: no rows to analyze")
    return ids, np.asarray(rows, dtype=np.float64), [header[i] for i in trait_cols]


def analyze_population(
    input_path: str | Path,
    out_dir: str | Path,
    clusters: int = 2,
    embed_dim: int = 2,
    seed: int = 0,
) -> dict:
    """Cluster raw traits, embed for display, write both artifacts."""
    ids, traits, trait_names = _read_population_csv(Path(input_path))
    points = PointSet(traits)
    result = kmeans(points, clusters, np.random.default_rng(seed))
    embedded = classical_mds(points, out_dim=embed_dim)
    summaries = cluster_summary(traits, result.labels)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["id", *(f"e{d}" for d in range(embed_dim)), "cluster"]
    columns = [np.asarray(ids), *embedded.rows.T, result.labels]
    _write_csv(out / "analysis_embedding.csv", header, columns)
    payload = {
        "input": str(input_path),
        "clusters": [
            {
                "label": int(s.label),
                "size": int(s.size),
                "mean": {n: float(v) for n, v in zip(trait_names, s.mean.values)},
            }
            for s in summaries
        ],
        "inertia": float(result.inertia),
    }
    _write_json(out / "analysis_clusters.json", payload)
    return payload


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    if (args.config is None) == (args.preset is None):
        raise ConfigurationError("exactly one of --config or --preset is required")
    if args.config is not None:
        scenario = load_scenario(args.config)
    else:
        scenario = get_preset(args.preset)
    if args.seed is not None:
        scenario = replace(scenario, config=replace(scenario.config, seed=args.seed))
    return scenario


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="scenario YAML file")
    sub.add_argument(
        "--preset", help="built-in scenario: " + ", ".join(preset_names())
    )
    sub.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citysim",
        description="population/society co-evolution experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one scenario")
    _add_scenario_flags(sim)

    sweep = subs.add_parser("sweep-lambda", help="rerun per learning-rate multiplier")
    _add_scenario_flags(sweep)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel member runs")
    sweep.add_argument(
        "--multipliers",
        default="1,3,10,30",
        help="comma-separated multipliers (default 1,3,10,30)",
    )

    cmp_ = subs.add_parser("compare-matching", help="optimal vs noisy matching")
    _add_scenario_flags(cmp_)
    cmp_.add_argument("--jobs", type=int, default=1, help="parallel member runs")
    cmp_.add_argument("--seeds", type=int, default=10, help="number of paired seeds")

    ana = subs.add_parser("analyze", help="embed and cluster a population snapshot")
    ana.add_argument("--input", required=True, help="population snapshot CSV")
    ana.add_argument("--out", default="runs/analysis", help="output directory")
    ana.add_argument("--clusters", type=int, default=2, help="number of clusters")
    ana.add_argument("--embed-dim", type=int, default=2, help="embedding dimension")
    ana.add_argument("--seed", type=int, default=0, help="clustering seed")

    eq = subs.add_parser("equilibria", help="audit the default matrix as a game")
    eq.add_argument("--out", default="runs/equilibria", help="output directory")

    return parser


def _parse_multipliers(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"multipliers: could not parse {raw!r}") from None
    if not values:
        raise ConfigurationError("multipliers: need at least one value")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            scenario = _scenario_from_args(args)
            out = _resolved_out(scenario, args.out)
            log, paths = simulate_scenario(scenario, out)
            print(f"{scenario.name}: {log.status}, population {log.population[-1]}, "
                  f"{len(paths)} files in {out}")
        elif args.command == "sweep-lambda":
            scenario = _scenario_from_args(args)
            out = _resolved_out(scenario, args.out, "-sweep")
            rows = sweep_lambda(scenario, _parse_multipliers(args.multipliers), out, args.jobs)
            for row in rows:
                print(f"multiplier {row['multiplier']:g}: plateau at "
                      f"t={row['time_to_plateau']:g}, level {row['plateau_happiness']:g}")
            print(f"summary in {out / 'sweep_summary.csv'}")
        elif args.command == "compare-matching":
            scenario = _scenario_from_args(args)
            out = _resolved_out(scenario, args.out, "-compare")
            report = compare_matching(scenario, args.seeds, out, args.jobs)
            for metric, direction in report["direction"].items():
                print(f"{metric}: {direction}")
            print(f"report in {out / 'compare_matching.json'}")
        elif args.command == "analyze":
            payload = analyze_population(
                args.input, args.out, args.clusters, args.embed_dim, args.seed
            )
            sizes = ", ".join(str(c["size"]) for c in payload["clusters"])
            print(f"clusters of size {sizes}; files in {args.out}")
        elif args.command == "equilibria":
            report = equilibrium_audit(args.out)
            ref = report["reference"]
            print(f"pure {report['pure_count']} (reference {ref['pure']}), "
                  f"total {report['total_count']} (reference {ref['total']})")
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
