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

A command imports what only it runs when it runs: the process pool for
--jobs above 1, analysis for analyze, equilibrium for equilibria, so
simulate pays for none of them at start-up.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .core import ConfigurationError, InteractionMatrix, require_unit
from .core import _read_csv, _write_csv, _write_json
from .engine import PERSON_COLUMNS, SimConfig, TimeSeriesLog, run, write_run_outputs
from .matching import MatchMode
from .presets import PRESETS, get_preset
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

# detect_plateau's trailing window, as a share of the run's horizon, and the
# slope magnitude (happiness per time unit) under which it counts as flat.
_PLATEAU_WINDOW_FRAC = 0.05
_PLATEAU_TOL = 1e-5

# Counts previously reported for the default matrix treated as a
# common-interest game; the audit reports both sides without requiring
# agreement.
_REFERENCE_COUNTS = {"total": 36, "pure": 4}


def detect_plateau(times, values, max_time: float) -> tuple[float, float]:
    """(plateau time, plateau level) for a logged series.

    The plateau time is the earliest logged time from which every trailing
    window of 5% of ``max_time`` keeps a least-squares slope whose
    magnitude stays under 1e-5 (happiness per time unit). Windows with a
    single point count as flat, so a constant series plateaus at its first
    logged time. The level is the mean of the series from the plateau on.
    Returns (nan, nan) when the slope never settles.
    """
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.size == 0 or t.shape != y.shape:
        raise ConfigurationError("plateau detection needs matching nonempty series")
    window = _PLATEAU_WINDOW_FRAC * max_time
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

    flat = np.abs(slope) < _PLATEAU_TOL
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
    if jobs < 1:
        raise ConfigurationError(f"jobs: need at least 1, got {jobs}")
    if jobs == 1 or len(configs) <= 1:
        return [run(c) for c in configs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        return list(pool.map(_run_config, configs))


def _multiplier_tag(m: float) -> str:
    # Integral values below 1e16 are written in decimal (at most 16 digits);
    # larger ones as a float repr (1e+300), so a directory name stays short.
    m = float(m)
    return str(int(m)) if m.is_integer() and m < 1e16 else repr(m)


def _write_rows(path: Path, rows: list[dict]) -> None:
    """Write dicts that share their keys as a CSV headed by those keys."""
    header = list(rows[0])
    _write_csv(path, header, [np.asarray([row[key] for row in rows]) for key in header])


def sweep_lambda(
    scenario: Scenario,
    multipliers: list[float],
    out_dir: str | Path,
    jobs: int,
) -> list[dict]:
    """One run per multiplier at a fixed seed, plus a comparison table.

    Each run writes the standard files under multiplier-<m>/; the combined
    sweep_summary.csv holds one row per multiplier with its plateau time
    and plateau happiness. The runs go to up to jobs worker processes; with
    jobs=1 they run in this process.
    """
    if not multipliers:
        raise ConfigurationError("multipliers: need at least one value")
    # Each multiplier's run writes to its own directory, named by value.
    for i, m in enumerate(multipliers):
        if float(m) in map(float, multipliers[:i]):
            raise ConfigurationError(f"multipliers: {float(m)!r} repeats")
    out = Path(out_dir)
    configs = [
        replace(scenario.config, schedule=replace(scenario.config.schedule, multiplier=m))
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
    _write_rows(out / "sweep_summary.csv", rows)
    return rows


def _convergent_happiness(log: TimeSeriesLog) -> float:
    tail = max(1, math.ceil(0.1 * len(log.times)))
    return float(np.mean(log.mean_happiness[-tail:]))


# compare_matching's metrics, each read from a member's log, in the order
# per_run and paired_means list them.
_METRICS = {
    "min_population": lambda log: int(min(log.population)),
    "convergent_happiness": _convergent_happiness,
}


def _signed_direction(diff: float) -> str:
    if math.isnan(diff):
        return "undefined"
    if diff > 0:
        return "noisy_higher"
    if diff < 0:
        return "optimal_higher"
    return "equal"


def _paired_signs(per_run: dict[str, list[dict]], name: str) -> dict:
    """How many paired seeds point each way on one metric, and the exact
    two-sided sign-test p over the untied pairs (None when none is untied)."""
    pairs = zip(per_run["optimal"], per_run["noisy"])
    signs = [_signed_direction(n[name] - o[name]) for o, n in pairs]
    counts = {w: signs.count(w) for w in ("noisy_higher", "optimal_higher", "equal", "undefined")}
    h, l = counts["noisy_higher"], counts["optimal_higher"]
    tail = sum(math.comb(h + l, i) for i in range(min(h, l) + 1))
    return {**counts, "sign_test_p": min(1.0, 2 * tail / 2 ** (h + l)) if h + l else None}


def compare_matching(
    scenario: Scenario,
    n_seeds: int,
    out_dir: str | Path,
    jobs: int,
) -> dict:
    """Optimal vs noisy matching on paired seeds; reports both directions.

    Per run the report records the population minimum (depth of the initial
    drop) and the convergent happiness (mean over the last 10% of logged
    rounds). Directions are reported as observed, whichever way they point;
    paired_signs counts the seeds behind each and gives a sign-test p. The
    runs go to up to jobs worker processes, as in sweep_lambda.
    """
    if n_seeds < 2:
        raise ConfigurationError(f"seeds: need at least 2 paired seeds, got {n_seeds}")
    config, base = scenario.config, scenario.config.seed
    modes = (MatchMode.OPTIMAL, MatchMode.NOISY)
    configs = [
        replace(config, seed=base + i, matching=replace(config.matching, mode=mode))
        for mode in modes
        for i in range(n_seeds)
    ]
    logs = _run_many(configs, jobs)

    per_run: dict[str, list[dict]] = {m.value: [] for m in modes}
    for member, log in zip(configs, logs):
        metrics = {name: read(log) for name, read in _METRICS.items()}
        per_run[member.matching.mode.value].append(
            {"seed": member.seed, **metrics, "status": log.status}
        )
    means = {
        mode: {name: float(np.mean([r[name] for r in runs])) for name in _METRICS}
        for mode, runs in per_run.items()
    }
    # The report has always listed differences and directions happiness
    # first; walking the table backwards keeps its bytes.
    diffs = {name: means["noisy"][name] - means["optimal"][name] for name in reversed(_METRICS)}
    report = {
        "scenario": scenario.name,
        "seeds": [base + i for i in range(n_seeds)],
        "per_run": per_run,
        "paired_means": means,
        "differences_noisy_minus_optimal": diffs,
        "direction": {name: _signed_direction(diff) for name, diff in diffs.items()},
        "paired_signs": {name: _paired_signs(per_run, name) for name in diffs},
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(
        out / "compare_matching.csv",
        [{"mode": mode, **row} for mode, runs in per_run.items() for row in runs],
    )
    _write_json(out / "compare_matching.json", report)
    return report


def equilibrium_audit(out_dir: str | Path) -> dict:
    """Pure and support-enumerated equilibria of the default matrix game,
    written to out_dir/equilibria.json."""
    from .equilibrium import BimatrixGame, pure_nash, support_enumeration_report

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
        "degeneracy": asdict(degeneracy),
        "reference": {
            "total": _REFERENCE_COUNTS["total"],
            "pure": _REFERENCE_COUNTS["pure"],
            "total_agrees": len(found) == _REFERENCE_COUNTS["total"],
            "pure_agrees": len(pure) == _REFERENCE_COUNTS["pure"],
        },
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "equilibria.json", report)
    return report


def _read_population_csv(path: Path) -> tuple[list[int], np.ndarray, list[str]]:
    """Ids, traits and trait names of a population snapshot. Every nonblank
    row has the header's width, and no column name repeats."""
    header, records = _read_csv(path, "population")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"{path}:1: repeated column(s) {', '.join(repeated)}")
    trait_cols = [i for i, name in enumerate(header) if name not in PERSON_COLUMNS]
    if "id" not in header or not trait_cols:
        raise ConfigurationError(f"{path}: not a population snapshot CSV")
    id_col = header.index("id")
    ids, rows, lines = [], [], []
    for line, record in records:
        if len(record) != len(header):
            raise ConfigurationError(
                f"{path}:{line}: expected {len(header)} cells, got {len(record)}"
            )
        try:
            ids.append(int(record[id_col]))
            rows.append([float(record[i]) for i in trait_cols])
        except ValueError:
            raise ConfigurationError(f"{path}:{line}: bad row {record!r}") from None
        lines.append(line)
    if not rows:
        raise ConfigurationError(f"{path}: no rows to analyze")
    traits = np.asarray(rows, dtype=np.float64)
    # Every trait is a coordinate in [0, 1], as in a TraitVector; the first
    # one outside it, NaN included, is named by its line and column.
    bad = np.argwhere(~((traits >= 0.0) & (traits <= 1.0)))
    if bad.size:
        row, col = bad[0]
        require_unit(traits[row, col], f"{path}:{lines[row]}: trait {header[trait_cols[col]]}")
    return ids, traits, [header[i] for i in trait_cols]


def analyze_population(
    input_path: str | Path,
    out_dir: str | Path,
    clusters: int,
    embed_dim: int,
    seed: int,
) -> dict:
    """Cluster raw traits into clusters groups (k-means seeded by seed),
    embed them in embed_dim dimensions for display, write both artifacts."""
    from .analysis import classical_mds, cluster_summary, kmeans

    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    ids, traits, trait_names = _read_population_csv(Path(input_path))
    result = kmeans(traits, clusters, np.random.default_rng(seed))
    embedded = classical_mds(traits, embed_dim)
    summaries = cluster_summary(traits, result.labels)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["id", *(f"e{d}" for d in range(embed_dim)), "cluster"]
    columns = [np.asarray(ids), *embedded.T, result.labels]
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
    sub.add_argument("--preset", help="built-in scenario: " + ", ".join(PRESETS))
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
    cmp_ = subs.add_parser("compare-matching", help="optimal vs noisy matching")
    for sub in (sweep, cmp_):
        _add_scenario_flags(sub)
        sub.add_argument("--jobs", type=int, default=1, help="parallel member runs")
    sweep.add_argument(
        "--multipliers",
        default="1,3,10,30",
        help="comma-separated multipliers (default 1,3,10,30)",
    )
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
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"multipliers: could not parse {raw!r}") from None


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
                signs = report["paired_signs"][metric]
                print(f"{metric}: {direction} (noisy higher in {signs['noisy_higher']}, lower in "
                      f"{signs['optimal_higher']}; sign-test p {signs['sign_test_p']})")
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
