"""citysim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every measured step runs in a fresh child
process (child.py) with src/ on PYTHONPATH and the BLAS thread count pinned
to 1 in that child's environment only.

--trace 0 probes set-up several times, then runs the workload's command
again and again, with the same seed, for S seconds, and reports the
end-to-end metrics as medians over those runs. --trace 1 runs the command
untraced once (and serially once more for a pooled workload), then traced
at least twice, times the layer kernels, and reports the per-layer metrics.

Every run is checked: validate_conservation() and a completed status for
each engine.run, sha256 digests of log.csv, population_final.csv and
grid_log.csv that must repeat across runs of the same seed (traced or not),
and exact counts that must repeat across traced runs. The last stdout line
is one JSON object: correct, attempted, failed, metrics. README.md beside
this file says why each workload exists and what is left unmeasured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Times other than set-up are in "ref" units: multiples of child.reference_s
# measured in the same process next to them (README.md says why).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "sim_ref": "ref",
    "write_ref": "ref",
    "person_rounds_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, each with its unit.
LAYER_UNITS = {
    "matching.rank.calls": "count",
    "matching.rank.items": "count",
    "matching.rank.busy_s": "s",
    "matching.weights.cells": "count",
    "matching.weights.busy_s": "s",
    "matching.distance.cells": "count",
    "matching.distance.busy_s": "s",
    "matching.assign.calls": "count",
    "matching.assign.cells": "count",
    "matching.assign.busy_s": "s",
    "matching.pairs": "count",
    "engine.success_ratio": "ratio",
    "demographics.born.children": "count",
    "demographics.born.busy_s": "s",
    "engine.init.busy_s": "s",
    "engine.noise.draws": "count",
    "engine.noise.busy_s": "s",
    "engine.self_s": "s",
    "engine.run.busy_s": "s",
    "engine.person_rounds": "count",
    "engine.write.log_csv_s": "s",
    "engine.write.grid_csv_s": "s",
    "engine.write.population_csv_s": "s",
    "engine.write.bytes": "B",
    "cli.pool.efficiency": "ratio",
    "tracing.overhead_s": "s",
    "kernel.rank.n1000.busy_s": "s",
    "kernel.rank.n1000.ops": "count",
    "kernel.rank.n4500.busy_s": "s",
    "kernel.rank.n4500.ops": "count",
    "kernel.rank.n9000.busy_s": "s",
    "kernel.rank.n9000.ops": "count",
    "kernel.assign.k": "count",
    "kernel.assign.busy_s": "s",
    "kernel.assign.ops": "count",
}

# Spans engine.run calls directly; with engine.self_s they add up to engine.run.busy_s.
RUN_CHILDREN = (
    "matching.rank",
    "matching.weights",
    "matching.distance",
    "matching.assign",
    "demographics.born",
    "engine.init",
    "engine.noise",
)


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.src = root / "src"
        self.root = root
        self.deadline = time.perf_counter() + DEADLINE_S
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src), TMPDIR=str(self.work / "tmp"))
        self.env.update({name: "1" for name in BLAS_ENV})
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference_digests = None
        self.runs = 0

    def child(self, mode: str, *extra: str) -> dict:
        cmd = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed), *extra,
        ]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [*cmd, "--t0", repr(t0)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=self.root,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            _stop_group(proc.pid)
            proc.communicate()
            raise ChildFailed(f"{mode} step passed the {DEADLINE_S:.0f} s deadline") from None
        finally:
            _stop_group(proc.pid)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} step exited {proc.returncode}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def run_command(self, traced: bool, jobs: int) -> dict | None:
        """One run of the workload's command; None if it failed to finish."""
        self.runs += 1
        out = self.work / f"run-{self.runs}"
        extra = ["--out", str(out), "--jobs", str(jobs)] + (["--trace"] if traced else [])
        self.attempted += self.workload.members
        try:
            result = self.child("workload", *extra)
        except ChildFailed as exc:
            self.failed += self.workload.members
            self.errors.append(str(exc))
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not Path(result["citysim"]).resolve().is_relative_to(self.src.resolve()):
            raise ChildFailed(f"imported citysim from {result['citysim']}, not {self.src}")
        problems = list(result["errors"])
        if self.reference_digests is None:
            self.reference_digests = result["digests"]
        elif result["digests"] != self.reference_digests:
            problems.append(f"run {self.runs}: output digests differ from run 1 of this seed")
        if problems:
            self.failed += self.workload.members
            self.errors.extend(problems)
        return result

    def repeat(self, traced: bool, jobs: int, minimum: int, seconds: float, before=None) -> list[dict]:
        """Run the command until `seconds` have passed, at least `minimum` times,
        calling `before` ahead of each run."""
        results = []
        start = time.perf_counter()
        while True:
            if before is not None:
                before()
            result = self.run_command(traced, jobs)
            if result is None:
                return results
            results.append(result)
            elapsed = time.perf_counter() - start
            if len(results) >= minimum and elapsed * (1 + 1 / len(results)) > seconds:
                return results


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}, min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def end_to_end(bench: Bench) -> dict:
    setup = []

    def probe():
        setup.append(bench.child("setup")["setup_s"])

    # Probes are spread over the measurement, so set-up sees the same machine.
    results = bench.repeat(False, bench.workload.jobs, MIN_RUNS, bench.args.seconds, probe)
    while len(setup) < SETUP_PROBES:
        probe()
    if not results:
        return {}
    samples = {
        "setup_s": setup,
        "wall_ref": [r["wall_s"] / r["ref_s"] for r in results],
        "sim_ref": [r["sim_s"] / r["ref_s"] for r in results],
        "write_ref": [r["write_ref"] for r in results],
        "person_rounds_per_ref": [r["person_rounds"] * r["ref_s"] / r["sim_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    seconds = {
        "ref_s": [r["ref_s"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "sim_s": [r["sim_s"] for r in results],
        "write_s": [r["write_s"] for r in results],
        "person_rounds_per_s": [r["person_rounds"] / r["sim_s"] for r in results],
    }
    # With fewer than eleven samples no percentile above the median has ten
    # samples beyond it, so the spread is reported as min and max.
    for name, values in {**samples, **seconds}.items():
        print(f"{name}: {_spread(values)}")
    print(f"machine: {json.dumps(results[0]['machine'])}")
    print(f"digests: {json.dumps(bench.reference_digests)}")
    return {name: statistics.median(values) for name, values in samples.items()}


def _counts(result: dict) -> dict:
    """The exact counts of a traced run: every count and every span's calls."""
    trace = result["trace"]
    calls = {f"{name}.calls": n for name, n in trace["calls"].items()}
    return {**trace["counts"], **calls, "person_rounds": result["person_rounds"]}


def per_layer(bench: Bench) -> dict:
    w = bench.workload
    start = time.perf_counter()
    plain = bench.repeat(False, w.jobs, 1, 0)
    serial = plain if w.jobs == 1 else bench.repeat(False, 1, 1, 0)
    budget = bench.args.seconds - (time.perf_counter() - start)
    traced = bench.repeat(True, 1, MIN_TRACED_RUNS, budget)
    if not (plain and serial and len(traced) >= MIN_TRACED_RUNS):
        return {}
    for other in traced[1:]:
        if _counts(other) != _counts(traced[0]):
            bench.failed += w.members
            bench.errors.append("traced runs of one seed disagree on exact counts")
    # Take every busy time from the traced run with the median engine.run
    # time, so the children and self time add up within one run.
    traced.sort(key=lambda r: r["sim_s"])
    rep = traced[len(traced) // 2]
    trace = rep["trace"]
    busy, calls, counts = trace["busy"], trace["calls"], trace["counts"]
    run_s = busy.get("engine.run", 0.0)
    self_s = run_s - trace["run_children_s"]
    balance = sum(busy.get(name, 0.0) for name in RUN_CHILDREN) + self_s - run_s
    assign_k = 0
    if calls.get("matching.assign"):
        assign_k = round(math.sqrt(counts["matching.assign.cells"] / calls["matching.assign"]))
    kernels = bench.child("kernels", "--assign-k", str(assign_k))
    pairs = counts.get("matching.pairs", 0)
    metrics = {
        "matching.rank.calls": calls.get("matching.rank", 0),
        "matching.rank.items": counts.get("matching.rank.items", 0),
        "matching.rank.busy_s": busy.get("matching.rank", 0.0),
        "matching.weights.cells": counts.get("matching.weights.cells", 0),
        "matching.weights.busy_s": busy.get("matching.weights", 0.0),
        "matching.distance.cells": counts.get("matching.distance.cells", 0),
        "matching.distance.busy_s": busy.get("matching.distance", 0.0),
        "matching.assign.calls": calls.get("matching.assign", 0),
        "matching.assign.cells": counts.get("matching.assign.cells", 0),
        "matching.assign.busy_s": busy.get("matching.assign", 0.0),
        "matching.pairs": pairs,
        "engine.success_ratio": counts.get("demographics.born.children", 0) / pairs if pairs else 0.0,
        "demographics.born.children": counts.get("demographics.born.children", 0),
        "demographics.born.busy_s": busy.get("demographics.born", 0.0),
        "engine.init.busy_s": busy.get("engine.init", 0.0),
        "engine.noise.draws": counts.get("engine.noise.draws", 0),
        "engine.noise.busy_s": busy.get("engine.noise", 0.0),
        "engine.self_s": self_s,
        "engine.run.busy_s": run_s,
        "engine.person_rounds": rep["person_rounds"],
        "engine.write.log_csv_s": busy.get("engine.write.log_csv", 0.0),
        "engine.write.grid_csv_s": busy.get("engine.write.grid_csv", 0.0),
        "engine.write.population_csv_s": busy.get("engine.write.population_csv", 0.0),
        "engine.write.bytes": counts.get("engine.write.bytes", 0),
        "cli.pool.efficiency": rep["sim_s"] / (w.jobs * statistics.median(r["wall_s"] for r in plain)),
        "tracing.overhead_s": rep["sim_s"] - statistics.median(r["sim_s"] for r in serial),
        **kernels,
    }
    print(f"trace balance: children + self - engine.run = {balance:.3g} s")
    print(f"absent spans: {trace['absent'] or 'none'}")
    print(f"traced runs: {len(traced)}")
    print(f"machine: {json.dumps(rep['machine'])}")
    print(f"digests: {json.dumps(bench.reference_digests)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Turn a termination request into an exit that runs the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "citysim" / "__init__.py").is_file():
        print("perfbench: no src/citysim here; run from the repository root", file=sys.stderr)
        return 2

    bench = Bench(args, root)
    try:
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for error in bench.errors:
        print(f"error: {error}")
    if not metrics:
        print("perfbench: no run of the workload completed", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
