"""One benchmark step in a fresh process.

    child.py setup    --workload W --seed S --t0 T
    child.py workload --workload W --seed S --t0 T --out DIR --jobs J [--trace]
    child.py kernels  --workload W --seed S --t0 T --assign-k K

`setup` does what every command does before its first round (import the
CLI, build the preset, init_population) and reports the time since T, the
parent's clock reading just before it started this process. `workload` runs
the workload's command once through citysim.cli, times it next to a fixed
reference task, then checks and digests the outputs. `kernels` times single
layer calls at fixed sizes. run.py starts
this script with citysim's src/ on PYTHONPATH and the BLAS thread count
pinned; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

DIGESTED = ("log.csv", "population_final.csv", "grid_log.csv")
WRITE_ROUNDS = 3
REF_REPS = 7  # reference repeats before and after the command


def _scenario(args, member: int = 0):
    """The workload's preset at its horizon. Seeds --seed * seeds onwards
    belong to one benchmark seed, so two benchmark seeds share no inputs."""
    from citysim.presets import get_preset

    w = WORKLOADS[args.workload]
    scenario = get_preset(w.preset, seed=args.seed * w.seeds + member)
    return replace(scenario, config=replace(scenario.config, max_time=w.horizon))


def setup(args) -> dict:
    from citysim import cli  # noqa: F401  (the import every command pays)
    from citysim.engine import init_population

    init_population(_scenario(args).config)
    return {"setup_s": time.perf_counter() - args.t0}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_s(reps: int) -> float:
    """Median time of a fixed task that shares no code with citysim: scoring,
    a stable sort, masking and a mean on a 4000x8 array, then float
    formatting. On a 2-vCPU cloud VM shared with other tenants, each vCPU
    ran it in about 13 ms or about 20 ms, as load on the other hyperthread of
    its core came and went, and the share of slow time drifted over minutes.
    A time divided by this one, measured in the same process next to it,
    loses most of that swing."""
    rng = np.random.default_rng(0)
    traits, gain = rng.random((4000, 8)), rng.random(8)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(20):
            score = traits @ gain
            order = np.argsort(-score, kind="stable")
            keep = traits[score > 0.5 * score.max()]
            np.concatenate([keep, traits[order[:500]]]).mean(axis=0)
        ",".join(repr(float(v)) for v in traits[:500].ravel())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_on(cpus, reps: int) -> float:
    """Mean of reference_s measured on each of `cpus` in turn; the process's
    CPU affinity is restored afterwards."""
    mask = os.sched_getaffinity(0)
    try:
        values = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            values.append(reference_s(reps))
    finally:
        os.sched_setaffinity(0, mask)
    return sum(values) / len(values)


def workload(args) -> dict:
    from citysim import cli, engine
    from citysim.core import ConsistencyError

    w = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = Tracer(detail=args.trace, spill_dir=out / "spill")
    tracer.install(engine, cli)

    # The machine's speed differs between CPUs, so the reference must run
    # where the timed work runs. A single-process command is pinned to one
    # CPU with its reference; a pooled one spreads over all of them, so its
    # reference is the mean over all.
    machine = _machine()
    cpus = sorted(os.sched_getaffinity(0))
    home = {cpus[os.getpid() % len(cpus)]}
    ref_cpus = cpus if args.jobs > 1 else home
    if args.jobs == 1:
        os.sched_setaffinity(0, home)
    ref_before = reference_on(ref_cpus, REF_REPS)
    if w.command == "simulate":
        members = []
        for j in range(w.seeds):
            scenario = _scenario(args, j)
            log, _ = cli.simulate_scenario(scenario, out / "write-command" / f"member-{j}")
            members.append((scenario.config, log))
    else:
        cli.compare_matching(_scenario(args), w.seeds, out / "compare", args.jobs)
        members = tracer.members
    ref = (ref_before + reference_on(ref_cpus, REF_REPS)) / 2
    os.sched_setaffinity(0, home)
    tracer.merge_spills()

    # compare-matching writes only its report, so the members' files are
    # written here to digest them; a simulate run's are written again. One
    # write round is short, so its time flips with the machine's state: each
    # round is divided by a reference measured just before it.
    rounds = WRITE_ROUNDS if not args.trace else 0 if w.command == "simulate" else 1
    write_s, write_ref = [], []
    for k in range(rounds):
        round_ref = reference_s(5)
        start = time.perf_counter()
        for i, (config, log) in enumerate(members):
            engine.write_run_outputs(log, config, out / f"write-{k}" / f"member-{i}", 0.0)
        write_s.append(time.perf_counter() - start)
        write_ref.append(write_s[-1] / round_ref)

    errors, digests, person_rounds = [], [], 0
    for i, (_, log) in enumerate(members):
        person_rounds += int(log.population[1:].sum())
        try:
            log.validate_conservation()
        except ConsistencyError as exc:
            errors.append(f"member {i}: {exc}")
        if log.status != "completed":
            errors.append(f"member {i}: status {log.status}")
        files = [
            {name: _sha256(d / name) for name in DIGESTED if (d / name).exists()}
            for d in sorted(out.glob(f"write-*/member-{i}"))
        ]
        if any(f != files[0] for f in files):
            errors.append(f"member {i}: rewriting the same log gave different files")
        digests.append(files[0])

    trace = tracer.summary()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "citysim": cli.__file__,
        "machine": machine,
        "errors": errors,
        "digests": digests,
        "person_rounds": person_rounds,
        "ref_s": ref,
        "wall_s": trace["busy"]["cli.command"],
        "sim_s": trace["busy"].get("engine.run", 0.0),
        "write_s": statistics.median(write_s) if write_s else None,
        "write_ref": statistics.median(write_ref) if write_ref else None,
        "peak_rss_mb": rss_kb / 1024.0,
        "trace": trace,
    }


def _median_time(fn, budget_s: float = 0.3, max_reps: int = 200) -> float:
    fn()  # warm caches and lazy imports
    times = []
    spent = 0.0
    while len(times) < 5 or (spent < budget_s and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    times.sort()
    return times[len(times) // 2]


def kernels(args) -> dict:
    """rank_pair_indices at N = 1k, 4.5k and 9k people (half per side), and
    linear_sum_assignment at the workload's mean k on the matrix its mode
    builds: expected_pair_weights minus gamma * grid distance (locality), or
    plus N(0, sigma) noise (noisy). Inputs come from the benchmark seed."""
    from scipy.optimize import linear_sum_assignment

    from citysim.matching import MatchMode, expected_pair_weights, grid_distances, rank_pair_indices

    config = _scenario(args).config
    rng = np.random.default_rng(args.seed)
    gain = config.interaction.entries @ config.theta0.values
    dim = config.interaction.individual_dim
    result = {}
    for n in (1000, 4500, 9000):
        scores = rng.random((n, dim)) @ gain
        a, b = scores[: n // 2], scores[n // 2 :]
        half = n // 2
        result[f"kernel.rank.n{n}.busy_s"] = _median_time(lambda: rank_pair_indices(a, b))
        # two stable sorts of `half` keys
        result[f"kernel.rank.n{n}.ops"] = 2 * half * math.log2(half)

    k = args.assign_k
    result["kernel.assign.k"] = k
    result["kernel.assign.ops"] = k**3
    result["kernel.assign.busy_s"] = 0.0
    if k:
        m = config.matching
        W = expected_pair_weights(
            rng.random((k, dim)), rng.random((k, dim)), gain, config.demographics.mutation_prob
        )
        if m.mode is MatchMode.LOCALITY:
            loc = rng.integers(0, np.asarray(config.grid), size=(2 * k, 2))
            W = W - m.gamma * grid_distances(loc[:k], loc[k:], m.distance)
        else:
            W = W + rng.normal(0.0, m.noise_sigma, size=W.shape)
        result["kernel.assign.busy_s"] = _median_time(
            lambda: linear_sum_assignment(W, maximize=True), budget_s=1.0, max_reps=50
        )
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "workload", "kernels"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--assign-k", type=int, default=0)
    args = parser.parse_args()
    step = {"setup": setup, "workload": workload, "kernels": kernels}[args.mode]
    print(json.dumps(step(args)))


if __name__ == "__main__":
    sys.exit(main())
