"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single "criterion N: PASS/FAIL" line so a batch run can
be scanned at a glance. Heavy simulations are shared through module-scoped
fixtures; everything here drives the public API only, apart from the
analytic child expectation of the tests' oracle in criterion 3.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.stats import kstest, spearmanr

from citysim.analysis import classical_mds, kmeans
from citysim.cli import compare_matching, detect_plateau
from citysim.core import InteractionMatrix, TraitVector
from citysim.demographics import (
    DemographicsParams,
    born_batch,
    lifespan,
    mating_gap,
    mating_success_threshold,
)
from citysim.engine import init_population, run, write_run_outputs
from citysim.equilibrium import (
    BimatrixGame,
    pure_nash,
    support_enumeration_report,
    verify_equilibrium,
)
from citysim.matching import MatchMode
from citysim.presets import get_preset
from citysim.society import society_gradient, society_path
from dataclasses import replace
from reference import brute_force_pure, expected_child, oracle_equilibria


def report(num: int, ok: bool, label: str, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {verdict} - {label}{suffix}")


def test_criterion_01_assignment_exactness():
    # Integer-valued weights keep every permutation total exactly
    # representable, so the no-tolerance comparison is meaningful. The
    # solver is called exactly as the engine calls it.
    rng = np.random.default_rng(20_01)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for k in range(2, 7):
        perms = np.array(list(itertools.permutations(range(k))))
        W = rng.integers(-50, 51, size=(1000, k, k)).astype(np.float64)
        brute = W[:, np.arange(k)[None, :], perms].sum(-1).max(1)
        for i in range(1000):
            rows, cols = linear_sum_assignment(W[i], maximize=True)
            if W[i][rows, cols].sum() != brute[i]:
                ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, "assignment exactness", f"{checked} matrices, {elapsed:.1f}s")
    assert ok


def test_criterion_02_formula_fidelity():
    rng = np.random.default_rng(20_02)
    p = DemographicsParams()
    worst = 0.0
    for _ in range(1000):
        h = float(rng.uniform(-2.0, 16.0))
        hm, hf = rng.uniform(-2.0, 16.0, size=2)
        n = int(rng.integers(0, 5000))
        direct_lifespan = max(0.0, p.lifespan_a * (1.0 - p.lifespan_b * math.exp(-h)))
        direct_gap = p.gap_a / (max(h, 0.0) + p.gap_epsilon)
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        direct_threshold = p.success_a * n + max(
            1.0 - sig(p.success_scale * hm), 1.0 - sig(p.success_scale * hf)
        )
        worst = max(
            worst,
            abs(lifespan(h, p) - direct_lifespan),
            abs(mating_gap(h, p) - direct_gap),
            abs(mating_success_threshold(n, hm, hf, p) - direct_threshold),
        )
    at_edge = abs(lifespan(math.log(10.0), p))
    ok = worst <= 1e-12 and at_edge <= 1e-12
    report(2, ok, "formula fidelity", f"worst dev {worst:.2e}, L(ln 10) = {at_edge:.2e}")
    assert ok


def test_criterion_03_reproduction_statistics():
    rng = np.random.default_rng(20_03)
    father = TraitVector([0.4] * 8)
    mother = TraitVector([0.6] * 8)
    f, m = father.values[None, :], mother.values[None, :]
    draws = np.concatenate([born_batch(f, m, rng, DemographicsParams()) for _ in range(10_000)])

    copied = (draws == 0.4) | (draws == 0.6)
    copy_freq = copied.mean(axis=0)
    freq_ok = bool(np.all(np.abs(copy_freq - 0.9) <= 0.02))

    mutants = draws[~copied]
    ks = kstest(mutants, "uniform")
    ks_ok = ks.pvalue >= 0.01

    expected = expected_child(father, mother).values
    mc_dev = float(np.max(np.abs(draws.mean(axis=0) - expected)))
    mc_ok = mc_dev <= 0.005

    ok = freq_ok and ks_ok and mc_ok
    report(
        3,
        ok,
        "reproduction statistics",
        f"copy freq {copy_freq.min():.3f}..{copy_freq.max():.3f}, "
        f"KS p={ks.pvalue:.3f}, mean dev {mc_dev:.4f}",
    )
    assert ok


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(20_04)
    interaction = InteractionMatrix.default()
    lam = 1e-3
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        x_bar = rng.uniform(0.0, 1.0, size=8)
        theta = rng.uniform(0.3, 0.7, size=13)
        stepped = society_path(theta, x_bar, interaction, lam)[0]
        step_dir = (stepped - theta) / lam
        fd = np.empty(13)
        for j in range(13):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            fd[j] = (x_bar @ interaction.entries @ up - x_bar @ interaction.entries @ down) / (
                2 * eps
            )
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(step_dir - fd))) / scale)
        assert np.allclose(step_dir, society_gradient(x_bar, interaction), atol=1e-12)
    ok = worst <= 1e-6
    report(4, ok, "gradient check", f"worst relative dev {worst:.2e}")
    assert ok


def test_criterion_05_determinism(tmp_path):
    scenario = get_preset("matching-comparison", seed=123)
    for sub in ("a", "b"):
        log = run(scenario.config)
        write_run_outputs(log, scenario.config, tmp_path / sub, 0.0)
    same_logs = (tmp_path / "a" / "log.csv").read_bytes() == (
        tmp_path / "b" / "log.csv"
    ).read_bytes()

    base = scenario.config
    with_noise = replace(base, matching=replace(base.matching, mode=MatchMode.NOISY))
    init_a = init_population(base)
    init_b = init_population(with_noise)
    same_init = (
        np.array_equal(init_a.ids, init_b.ids)
        and np.array_equal(init_a.traits, init_b.traits)
        and np.array_equal(init_a.sex, init_b.sex)
    )
    ok = same_logs and same_init
    report(
        5,
        ok,
        "determinism",
        f"logs identical: {same_logs}, init stable under noise toggle: {same_init}",
    )
    assert ok


def test_criterion_06_equilibrium_audit():
    game = BimatrixGame.common_interest(InteractionMatrix.default())
    pure = pure_nash(game)
    pure_ok = set(pure) == set(brute_force_pure(game.A, game.B))

    rng = np.random.default_rng(20_06)
    games_ok = True
    for _ in range(100):
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        B = rng.uniform(-1.0, 1.0, size=(3, 3))
        small = BimatrixGame(A, B)
        found, _ = support_enumeration_report(small, max_support=3)
        if not all(verify_equilibrium(small, eq, tol=1e-9) for eq in found):
            games_ok = False
            break
        keys = [np.concatenate([eq.sigma_p, eq.sigma_s]) for eq in found]
        expected = oracle_equilibria(A, B)
        if len(keys) != len(expected):
            games_ok = False
            break
        for want in expected:
            if not any(np.max(np.abs(want - got)) < 1e-6 for got in keys):
                games_ok = False
                break

    equilibria, degeneracy = support_enumeration_report(game)
    # The reference counts (36 total, 4 pure) are reported, not required:
    # the printed matrix is not consistent with them, and the degeneracy
    # report documents what the enumeration had to skip.
    print(
        f"  audit: computed total {len(equilibria)} (reference 36), "
        f"pure {len(pure)} (reference 4); degeneracy: "
        f"{degeneracy.singular_systems} singular, "
        f"{degeneracy.zero_probability_solutions} zero-probability of "
        f"{degeneracy.examined_supports} examined"
    )
    ok = pure_ok and games_ok
    report(
        6,
        ok,
        "equilibrium audit",
        f"pure set matches oracle: {pure_ok}, 100 random games verified: {games_ok}",
    )
    assert ok


def test_criterion_07_crash_recovery():
    passes = 0
    slowest = 0.0
    for seed in range(5):
        scenario = get_preset("high-intellect-pop-in-criminal-city", seed=seed)
        t0 = time.perf_counter()
        log = run(scenario.config)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        pops = np.asarray(log.population)
        imin = int(np.argmin(pops))
        crashed = pops[imin] < 0.5 * pops[0]
        recovered = pops[-1] > 1.5 * pops[imin]
        happier = log.mean_happiness[-1] >= log.mean_happiness[imin]
        if crashed and recovered and happier:
            passes += 1
    ok = passes >= 3 and slowest <= 60.0
    report(
        7,
        ok,
        "crash-recovery reproduction",
        f"{passes}/5 seeds, slowest run {slowest:.1f}s",
    )
    assert ok


def test_criterion_08_matching_comparison(tmp_path):
    scenario = get_preset("matching-comparison")
    # Members run in parallel; test_jobs_do_not_change_results pins that the
    # pool leaves every result as a serial run has it.
    report_dict = compare_matching(scenario, 10, tmp_path, jobs=min(2, os.cpu_count() or 1))
    directions = report_dict["direction"]
    structural = (
        len(report_dict["per_run"]["optimal"]) == 10
        and len(report_dict["per_run"]["noisy"]) == 10
        and directions["convergent_happiness"]
        in ("noisy_higher", "optimal_higher", "equal")
        and directions["min_population"] in ("noisy_higher", "optimal_higher", "equal")
        and (tmp_path / "compare_matching.csv").exists()
    )
    # Soft checks only: the upstream account has noisy matching ending
    # happier with a shallower population drop, but that depended on
    # scenario vectors that were never published.
    # Each verdict carries the seed counts behind it and the sign-test p.
    def soft(metric: str) -> str:
        signs = report_dict["paired_signs"][metric]
        verdict = "PASS" if directions[metric] == "noisy_higher" else "FLAG"
        return (
            f"{verdict} (noisy higher in {signs['noisy_higher']}, lower in "
            f"{signs['optimal_higher']}, sign-test p {signs['sign_test_p']})"
        )

    print(
        f"  soft direction checks: convergent happiness {soft('convergent_happiness')}, "
        f"population drop {soft('min_population')}"
    )
    report(
        8,
        structural,
        "matching comparison harness",
        f"happiness {directions['convergent_happiness']}, "
        f"min population {directions['min_population']}",
    )
    assert structural


@pytest.fixture(scope="module")
def sweep_data():
    base = get_preset("lambda-sweep").config
    multipliers = (1.0, 3.0, 10.0, 30.0)
    t0 = time.perf_counter()
    rows = []
    for seed in (0, 1, 2):
        for mult in multipliers:
            config = replace(
                base, seed=seed, schedule=replace(base.schedule, multiplier=mult)
            )
            log = run(config)
            when, level = detect_plateau(log.times, log.mean_happiness, config.max_time)
            rows.append({"seed": seed, "multiplier": mult, "plateau": when, "level": level})
    return rows, time.perf_counter() - t0


def test_criterion_09_learning_rate_sweep(sweep_data):
    rows, _ = sweep_data
    all_detected = all(math.isfinite(r["plateau"]) for r in rows)
    rho = spearmanr(
        [r["multiplier"] for r in rows], [r["plateau"] for r in rows]
    ).statistic
    ok = all_detected and rho <= -0.5
    report(
        9,
        ok,
        "learning-rate sweep",
        f"plateaus detected {sum(math.isfinite(r['plateau']) for r in rows)}/12, "
        f"spearman rho {rho:.2f}",
    )
    assert ok


def test_criterion_10_locality_viability():
    scenario = get_preset("locality-grid-10x10")
    log = run(scenario.config)
    counts = log.block_population[-1]
    cv = counts.std() / counts.mean() if counts.mean() > 0 else math.inf
    occupied = int((counts > 0).sum())
    ok = log.population[-1] > 0 and cv > 0.3
    report(
        10,
        ok,
        "locality viability",
        f"final population {log.population[-1]}, {occupied}/{counts.size} blocks, CV {cv:.2f}",
    )
    assert ok


def test_criterion_11_analysis_correctness():
    rng = np.random.default_rng(20_11)
    planar = rng.normal(size=(50, 2)) * [3.0, 1.5]
    embedded = classical_mds(planar, out_dim=2)
    mds_dev = float(np.max(np.abs(cdist(planar, planar) - cdist(embedded, embedded))))
    mds_ok = mds_dev <= 1e-9

    blob_ok = True
    for draw in range(100):
        blob_rng = np.random.default_rng(30_000 + draw)
        a = blob_rng.normal(loc=(0.0, 0.0), scale=0.5, size=(20, 2))
        b = blob_rng.normal(loc=(5.0, 0.0), scale=0.5, size=(20, 2))
        result = kmeans(np.vstack([a, b]), 2, blob_rng)
        first, second = set(result.labels[:20]), set(result.labels[20:])
        if len(first) != 1 or len(second) != 1 or first == second:
            blob_ok = False
            break
    # kmeans asserts non-increasing inertia on every Lloyd iteration, so a
    # clean pass over the 100 draws also certifies the monotonicity claim.
    ok = mds_ok and blob_ok
    report(
        11,
        ok,
        "analysis correctness",
        f"mds distance dev {mds_dev:.1e}, blobs recovered: {blob_ok}",
    )
    assert ok


def test_criterion_12_desk_scale_performance(sweep_data):
    _, sweep_elapsed = sweep_data
    config = get_preset("baseline-mixed").config
    t0 = time.perf_counter()
    log = run(config)
    default_elapsed = time.perf_counter() - t0
    ok = default_elapsed < 60.0 and sweep_elapsed < 600.0 and log.status == "completed"
    report(
        12,
        ok,
        "desk-scale performance",
        f"default run {default_elapsed:.1f}s, sweep {sweep_elapsed:.0f}s",
    )
    assert ok
