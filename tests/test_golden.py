"""Byte-level pins on the files a run writes.

Each case runs one scenario to a short horizon, writes its outputs and
compares the sha256 of every deterministic file with tests/golden/
digests.json. Three longer cases reach the crowding plateau, where the
gate shuts for long idle stretches of rounds: baseline-mixed to t=300,
with and without a 10x10 grid, and high-intellect-pop-in-criminal-city,
on the dynamic schedule, to t=1000. summary.json is left out: its
"meta" block holds wall-clock values. A change that alters outputs on
purpose regenerates the digests of the cases it changes once, with
`PYTHONPATH=src python tests/test_golden.py --write CASE...` (all cases
when none is named), and says why in CHANGES.md. tests/golden/
presets.json pins the canned scenario text of every preset, and
tests/golden/experiments.json the tables two experiments write:
sweep_summary.csv of lambda-sweep to t=300 over multipliers 1, 3 and 30,
and compare_matching.csv and .json of matching-comparison to t=60 over 3
paired seeds. `--write` with no case named rewrites both. The outputs
must not depend on the BLAS thread count either, which a test checks in
child processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import citysim.engine as engine
from citysim.cli import compare_matching, sweep_lambda
from citysim.engine import run, write_run_outputs
from citysim.matching import MatchMode
from citysim.presets import PRESETS, get_preset
from citysim.scenario import dump_scenario

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
PRESET_GOLDEN = Path(__file__).parent / "golden" / "presets.json"
EXPERIMENT_GOLDEN = Path(__file__).parent / "golden" / "experiments.json"
HORIZON = 60.0
PLATEAU_HORIZON = 300.0
CITY_HORIZON = 1000.0
FILES = ("log.csv", "population_initial.csv", "population_final.csv", "grid_log.csv")


def _cases() -> dict:
    cases = {name: get_preset(name).config for name in PRESETS}
    comparison = cases["matching-comparison"]
    cases["matching-comparison+noisy"] = replace(
        comparison, matching=replace(comparison.matching, mode=MatchMode.NOISY)
    )
    cases["matching-comparison+partitioned"] = replace(
        comparison,
        matching=replace(
            comparison.matching, mode=MatchMode.PARTITIONED, partition_size=8, noise_sigma=0.5
        ),
    )
    baseline = cases["baseline-mixed"]
    cases["baseline-mixed+probabilistic"] = replace(
        baseline, demographics=replace(baseline.demographics, success_rule="probabilistic")
    )
    cases = {name: replace(config, max_time=HORIZON) for name, config in cases.items()}
    cases["baseline-mixed@300"] = replace(baseline, max_time=PLATEAU_HORIZON)
    # On a grid with a global crowding term: idle stretches and the cut
    # ranking run alongside the block column and the grid log.
    cases["baseline-mixed@300+grid"] = replace(baseline, max_time=PLATEAU_HORIZON, grid=(10, 10))
    city = get_preset("high-intellect-pop-in-criminal-city").config
    cases["high-intellect-pop-in-criminal-city@1000"] = replace(city, max_time=CITY_HORIZON)
    return cases


CASES = _cases()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(config, out_dir: Path) -> dict[str, str]:
    write_run_outputs(run(config), config, out_dir, 0.0)
    return {name: _sha256(out_dir / name) for name in FILES if (out_dir / name).exists()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert digests(CASES[case], tmp_path) == expected


def test_plateau_case_ranks_only_the_gate_prefix(tmp_path, monkeypatch):
    # On the plateau most active rounds rank fewer people than a side has
    # available, and the digests still hold.
    sides, ranks = [], []
    match, rank = engine._match_pairs, engine.rank_pair_indices

    def spy_match(roster, yi, zi, *args):
        sides.append((yi.size, zi.size))
        return match(roster, yi, zi, *args)

    def spy_rank(a, b):
        ranks.append((a.size, b.size))
        return rank(a, b)

    monkeypatch.setattr(engine, "_match_pairs", spy_match)
    monkeypatch.setattr(engine, "rank_pair_indices", spy_rank)
    case = "baseline-mixed@300"
    assert digests(CASES[case], tmp_path) == json.loads(GOLDEN.read_text())[case]
    assert len(ranks) == len(sides)
    cut = [r < s for ranked, side in zip(ranks, sides) for r, s in zip(ranked, side)]
    assert sum(cut) > len(cut) / 2


def test_plateau_case_buries_in_place(tmp_path, monkeypatch):
    # Each burial moves only the survivors born before the last death, so
    # on the plateau most burial steps move fewer than half the people the
    # roster holds, and the digests still hold.
    steps = []
    bury = engine.Roster.bury

    def spy_bury(roster, keep):
        lo, size = roster._lo, roster.size
        bury(roster, keep)
        # A survivor moved when its place in the buffer changed.
        before = lo + np.flatnonzero(keep)
        after = roster._lo + np.arange(before.size)
        steps.append((int((before != after).sum()), size))

    monkeypatch.setattr(engine.Roster, "bury", spy_bury)
    case = "baseline-mixed@300"
    assert digests(CASES[case], tmp_path) == json.loads(GOLDEN.read_text())[case]
    assert steps
    assert sum(2 * moved < size for moved, size in steps) > len(steps) / 2


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def preset_dumps() -> dict[str, str]:
    return {name: dump_scenario(get_preset(name)) for name in PRESETS}


def test_preset_definitions_match_golden():
    # Every run case overrides max_time, so only this pin sees each
    # preset's full definition, its own horizon included.
    assert preset_dumps() == json.loads(PRESET_GOLDEN.read_text())


def experiment_digests(out_dir: Path) -> dict[str, str]:
    sweep = get_preset("lambda-sweep")
    sweep = replace(sweep, config=replace(sweep.config, max_time=PLATEAU_HORIZON))
    sweep_lambda(sweep, [1.0, 3.0, 30.0], out_dir / "sweep", jobs=1)
    comparison = get_preset("matching-comparison")
    comparison = replace(comparison, config=replace(comparison.config, max_time=HORIZON))
    compare_matching(comparison, 3, out_dir / "compare", jobs=1)
    tables = (
        out_dir / "sweep" / "sweep_summary.csv",
        out_dir / "compare" / "compare_matching.csv",
        out_dir / "compare" / "compare_matching.json",
    )
    return {path.name: _sha256(path) for path in tables}


def test_experiment_tables_match_golden(tmp_path):
    assert experiment_digests(tmp_path) == json.loads(EXPERIMENT_GOLDEN.read_text())


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CASES = {"baseline-mixed@300": None, "matching-comparison+noisy": 200.0}
CHILD = """
import json, sys, tempfile
from dataclasses import replace
from pathlib import Path
from test_golden import CASES, digests
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, horizon in json.loads(sys.argv[1]).items():
        config = CASES[name] if horizon is None else replace(CASES[name], max_time=horizon)
        out[name] = digests(config, Path(tmp) / name)
print(json.dumps(out))
"""


def _digests_with_blas_threads(threads: int) -> dict:
    here = Path(__file__).parent
    path = os.pathsep.join((str(here.parent / "src"), str(here)))
    env = dict(os.environ, PYTHONPATH=path, **{name: str(threads) for name in BLAS_ENV})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(THREAD_CASES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_outputs_ignore_blas_thread_count():
    # Each setting runs in its own process: BLAS reads these variables once,
    # when it loads.
    one = _digests_with_blas_threads(1)
    assert sorted(one) == sorted(THREAD_CASES)
    assert _digests_with_blas_threads(2) == one


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write [CASE...]")
    names = sys.argv[2:]
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; choices: {sorted(CASES)}")

    # Named cases update the pinned table; no name rewrites it whole, and
    # the preset definitions and experiment tables with it.
    if not names:
        PRESET_GOLDEN.write_text(json.dumps(preset_dumps(), indent=2) + "\n")
        with tempfile.TemporaryDirectory() as tmp:
            table = experiment_digests(Path(tmp))
        EXPERIMENT_GOLDEN.write_text(json.dumps(table, indent=2) + "\n")
    table = json.loads(GOLDEN.read_text()) if names else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or sorted(CASES):
            table[name] = digests(CASES[name], Path(tmp) / name)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
