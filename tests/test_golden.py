"""Byte-level pins on the files a run writes.

Each case runs one scenario to a short horizon, writes its outputs and
compares the sha256 of every deterministic file with tests/golden/
digests.json. One longer case, baseline-mixed to t=300, reaches the
crowding plateau, where many rounds bear no child. summary.json is left
out: its "meta" block holds wall-clock values. A change that alters
outputs on purpose regenerates the file once, with
`PYTHONPATH=src python tests/test_golden.py --write`, and says why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from citysim.engine import run, write_run_outputs
from citysim.matching import MatchMode
from citysim.presets import get_preset, preset_names

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
HORIZON = 60.0
PLATEAU_HORIZON = 300.0
FILES = ("log.csv", "population_initial.csv", "population_final.csv", "grid_log.csv")


def _cases() -> dict:
    cases = {name: get_preset(name).config for name in preset_names()}
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
    return cases


CASES = _cases()


def digests(config, out_dir: Path) -> dict[str, str]:
    write_run_outputs(run(config), config, out_dir, 0.0)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in FILES
        if (out_dir / name).exists()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert digests(CASES[case], tmp_path) == expected


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(CASES[name], Path(tmp) / name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
