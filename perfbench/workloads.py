"""The benchmark's workloads: which citysim command each one runs, on which
preset, at which horizon. README.md beside this file says why each exists
and which layer it isolates.

This module imports nothing from citysim, so run.py can read it without
loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate" or "compare-matching"
    preset: str
    horizon: float  # max_time override
    seeds: int = 1  # scenario seeds per command run
    jobs: int = 1

    @property
    def members(self) -> int:
        """engine.run calls per command run: compare-matching pairs each
        seed's optimal run with a noisy one; simulate runs once per seed."""
        return 2 * self.seeds if self.command == "compare-matching" else self.seeds


WORKLOADS: dict[str, Workload] = {
    # Rank pairing and run() self time; the assignment solver never runs.
    "optimal-growth": Workload("simulate", "baseline-mixed", 2000.0),
    # Assignment solver and grid distances; ranking never runs.
    "locality-grid": Workload("simulate", "locality-grid-10x10", 500.0, seeds=8),
    # Noise matrices, small-N optimal rounds and the 2-worker process pool.
    "noisy-compare": Workload("compare-matching", "matching-comparison", 200.0, seeds=8, jobs=2),
}
