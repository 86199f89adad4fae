"""Reproduce the crash-and-recovery trajectory across seeds.

For each seed the misaligned preset (a high-intellect population dropped
into a city tuned against it) is run to completion, and the script reports
the population minimum, the recovery ratio, and whether mean happiness at
the end clears its value at the trough.
"""

import argparse
from pathlib import Path

import numpy as np

from citysim.cli import simulate_scenario
from citysim.presets import get_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="high-intellect-pop-in-criminal-city")
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds, from 0")
    parser.add_argument("--out", type=Path, default=Path("results/crash_recovery"))
    args = parser.parse_args()

    recovered = 0
    for seed in range(args.seeds):
        scenario = get_preset(args.preset, seed=seed)
        log, _ = simulate_scenario(scenario, args.out / f"seed-{seed}")

        pops = np.asarray(log.population)
        trough = int(np.argmin(pops))
        crash = pops[trough] / pops[0]
        recovery = pops[-1] / max(int(pops[trough]), 1)
        happier = log.mean_happiness[-1] >= log.mean_happiness[trough]
        hit = crash < 0.5 and recovery > 1.5 and happier
        recovered += hit
        print(
            f"seed {seed}: start {pops[0]}, trough {pops[trough]} "
            f"(x{crash:.2f} at t={log.times[trough]:.0f}), final {pops[-1]} "
            f"(x{recovery:.2f}), happier at end: {happier}"
            f"{' [crash+recovery]' if hit else ''}"
        )
    print(f"{recovered}/{args.seeds} seeds show the full crash-recovery shape")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
