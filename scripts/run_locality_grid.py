"""Run the grid preset and summarize how population spreads over blocks."""

import argparse
from pathlib import Path

import numpy as np

from citysim.cli import simulate_scenario
from citysim.presets import get_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="locality-grid-10x10")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("results/locality_grid"))
    args = parser.parse_args()

    scenario = get_preset(args.preset, seed=args.seed)
    log, _ = simulate_scenario(scenario, args.out)

    # Each block's head count at the final logged round.
    counts = log.block_population[-1]
    occupied = counts[counts > 0]
    print(f"final population {log.population[-1]} across {occupied.size}/{counts.size} blocks")
    print(
        f"occupied block sizes: min {occupied.min():.0f}, "
        f"median {np.median(occupied):.0f}, max {occupied.max():.0f}"
    )
    print(f"coefficient of variation over all blocks: {counts.std() / counts.mean():.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
