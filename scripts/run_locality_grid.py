"""Run the grid preset and summarize how population spreads over blocks."""

import argparse
import time
from pathlib import Path

import numpy as np

from citysim.engine import run, write_run_outputs
from citysim.presets import get_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="locality-grid-10x10")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("results/locality_grid"))
    args = parser.parse_args()

    scenario = get_preset(args.preset, seed=args.seed)
    t0 = time.perf_counter()
    log = run(scenario.config)
    write_run_outputs(log, scenario.config, args.out, time.perf_counter() - t0)

    # The grid log's last w * h rows are the final time's blocks; column 3
    # holds each block's population.
    w, h = scenario.config.grid
    counts = log.grid_rows[-w * h :, 3]
    occupied = counts[counts > 0]
    print(f"final population {log.population[-1]} across {occupied.size}/{w * h} blocks")
    print(
        f"occupied block sizes: min {occupied.min():.0f}, "
        f"median {np.median(occupied):.0f}, max {occupied.max():.0f}"
    )
    print(f"coefficient of variation over all blocks: {counts.std() / counts.mean():.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
