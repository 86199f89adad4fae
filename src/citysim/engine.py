"""Round-based simulation engine.

Runs the co-evolution loop: at every mating round expired persons are
buried, the available males and females are paired under the configured
matching mode, successful pairs each bear one child, and the society vector
takes one ascent step. Everything stochastic draws from a named substream
of the master seed, so switching one feature (say, matching noise) on or
off never perturbs the draws of the others. Round k's matching noise and
partitions draw from a generator keyed by (seed, stream, k), the rest in
sequence.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import ConfigurationError, ConsistencyError, InteractionMatrix, TraitVector, _store
from .core import require_choice, require_int, require_real
from .core import _write_csv, _write_json
from .demographics import (
    DemographicsParams,
    born_batch,
    lifespan,
    mating_gap,
    mating_opening_time,
    mating_succeeds,
    reaches_crowding_bar,
)
from .matching import MatchMode, expected_pair_weights, grid_distances, rank_pair_indices, score
from .society import LearningRateSchedule, society_path, trait_gain


def _assignment_solver():
    """scipy's linear_sum_assignment, loaded from its own extension module.

    `from scipy.optimize import linear_sum_assignment` runs scipy.optimize's
    __init__, which pulls in scipy.linalg, sparse, spatial, special and more,
    none of which a run uses; that import was most of the start-up time and
    memory of every command. The solver lives alone in the extension module
    scipy.optimize._lsap, so that module is loaded by itself, through
    importlib's standard machinery, and registered in sys.modules under its
    own name, or reused when it is there already. A later `import
    scipy.optimize` then imports that same module object, so both names are
    one function. _lsap is private to scipy: where no such extension exposes
    the solver, the public import is the fallback."""
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    package = importlib.util.find_spec("scipy")
    if module is None and package is not None:
        folder = Path(package.submodule_search_locations[0], "optimize")
        spec = FileFinder(str(folder), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    solve = getattr(module, "linear_sum_assignment", None)
    if solve is None:
        from scipy.optimize import linear_sum_assignment as solve
    return solve


linear_sum_assignment = _assignment_solver()

__all__ = [
    "PERSON_COLUMNS",
    "PopulationGroup",
    "MatchingConfig",
    "SimConfig",
    "TimeSeriesLog",
    "Roster",
    "named_stream",
    "init_population",
    "run",
    "write_population_csv",
    "write_run_outputs",
]

# The leading columns of a population snapshot CSV; the trait columns follow.
PERSON_COLUMNS = (
    "id", "sex", "birth_time", "death_time", "next_available_time", "happiness", "gx", "gy",
)


def _log_header(trait_names: Sequence[str], society_names: Sequence[str]) -> list[str]:
    """The columns of log.csv: the fixed ones, then theta and the mean traits by name."""
    return [
        "time", "population", "births", "deaths", "total_happiness", "mean_happiness",
        "mean_current_happiness",
        *(f"theta_{n}" for n in society_names),
        *(f"mean_{n}" for n in trait_names),
    ]


# Fixed spawn keys: each name owns one independent substream of the master
# seed. Adding new names at the end keeps existing streams stable.
_STREAM_IDS = {
    "init": 0,
    "sex": 1,
    "born": 2,
    "noise": 3,
    "partition": 4,
    "location": 5,
    "success": 6,
}
# Drawn in sequence for the whole run; noise and partition use _round_stream.
_SEQUENCE_STREAMS = ("init", "sex", "born", "location", "success")


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named draw purpose under a master seed."""
    try:
        key = _STREAM_IDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown stream name {name!r}; choices: {sorted(_STREAM_IDS)}"
        ) from None
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _round_stream(seed: int, name: str, k: int) -> np.random.Generator:
    """Round k's generator for one named purpose, whether or not earlier rounds drew."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_IDS[name], k)))


@dataclass(frozen=True)
class PopulationGroup:
    """One founding subpopulation: count draws from N(mean, diag(std^2))."""

    count: int
    mean: TraitVector
    std: tuple[float, ...] | float = 0.1

    def __post_init__(self) -> None:
        count = require_int(self.count, "count", 0)
        mean = self.mean if isinstance(self.mean, TraitVector) else TraitVector(self.mean)
        if isinstance(self.std, (list, tuple, np.ndarray)):
            std = tuple(require_real(s, f"std[{k}]", 0.0) for k, s in enumerate(self.std))
        else:
            std = (require_real(self.std, "std", 0.0),) * mean.dim
        if len(std) != mean.dim:
            raise ConfigurationError(f"std has {len(std)} entries for a {mean.dim}-trait mean")
        _store(self, count=count, mean=mean, std=std)


@dataclass(frozen=True)
class MatchingConfig:
    """Which matching variant runs each round, and its knobs."""

    mode: MatchMode = MatchMode.OPTIMAL
    gamma: float = 1.0
    partition_size: int = 10
    noise_sigma: float = 1.0
    distance: str = "hamming"

    def __post_init__(self) -> None:
        _store(
            self,
            mode=require_choice(self.mode, MatchMode, "mode"),
            gamma=require_real(self.gamma, "gamma", 0.0),
            partition_size=require_int(self.partition_size, "partition_size", 1),
            noise_sigma=require_real(self.noise_sigma, "noise_sigma", 0.0),
            distance=require_choice(self.distance, ("hamming", "manhattan"), "distance"),
        )
        # A Generator's standard normal draw stays below 13.8 in magnitude:
        # its ziggurat tail returns r + -log1p(-u) / r, with r ~ 3.654 and
        # u <= 1 - 2^-53. So every noise draw, and every weight it is added
        # to, stays finite when 16 * noise_sigma does.
        if not math.isfinite(16 * self.noise_sigma):
            raise ConfigurationError(
                f"noise_sigma {self.noise_sigma} overflows the matching noise: "
                "16 * noise_sigma must be finite"
            )


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run."""

    seed: int
    groups: tuple[PopulationGroup, ...]
    theta0: TraitVector
    interaction: InteractionMatrix = field(default_factory=InteractionMatrix.default)
    demographics: DemographicsParams = field(default_factory=DemographicsParams)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    schedule: LearningRateSchedule = field(default_factory=LearningRateSchedule)
    mating_period: float = 1.0
    max_time: float = 10_000.0
    grid: tuple[int, int] | None = None
    log_every: int = 1
    success_pop_scope: str = "global"

    def __post_init__(self) -> None:
        seed = require_int(self.seed, "seed", 0)
        if seed >= 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
        groups = tuple(self.groups)
        if not groups:
            raise ConfigurationError("at least one population group is required")
        founders = sum(g.count for g in groups)
        if founders == 0:
            raise ConfigurationError("initial population is empty across all groups")
        if founders >= 2**63:
            raise ConfigurationError(
                f"population: {founders} founders in all do not fit int64 ids"
            )
        theta0 = self.theta0 if isinstance(self.theta0, TraitVector) else TraitVector(self.theta0)
        if theta0.dim != self.interaction.society_dim:
            raise ConfigurationError(
                f"theta0 has {theta0.dim} traits, interaction matrix expects "
                f"{self.interaction.society_dim}"
            )
        for g in groups:
            if g.mean.dim != self.interaction.individual_dim:
                raise ConfigurationError(
                    f"group mean has {g.mean.dim} traits, interaction matrix "
                    f"expects {self.interaction.individual_dim}"
                )
        _store(
            self,
            seed=seed,
            groups=groups,
            theta0=theta0,
            mating_period=require_real(self.mating_period, "mating_period", 0.0, above=True),
            max_time=require_real(self.max_time, "max_time", 0.0),
            log_every=require_int(self.log_every, "log_every", 1),
            success_pop_scope=require_choice(
                self.success_pop_scope, ("global", "block"), "success_pop_scope"
            ),
        )
        if not math.isfinite(self.max_time / self.mating_period):
            raise ConfigurationError(
                f"max_time / mating_period must be a finite round count, got "
                f"{self.max_time} / {self.mating_period}"
            )
        if self.grid is not None:
            if not isinstance(self.grid, (list, tuple, np.ndarray)):
                raise ConfigurationError(f"grid: expected [width, height], got {self.grid!r}")
            grid = tuple(require_int(v, f"grid[{k}]") for k, v in enumerate(self.grid))
            if len(grid) != 2 or min(grid) < 1 or grid[0] * grid[1] >= 2**63:
                raise ConfigurationError(
                    f"grid must be two dimensions >= 1 with int64 block codes, got {grid}"
                )
            _store(self, grid=grid)
        if self.matching.mode is MatchMode.LOCALITY:
            if self.grid is None:
                raise ConfigurationError("locality matching requires a grid")
            # The largest block distance: two opposite corners are the farthest pair.
            w, h = self.grid
            far = int(grid_distances([[0, 0]], [[w - 1, h - 1]], self.matching.distance)[0, 0])
            if not math.isfinite(self.matching.gamma * far):
                raise ConfigurationError(
                    f"gamma {self.matching.gamma} times the largest block distance {far} "
                    "overflows the locality penalty"
                )
        if self.success_pop_scope == "block" and self.grid is None:
            raise ConfigurationError("block-scoped mating success requires a grid")
        # Trait names and society names are unique, and only a mean_ column
        # of log.csv can repeat a fixed one.
        names = self.interaction.row_names
        log_header = _log_header(names, self.interaction.col_names)
        for name in names:
            if log_header.count(f"mean_{name}") > 1 or name in PERSON_COLUMNS:
                raise ConfigurationError(
                    f"trait name {name!r} repeats a column of log.csv or the population snapshots"
                )
        flex = self.schedule.flexibility_trait_index
        if self.schedule.kind == "dynamic" and flex >= self.interaction.individual_dim:
            raise ConfigurationError(
                f"schedule.flexibility_trait_index {flex} out of range for "
                f"{self.interaction.individual_dim} individual traits"
            )


@dataclass
class TimeSeriesLog:
    """Per-round record of the run, plus the initial and final rosters.

    run() writes each round into numpy columns (head count, running totals of
    births and deaths, total happiness, theta, mean traits, each block's head
    count and happiness sum). The log keeps t=0, every log_every-th round and
    the last, where a dying run stops, and derives the rest from those rows:
    times, means, and births and deaths as differences of the totals, each
    counting every round since the previous kept row. theta and happiness are
    as of the end of the row's round; with nobody alive, the means are nan.

    On a w x h grid, block_population and block_mean_happiness (rows, w, h)
    hold each block's head count and mean happiness, 0 and nan when empty;
    [r, gx, gy] is block code gx * h + gy. Both are None without a grid.
    """

    times: np.ndarray
    population: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    total_happiness: np.ndarray
    mean_happiness: np.ndarray
    mean_current_happiness: np.ndarray
    theta: np.ndarray
    mean_traits: np.ndarray
    block_population: np.ndarray | None
    block_mean_happiness: np.ndarray | None
    trait_names: tuple[str, ...]
    society_names: tuple[str, ...]
    status: str
    initial_population: Roster
    final_population: Roster

    def validate_conservation(self) -> None:
        pops, births, deaths = self.population, self.births, self.deaths
        for i in range(1, len(pops)):
            if pops[i] != pops[i - 1] + births[i] - deaths[i]:
                raise ConsistencyError(
                    f"row {i}: population {pops[i]} != {pops[i - 1]} + "
                    f"{births[i]} - {deaths[i]}"
                )

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, _log_header(self.trait_names, self.society_names), [
            self.times, self.population, self.births, self.deaths, self.total_happiness,
            self.mean_happiness, self.mean_current_happiness, *self.theta.T, *self.mean_traits.T,
        ])

    def write_grid_csv(self, path: str | Path) -> None:
        if self.block_population is None:
            raise ConfigurationError("this run has no grid log (it ran without a grid)")
        rows, w, h = self.block_population.shape
        t = np.repeat(self.times, w * h)
        xy = np.tile(_block_xy((w, h)), rows)
        blocks = (self.block_population.ravel(), self.block_mean_happiness.ravel())
        _write_csv(path, ["time", "gx", "gy", "population", "mean_happiness"], [t, *xy, *blocks])

    def summary(self) -> dict:
        last = len(self.times) - 1
        return {
            "status": self.status,
            "final_time": float(self.times[last]),
            "rows_logged": int(len(self.times)),
            "final_population": int(self.population[last]),
            "final_mean_happiness": float(self.mean_happiness[last]),
            "final_theta": [float(v) for v in self.theta[last]],
            "total_births": int(self.births.sum()),
            "total_deaths": int(self.deaths.sum()),
        }


# When add_born reaches the end of the buffers, the window slides back to
# their front if they hold this many times the live people; otherwise they
# are replaced by buffers of that capacity. Either way about a third of the
# capacity is left as slack, which keeps the copying per appended person
# bounded.
_GROWTH = 1.5


class Roster:
    """Columnar population store: id, sex (0 male, 1 female), traits,
    frozen happiness, birth/death/next-available times and, on a w x h
    grid, the home block as one code gx * h + gy (None without a grid).
    The last axis of every array is the person: traits is a (dim, n) array
    with a row per trait, and the rest are (n,). Ids ascend along that
    axis, so a stable sort breaks ties by id.

    Each column is a view of the window [lo, hi) of a buffer whose last
    axis, the capacity, has slack on either side. In place and in roster
    order, bury advances the window's start and add_born its end,
    gathering the newborns who outlive their birth straight into the slack
    after the window, so births build no roster of their own. A roster is
    made in one of two ways: the constructor adopts its arrays as the
    buffers, window and all, as init_population does with the founders'
    columns, and take copies a subset. Built from C-contiguous traits, as
    both build them, each trait row stays contiguous, with a row stride of
    the capacity, so mean_traits sums the same bits as over a compact copy.
    A pickle holds only the live people."""

    COLUMNS = ("ids", "sex", "traits", "happiness", "birth", "death", "avail", "block")
    __slots__ = (*COLUMNS, "_buffers", "_lo", "_hi")

    def __init__(self, ids, sex, traits, happiness, birth, death, avail, block):
        self._buffers = (ids, sex, traits, happiness, birth, death, avail, block)
        self._lo, self._hi = 0, ids.shape[0]
        self._view()

    def _view(self) -> None:
        """Point every column at the window."""
        for name, buf in zip(self.COLUMNS, self._buffers):
            setattr(self, name, None if buf is None else buf[..., self._lo : self._hi])

    def __reduce__(self):
        return Roster, tuple(getattr(self, name) for name in self.COLUMNS)

    @property
    def size(self) -> int:
        return self._hi - self._lo

    def mean_traits(self) -> np.ndarray:
        """The mean trait vector, all nan when nobody is alive. Each trait's
        mean is a pairwise sum along its contiguous row, divided by the
        head count: the ufuncs ndarray.mean runs, so the same bits as that
        row's own mean, without the cost of its Python wrapper."""
        n = self.size
        if n:
            return np.add.reduce(self.traits, axis=1) / n
        return np.full(self.traits.shape[0], np.nan)

    def take(self, keep: np.ndarray) -> "Roster":
        """The people where keep is true, as a new roster with copied arrays."""
        idx = np.flatnonzero(keep)
        columns = (getattr(self, name) for name in self.COLUMNS)
        return Roster(*(None if col is None else col.take(idx, axis=-1) for col in columns))

    def bury(self, keep: np.ndarray) -> None:
        """Drop the people where keep is false, in place and in order.

        The survivors born before the last death shift up against it, and
        the window's start advances by the number dead; the rest keep their
        slots. So a burial moves at most the survivors born before the last
        death, while its mask, keep, spans the whole roster anyway."""
        dead = np.flatnonzero(~keep)
        if not dead.size:
            return
        last, lo = int(dead[-1]), self._lo
        src = lo + np.flatnonzero(keep[:last])
        self._lo = lo + dead.size
        for buf in self._buffers:
            if buf is not None:
                buf[..., self._lo : lo + last + 1] = buf.take(src, axis=-1)
        self._view()

    def add_born(
        self, first_id: int, t: float, avail: float, sex: np.ndarray, traits: np.ndarray,
        happiness: np.ndarray, death: np.ndarray, block: np.ndarray | None,
    ) -> int:
        """Gather the people born at t who outlive it into the slack after
        the window: of the newborns with ids first_id on, one per entry of
        death, with their sex, (dim, n) traits, happiness, death time and
        home block (None without a grid), those whose death is after t join,
        born at t and first available at avail. Returns how many joined.
        first_id must exceed this roster's ids."""
        idx = np.flatnonzero(death > t)
        m = idx.size
        if self.size and m and first_id <= self.ids[-1]:
            raise ConsistencyError(
                f"roster ids must ascend: adding id {first_id} after {self.ids[-1]}"
            )
        self._reserve(m)
        lo, hi = self._hi, self._hi + m
        ids, sex_buf, traits_buf, happiness_buf, birth_buf, death_buf, avail_buf, block_buf = (
            self._buffers
        )
        np.add(idx, first_id, out=ids[lo:hi])
        # A child's traits are one contiguous row of traits.T, as born_batch
        # makes them, so a row gather copies each child once; a take along
        # traits' last axis would also copy through two temporaries.
        traits_buf[:, lo:hi] = traits.T.take(idx, axis=0).T
        columns = ((sex_buf, sex), (happiness_buf, happiness), (death_buf, death))
        for buf, col in (*columns, (block_buf, block)):
            if buf is not None:
                # mode="clip" gathers straight into the slack; every index is in range.
                col.take(idx, out=buf[lo:hi], mode="clip")
        birth_buf[lo:hi] = t
        avail_buf[lo:hi] = avail
        self._hi = hi
        self._view()
        return m

    def _reserve(self, m: int) -> None:
        """Room for m more people after the window: when the buffers end
        too soon, the window moves to their front, into new buffers if
        they hold fewer than _GROWTH times the people then live."""
        n, capacity = self.size, self._buffers[0].shape[0]
        if self._hi + m > capacity:
            need = n + m
            if need * _GROWTH > capacity:
                capacity = int(need * _GROWTH)
            self._buffers = tuple(
                None if buf is None else self._to_front(buf, capacity) for buf in self._buffers
            )
            self._lo, self._hi = 0, n

    def _to_front(self, buf: np.ndarray, capacity: int) -> np.ndarray:
        """buf with the window moved to its front: slid within buf when
        capacity is buf's own, else copied into a new buffer of capacity."""
        window = buf[..., self._lo : self._hi]
        if capacity != buf.shape[-1]:
            buf = np.empty(buf.shape[:-1] + (capacity,), dtype=buf.dtype)
        buf[..., : window.shape[-1]] = window
        return buf


def _birth(
    traits: np.ndarray,
    t: float,
    gain: np.ndarray,
    config: SimConfig,
    streams: dict[str, np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The birth rule for people born at t with the given (dim, n) traits:
    their sexes (int8, 0 male, 1 female), drawn uniformly from the "sex"
    stream, one draw per person, the dead at birth included; their
    happiness, frozen against gain; their deaths, at t + L(h); and the
    time they first become available, once they have matured. Founders
    are newborns at t=0 and children are newborns at their round's t."""
    d = config.demographics
    happiness = score(traits, gain)
    sex = streams["sex"].integers(0, 2, size=traits.shape[1]).astype(np.int8)
    death = t + lifespan(happiness, d)
    return sex, happiness, death, t + d.maturity_age * config.mating_period


def init_population(
    config: SimConfig, streams: dict[str, np.random.Generator] | None = None
) -> Roster:
    """Founding roster at t=0, drawn from streams (by default the named
    streams of config.seed).

    Traits draw per coordinate from each group's normal (then clip into
    [0, 1]) on the "init" stream, group by group; home blocks draw in one
    batch of (gx, gy) rows on the "location" stream. The founders are then
    newborns at t=0 under theta0: _birth gives their other columns, and
    the Roster constructor adopts them all, any founder dead at birth
    included. Rows are in group order, and ids are row numbers, so id
    ranges identify the founding groups.
    """
    if streams is None:
        streams = {name: named_stream(config.seed, name) for name in _SEQUENCE_STREAMS}
    blocks = []
    for group in config.groups:
        raw = streams["init"].normal(
            loc=group.mean.values, scale=np.asarray(group.std), size=(group.count, group.mean.dim)
        )
        blocks.append(np.clip(raw, 0.0, 1.0))
    traits = np.ascontiguousarray(np.concatenate(blocks).T)
    n = traits.shape[1]
    block = None
    if config.grid is not None:
        high = np.asarray(config.grid, dtype=np.int64)
        gx, gy = streams["location"].integers(0, high, size=(n, 2)).T
        block = gx * high[1] + gy
    gain = trait_gain(config.theta0, config.interaction)
    sex, happiness, death, avail = _birth(traits, 0.0, gain, config, streams)
    ids, birth = np.arange(n, dtype=np.int64), np.zeros(n)
    return Roster(ids, sex, traits, happiness, birth, death, np.full(n, avail), block)


def _block_xy(grid: tuple[int, int]) -> np.ndarray:
    """(2, w * h) rows gx and gy of every block code in order: code c is
    block divmod(c, h)."""
    return np.stack(np.divmod(np.arange(grid[0] * grid[1]), grid[1]))


def _block_penalty(config: SimConfig) -> np.ndarray:
    """gamma times the grid distance between every two blocks, indexed by
    block code. Entry (i, j) equals gamma * grid_distances of one person in
    block i and one in block j, so looking it up costs no rounding."""
    blocks = _block_xy(config.grid).T
    return config.matching.gamma * grid_distances(blocks, blocks, config.matching.distance)


class _CostBuffers:
    """The float64 cells that the assignment rounds of one run() reuse: one
    buffer for each solve's cost matrix, written by one
    expected_pair_weights call, and one for the term added to it, the
    round's noise or its negated locality penalty. So a round neither
    allocates nor faults in fresh k x k arrays. A buffer grows only when a
    round needs more cells than it holds, to at least twice its size,
    since k grows with the population; cells that are never written are
    never made resident. A pickle holds no cells: every round writes the
    cells it reads."""

    def __init__(self) -> None:
        self._cost = self._aux = np.empty(0)

    def __reduce__(self):
        return _CostBuffers, ()

    @staticmethod
    def _fit(buf: np.ndarray, cells: int) -> np.ndarray:
        return buf if buf.size >= cells else np.empty(max(cells, 2 * buf.size))

    def cost(self, rows: int, cols: int) -> np.ndarray:
        """A C-ordered (rows, cols) view of the cost cells, contents stale."""
        self._cost = self._fit(self._cost, rows * cols)
        return self._cost[: rows * cols].reshape(rows, cols)

    def aux(self, cells: int) -> np.ndarray:
        """The first cells of the companion buffer, contents stale."""
        self._aux = self._fit(self._aux, cells)
        return self._aux[:cells]


def _assign(
    buffers: _CostBuffers,
    scores: np.ndarray,
    by: np.ndarray,
    bz: np.ndarray,
    gain: np.ndarray,
    mutation_prob: float,
    extra: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The males by[i] and females bz[j] of a maximum-weight assignment of
    the (k_y, k_z) weights W = expected_pair_weights(scores[by],
    scores[bz], gain, mutation_prob) + extra, in male order: the pairs of
    scipy's linear_sum_assignment(W, maximize=True), to the index.

    scipy's maximize=True solves a negated copy of W, transposed when W has
    more rows than columns, and sorts a transposed solve's pairs by W's
    row. Here the cost is built in buffers with the shorter side as its
    rows: W, or W.T (the same cells, since addition commutes). It is
    negated in place, which is exact, so scipy solves the same cells
    without a copy, and a transposed solve's pairs are sorted by man."""
    flipped = len(by) > len(bz)
    r, c = (bz, by) if flipped else (by, bz)
    cost = buffers.cost(len(r), len(c))
    expected_pair_weights(scores[r], scores[c], gain, mutation_prob, out=cost)
    cost += extra.T if flipped else extra
    np.negative(cost, out=cost)
    rows, cols = linear_sum_assignment(cost)
    if flipped:
        order = np.argsort(cols)
        rows, cols = cols[order], rows[order]
    return by[rows], bz[cols]


def _match_pairs(
    roster: Roster,
    yi: np.ndarray,
    zi: np.ndarray,
    gain: np.ndarray,
    config: SimConfig,
    k: int,
    penalty: np.ndarray | None,
    reach: np.ndarray | None,
    buffers: _CostBuffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Roster indices of the matched male/female pairs of round k. Everyone
    is scored once against gain. Each assignment solve (_assign) adds one
    term, written into buffers, to the pair weights: the round's noise, or
    in locality matching the cells of penalty, the negated _block_penalty
    table (None in the other modes), looked up by the two home blocks.

    reach, None but where the deterministic gate counts the global
    population, marks who reaches the crowding bar. Optimal matching then
    ranks, on each side, only the people who score at least as high as
    that side's lowest-scoring reacher, ties included: a prefix of the
    side's ranking that holds every reacher, and so every rank whose pair
    can pass the gate. The pairs within it are those of the full ranking,
    and the pairs cut off would have failed a gate that draws nothing.
    """
    mcfg = config.matching
    scores = score(roster.traits, gain)
    if mcfg.mode is MatchMode.OPTIMAL:
        sy, sz = scores[yi], scores[zi]
        if reach is not None:
            # Each side keeps, in roster order, whoever scores at least its
            # lowest reacher's score; nobody when no one on it reaches. The
            # prefix is a small share of a side, so it is gathered by index.
            ky = np.flatnonzero(sy >= sy[reach[yi]].min(initial=math.inf))
            kz = np.flatnonzero(sz >= sz[reach[zi]].min(initial=math.inf))
            yi, sy, zi, sz = yi[ky], sy[ky], zi[kz], sz[kz]
        iy, iz = rank_pair_indices(sy, sz)
        return yi[iy], zi[iz]

    p = config.demographics.mutation_prob
    if mcfg.mode is MatchMode.LOCALITY:
        # mode="clip" gathers straight into the buffer (the default "raise"
        # gathers into a copy); every block code is in range.
        block = roster.block
        cells = buffers.aux(yi.size * zi.size).reshape(yi.size, zi.size)
        np.take(penalty[block[yi]], block[zi], axis=1, out=cells, mode="clip")
        return _assign(buffers, scores, yi, zi, gain, p, cells)
    if mcfg.mode is MatchMode.NOISY:
        noise = _round_stream(config.seed, "noise", k)
        sides = [(yi, zi)]
    else:
        # Partitioned: random blocks of partition_size per side; male block
        # i meets female block i, and surplus blocks sit out. Draw order,
        # from round k's generator: male and female permutations, then one
        # noise matrix per block.
        noise = _round_stream(config.seed, "partition", k)
        perm_y = yi[noise.permutation(len(yi))]
        perm_z = zi[noise.permutation(len(zi))]
        size = mcfg.partition_size
        sides = [
            (perm_y[start : start + size], perm_z[start : start + size])
            for start in range(0, min(len(yi), len(zi)), size)
        ]
    # Every block's noise comes from one draw, split in block order: the
    # same bits as one draw per block. W + normal(0, sigma) by way of a
    # standard draw gives the same bits too, as numpy draws each normal as
    # 0 + sigma * z.
    ends = np.cumsum([by.size * bz.size for by, bz in sides]).tolist()
    z = buffers.aux(ends[-1])
    noise.standard_normal(out=z)
    z *= mcfg.noise_sigma
    blocks = []
    for (by, bz), end in zip(sides, ends):
        z_b = z[end - by.size * bz.size : end].reshape(by.size, bz.size)
        blocks.append(_assign(buffers, scores, by, bz, gain, p, z_b))
    return tuple(np.concatenate(side) for side in zip(*blocks))


def _status(male: np.ndarray) -> str:
    """"extinct" with nobody left, "sterile" with one sex left, else
    "completed"; male marks the roster's men (sex 0), the rest are women."""
    if not male.size:
        return "extinct"
    if np.count_nonzero(male) in (0, male.size):
        return "sterile"
    return "completed"


class _RunState:
    """What one round of run() hands the next: the sequence streams, the
    initial snapshot and the roster, theta, the next id, the status, the
    log columns so far and k, the last round done; and the run's
    constants. step() advances one active round or one idle stretch.
    Nothing else outlives a step, so a pickled state finishes the same run."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.streams = {name: named_stream(config.seed, name) for name in _SEQUENCE_STREAMS}
        self.initial = init_population(config, self.streams)
        # Bury anyone dead at birth before the first row. take() copies every
        # column, so in-place updates, burials and births never reach the
        # snapshot.
        self.roster = self.initial.take(self.initial.death > 0.0)
        self.theta = config.theta0.values
        self.next_id = self.initial.size
        self.status = _status(self.roster.sex == 0)
        self.k = 0
        self.n_rounds = int(math.floor(config.max_time / config.mating_period + 1e-9))
        # Under the deterministic rule with a global crowding term, no round
        # before mating_opening_time can bear a child, whatever the pairing,
        # and the gate draws nothing. Matching draws only from its round's own
        # key, so skipping a round's pairing and gate moves no later draw. For
        # the same reason, optimal matching may leave out the pairs the gate
        # is sure to refuse.
        rule = config.demographics.success_rule
        self.skip_closed = rule == "deterministic" and config.success_pop_scope == "global"
        locality = config.matching.mode is MatchMode.LOCALITY
        # Negated once: W + (-penalty) is W - penalty to the bit.
        self.penalty = np.negative(_block_penalty(config)) if locality else None
        # The assignment rounds' cost cells, reused until the run ends.
        self.buffers = _CostBuffers()
        # The log's columns, row k for round k, in the order log() reads them.
        columns = [("population", int), ("births", int), ("deaths", int), ("happiness", float)]
        columns += [("theta", float, self.theta.shape)]
        columns += [("x_bar", float, config.interaction.individual_dim)]
        if (grid := config.grid) is not None:
            columns += [("block_population", int, grid), ("block_happiness", float, grid)]
        self.history = np.empty(0, columns)
        self._record(0, self.theta[None], self.roster.mean_traits(), 0, 0)

    def __getstate__(self) -> dict:
        # The log's rows after k are growth slack, which no round reads.
        return {**self.__dict__, "history": self.history[: self.k + 1]}

    @property
    def done(self) -> bool:
        return self.status != "completed" or self.k >= self.n_rounds

    def step(self) -> None:
        """Advance round k + 1 and, when that round is idle, every following
        round up to the next death or the gate's opening.

        At the population sizes of a run, much of a round's cost is the
        fixed cost of its many small numpy calls, so none is made twice:
        the sex mask is computed once, after burial, for the status check,
        the gate's opening and the birth phase; an idle stretch takes one
        society_path call; and a one-round step, the usual case, skips the
        running sum of the steps (see society_path)."""
        config, roster, period = self.config, self.roster, self.config.mating_period
        first = self.k + 1
        t = first * period
        keep = roster.death > t
        died = roster.size - np.count_nonzero(keep)
        if died:
            roster.bury(keep)
        male = roster.sex == 0
        if died:
            # Only burial can end the run: a roster without both sexes
            # bears nobody, and births only add people.
            self.status = _status(male)
        last, born = first, 0
        opens, reach = -math.inf, None
        if self.skip_closed and self.status == "completed":
            # Who reaches the crowding bar: it times the gate's opening and
            # cuts the ranking of an active round.
            reach = reaches_crowding_bar(roster.size, roster.happiness, config.demographics)
            opens = mating_opening_time(reach, roster.avail, male)
        if opens > t:
            # Nobody is born or dies before the earlier of the two times,
            # so N, the gate and the roster stay as they are until then.
            # Each round's t is computed as above, k * period.
            end = min(opens, roster.death.min(initial=math.inf))
            while last < self.n_rounds and (last + 1) * period < end:
                last += 1
        else:
            born, died_at_birth = self._bear(first, t, reach, male)
            died += died_at_birth
        # The society steps once per round at the roster's x_bar, which
        # holds over the step; an empty roster (always a one-round step,
        # since it ends the run) leaves theta where it is.
        x_bar = roster.mean_traits()
        thetas = self.theta[None]
        if roster.size:
            lam = config.schedule.rate(x_bar)
            thetas = society_path(self.theta, x_bar, config.interaction, lam, last - first + 1)
        self.theta = thetas[-1]
        self._record(first, thetas, x_bar, born, died)
        self.k = last

    def _bear(
        self, k: int, t: float, reach: np.ndarray | None, male: np.ndarray
    ) -> tuple[int, int]:
        """Round k's births at t: the available people are paired, and each
        pair that passes the gate bears one child, with the next id and the
        home block of one parent, picked uniformly. Parents recover until
        t + gap(h). male marks the roster's men. _birth gives the children's
        columns, and those who outlive t are gathered straight into the
        roster's slack (Roster.add_born). Returns how many were born and
        how many of them died at birth."""
        config, roster, streams = self.config, self.roster, self.streams
        d = config.demographics
        avail = roster.avail <= t
        # The available men, and the rest of the available: the women.
        avail_male = avail & male
        yi = np.flatnonzero(avail_male)
        zi = np.flatnonzero(avail ^ avail_male)
        if not (yi.size and zi.size):
            return 0, 0
        # The trait payoff under the current theta scores the pairing and the newborns.
        gain = trait_gain(self.theta, config.interaction)
        sel_y, sel_z = _match_pairs(
            roster, yi, zi, gain, config, k, self.penalty, reach, self.buffers
        )
        # The crowding term counts the roster, which holds only the living,
        # or with block scope the mean head count of the partners' home blocks.
        pop = roster.size
        if config.success_pop_scope == "block":
            counts = np.bincount(roster.block, minlength=config.grid[0] * config.grid[1])
            pop = (counts[roster.block[sel_y]] + counts[roster.block[sel_z]]) / 2.0
        h_y, h_z = roster.happiness[sel_y], roster.happiness[sel_z]
        ok = mating_succeeds(pop, h_y, h_z, d, streams["success"])
        sel_y, sel_z = sel_y[ok], sel_z[ok]
        n = sel_y.size
        if not n:
            return 0, 0
        parents = roster.traits[:, sel_y].T, roster.traits[:, sel_z].T
        traits = born_batch(*parents, streams["born"], d).T
        block = None
        if config.grid is not None:
            pick = streams["location"].integers(0, 2, size=n)
            block = np.where(pick == 0, roster.block[sel_y], roster.block[sel_z])
        roster.avail[sel_y] = t + mating_gap(h_y[ok], d)
        roster.avail[sel_z] = t + mating_gap(h_z[ok], d)
        sex, happiness, death, avail = _birth(traits, t, gain, config, streams)
        joined = roster.add_born(self.next_id, t, avail, sex, traits, happiness, death, block)
        self.next_id += n
        return n, n - joined

    def _record(
        self, first: int, thetas: np.ndarray, x_bar: np.ndarray, born: int, died: int
    ) -> None:
        """Write rounds first on, one per row of thetas, for the roster and its
        mean traits x_bar: born and died add to the totals from round first."""
        roster, end = self.roster, first + len(thetas)
        if end > len(self.history):
            history = np.empty(max(end, 2 * len(self.history)), self.history.dtype)
            history[:first] = self.history[:first]
            self.history = history
        born += self.history["births"][first - 1] if first else 0
        died += self.history["deaths"][first - 1] if first else 0
        rows = self.history[first:end]
        rows["population"], rows["births"], rows["deaths"] = roster.size, born, died
        # np.add.reduce is ndarray.sum's own reduction, without its wrapper.
        rows["happiness"] = np.add.reduce(roster.happiness)
        rows["theta"], rows["x_bar"] = thetas, x_bar
        if (grid := self.config.grid) is not None:
            size = grid[0] * grid[1]
            counts = np.bincount(roster.block, minlength=size).reshape(grid)
            sums = np.bincount(roster.block, roster.happiness, size)
            rows["block_population"], rows["block_happiness"] = counts, sums.reshape(grid)

    def log(self) -> TimeSeriesLog:
        """The log so far: the rows of t=0, every log_every-th round and the last round."""
        config, roster = self.config, self.roster
        kept = np.r_[0 : self.k : config.log_every, self.k]
        pop, births, deaths, tot, theta, x_bar, *blocks = (
            self.history[name][kept] for name in self.history.dtype.names
        )
        mean = np.divide(tot, pop, out=np.full(tot.shape, np.nan), where=pop > 0)
        if blocks:
            counts, sums = blocks
            blocks[1] = np.divide(sums, counts, out=np.full(sums.shape, np.nan), where=counts > 0)
        births, deaths = np.diff(births, prepend=0), np.diff(deaths, prepend=0)
        return TimeSeriesLog(
            kept * config.mating_period, pop, births, deaths, tot, mean,
            # x_bar . (I theta): the bits of each round's own score(gain, x_bar).
            score(trait_gain(theta.T, config.interaction), x_bar.T),
            theta, x_bar, *(blocks or (None, None)),
            trait_names=config.interaction.row_names,
            society_names=config.interaction.col_names,
            status=self.status,
            initial_population=self.initial,
            # A compact copy, so a caller that keeps the log keeps no slack.
            final_population=roster.take(np.ones(roster.size, dtype=bool)),
        )


def run(config: SimConfig) -> TimeSeriesLog:
    """Execute the full timeline and return the log.

    Round order at each t = k * mating_period: bury death_time <= t,
    collect available, match, filter by mating success at the surviving
    population, bear children (happiness frozen against the current society
    vector; a child with death_time <= t is buried at birth), push parents'
    next availability to t + mating_gap, step the society vector, log. Ends
    early, with status, on extinction (nobody left) or sterility (one sex
    extinct).

    Where the gate is known to stay shut (see skip_closed), the rounds up
    to the next death or the gate's opening, whichever comes first, change
    nothing but the society vector, and run() advances them in one step
    with the outcome the rounds would have had one by one. A round draws
    its matching noise from its own key, so this holds in every mode.
    Under the same condition, optimal matching ranks only the prefix of
    each side that can pass the gate (see _match_pairs); the pairs it
    leaves out would have borne nobody.
    """
    state = _RunState(config)
    while not state.done:
        state.step()
    return state.log()


def write_population_csv(
    roster: Roster, path: str | Path, trait_names: Sequence[str], grid: tuple[int, int] | None
) -> None:
    """Snapshot CSV of a run on grid: one row per person, PERSON_COLUMNS
    then one column per named trait. gx and gy are empty without a grid."""
    xy = np.full((2, roster.size), "") if grid is None else _block_xy(grid)[:, roster.block]
    sex = np.where(roster.sex == 0, "male", "female")
    columns = [roster.ids, sex, roster.birth, roster.death, roster.avail, roster.happiness]
    _write_csv(path, [*PERSON_COLUMNS, *trait_names], [*columns, *xy, *roster.traits])


def write_run_outputs(
    log: TimeSeriesLog,
    config: SimConfig,
    out_dir: str | Path,
    wall_time_s: float,
) -> list[Path]:
    """Write log.csv, summary.json, both population snapshots, and (for grid
    runs) grid_log.csv into out_dir. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Volatile values live only under "meta" so everything above it is
    # byte-stable for identical configs and seeds.
    now = datetime.now(timezone.utc).isoformat()
    meta = {"seed": config.seed, "wall_time_s": round(wall_time_s, 3), "written_at": now}
    summary = {**log.summary(), "meta": meta}
    first, last, traits = log.initial_population, log.final_population, config.interaction.row_names
    writers = {
        "log.csv": log.write_csv,
        "summary.json": lambda p: _write_json(p, summary),
        "population_initial.csv": lambda p: write_population_csv(first, p, traits, config.grid),
        "population_final.csv": lambda p: write_population_csv(last, p, traits, config.grid),
    }
    if log.block_population is not None:
        writers["grid_log.csv"] = log.write_grid_csv
    for name, write in writers.items():
        write(out / name)
    return [out / name for name in writers]
