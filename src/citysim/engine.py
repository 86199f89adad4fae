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

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ConfigurationError, ConsistencyError, InteractionMatrix, TraitVector, require_int
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
        if require_int(self.count, "group count") < 0:
            raise ConfigurationError(f"group count must be nonnegative, got {self.count}")
        mean = self.mean if isinstance(self.mean, TraitVector) else TraitVector(self.mean)
        object.__setattr__(self, "mean", mean)
        std = self.std
        if np.isscalar(std):
            std = (float(std),) * mean.dim
        else:
            std = tuple(float(s) for s in std)
        if len(std) != mean.dim:
            raise ConfigurationError(
                f"std has {len(std)} entries for a {mean.dim}-trait mean"
            )
        if any(not (s >= 0 and math.isfinite(s)) for s in std):
            raise ConfigurationError(f"std entries must be finite and >= 0, got {std}")
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class MatchingConfig:
    """Which matching variant runs each round, and its knobs."""

    mode: MatchMode = MatchMode.OPTIMAL
    gamma: float = 1.0
    partition_size: int = 10
    noise_sigma: float = 1.0
    distance: str = "hamming"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", MatchMode(self.mode))
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigurationError(f"gamma must be finite and >= 0, got {self.gamma}")
        if require_int(self.partition_size, "partition_size") < 1:
            raise ConfigurationError(f"partition_size must be >= 1, got {self.partition_size}")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise ConfigurationError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}"
            )
        if self.distance not in ("hamming", "manhattan"):
            raise ConfigurationError(
                f"distance must be 'hamming' or 'manhattan', got {self.distance!r}"
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
        if not 0 <= require_int(self.seed, "seed") < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2^64), got {self.seed}")
        groups = tuple(self.groups)
        if not groups:
            raise ConfigurationError("at least one population group is required")
        if sum(g.count for g in groups) == 0:
            raise ConfigurationError("initial population is empty across all groups")
        object.__setattr__(self, "groups", groups)
        theta0 = self.theta0 if isinstance(self.theta0, TraitVector) else TraitVector(self.theta0)
        object.__setattr__(self, "theta0", theta0)
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
        if not (self.mating_period > 0 and math.isfinite(self.mating_period)):
            raise ConfigurationError(f"mating_period must be > 0, got {self.mating_period}")
        object.__setattr__(self, "mating_period", float(self.mating_period))
        if not (self.max_time >= 0 and math.isfinite(self.max_time)):
            raise ConfigurationError(f"max_time must be >= 0, got {self.max_time}")
        if not math.isfinite(self.max_time / self.mating_period):
            raise ConfigurationError(
                f"max_time / mating_period must be a finite round count, got "
                f"{self.max_time} / {self.mating_period}"
            )
        if require_int(self.log_every, "log_every") < 1:
            raise ConfigurationError(f"log_every must be >= 1, got {self.log_every}")
        if self.grid is not None:
            grid = tuple(require_int(v, f"grid[{k}]") for k, v in enumerate(self.grid))
            if len(grid) != 2 or min(grid) < 1 or grid[0] * grid[1] >= 2**63:
                raise ConfigurationError(
                    f"grid must be two dimensions >= 1 with int64 block codes, got {grid}"
                )
            object.__setattr__(self, "grid", grid)
        if self.matching.mode is MatchMode.LOCALITY and self.grid is None:
            raise ConfigurationError("locality matching requires a grid")
        if self.success_pop_scope not in ("global", "block"):
            raise ConfigurationError(
                f"success_pop_scope must be 'global' or 'block', got {self.success_pop_scope!r}"
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

    run() records a row for every round, then keeps t=0, every log_every-th
    round and the final round, which is where a run that dies out stops.
    A kept row's births and deaths count every round since the previous
    kept row, so population[i] = population[i-1] + births[i] - deaths[i]
    holds for every row. theta and the happiness columns reflect the state
    after the row's round completed; with nobody alive, mean_happiness,
    mean_current_happiness and mean_traits are nan.

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
            raise ConfigurationError("this run has no grid log (no locality grid)")
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


class Roster:
    """Columnar population store: id, sex (0 male, 1 female), traits,
    frozen happiness, birth/death/next-available times and, on a w x h
    grid, the home block as one code gx * h + gy (None without a grid).
    The last axis of every array is the person: traits is one C-contiguous
    (dim, n) array with a row per trait, and the rest are (n,). Ids ascend
    along that axis, so a stable sort breaks ties by id."""

    __slots__ = ("ids", "sex", "traits", "happiness", "birth", "death", "avail", "block")

    def __init__(self, ids, sex, traits, happiness, birth, death, avail, block):
        self.ids = ids
        self.sex = sex
        self.traits = traits
        self.happiness = happiness
        self.birth = birth
        self.death = death
        self.avail = avail
        self.block = block

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    def mean_traits(self) -> np.ndarray:
        """The mean trait vector, all nan when nobody is alive. Each trait's
        mean is a pairwise sum along its contiguous row, the same bits as
        that row's own mean."""
        if self.size:
            return self.traits.mean(axis=1)
        return np.full(self.traits.shape[0], np.nan)

    def take(self, keep: np.ndarray) -> "Roster":
        """The people where keep is true, as a new roster with copied arrays."""
        idx = np.flatnonzero(keep)
        columns = (getattr(self, name) for name in self.__slots__)
        return Roster(*(None if col is None else col.take(idx, axis=-1) for col in columns))

    def extend(self, other: "Roster") -> None:
        """Append other's people, whose ids must all exceed this roster's."""
        if self.size and other.size and other.ids[0] <= self.ids[-1]:
            raise ConsistencyError(
                f"roster ids must ascend: appending id {other.ids[0]} after {self.ids[-1]}"
            )
        for name in self.__slots__:
            col = getattr(self, name)
            if col is not None:
                setattr(self, name, np.concatenate([col, getattr(other, name)], axis=-1))


def _newborns(
    first_id: int,
    traits: np.ndarray,
    t: float,
    gain: np.ndarray,
    block: np.ndarray | None,
    config: SimConfig,
    streams: dict[str, np.random.Generator],
) -> Roster:
    """The people born at t with the given (dim, n) traits and home blocks:
    ids from first_id on, sexes drawn uniformly from the "sex" stream,
    happiness frozen against gain, death at t + L(h), and first
    availability once they have matured. Founders are newborns at t=0."""
    d = config.demographics
    n = traits.shape[1]
    happiness = score(traits, gain)
    return Roster(
        ids=np.arange(first_id, first_id + n, dtype=np.int64),
        sex=streams["sex"].integers(0, 2, size=n).astype(np.int8),
        traits=traits,
        happiness=happiness,
        birth=np.full(n, t),
        death=t + lifespan(happiness, d),
        avail=np.full(n, t + d.maturity_age * config.mating_period),
        block=block,
    )


def init_population(
    config: SimConfig, streams: dict[str, np.random.Generator] | None = None
) -> Roster:
    """Founding roster at t=0, drawn from streams (by default the named
    streams of config.seed).

    Traits draw per coordinate from each group's normal (then clip into
    [0, 1]) on the "init" stream, group by group; home blocks draw in one
    batch of (gx, gy) rows on the "location" stream. The founders are then
    newborns at t=0 under theta0. Rows are in group order, and ids are row
    numbers, so id ranges identify the founding groups.
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
    block = None
    if config.grid is not None:
        high = np.asarray(config.grid, dtype=np.int64)
        gx, gy = streams["location"].integers(0, high, size=(traits.shape[1], 2)).T
        block = gx * high[1] + gy
    gain = trait_gain(config.theta0, config.interaction)
    return _newborns(0, traits, 0.0, gain, block, config, streams)


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


def _match_pairs(
    roster: Roster,
    yi: np.ndarray,
    zi: np.ndarray,
    gain: np.ndarray,
    config: SimConfig,
    k: int,
    penalty: np.ndarray | None,
    reach: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roster indices of the matched male/female pairs of round k. Everyone
    is scored once against gain; locality matching subtracts penalty, the
    _block_penalty table (None in the other modes).

    reach, given only where the deterministic gate counts the global
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
        if reach is not None:
            # Each side keeps, in roster order, whoever scores at least its
            # lowest reacher's score; nobody when no one on it reaches.
            yi, zi = (i[scores[i] >= scores[i[reach[i]]].min(initial=math.inf)] for i in (yi, zi))
        iy, iz = rank_pair_indices(scores[yi], scores[zi])
        return yi[iy], zi[iz]

    def solve(by: np.ndarray, bz: np.ndarray, noise: np.random.Generator | None):
        # Expected-payoff weights plus a noise draw, or (noise None) minus
        # the locality penalty of each pair's blocks, then one exact
        # assignment.
        W = expected_pair_weights(scores[by], scores[bz], gain, config.demographics.mutation_prob)
        if noise is None:
            W -= penalty[np.ix_(roster.block[by], roster.block[bz])]
        else:
            W = W + noise.normal(0.0, mcfg.noise_sigma, size=W.shape)
        # scipy returns the row indices sorted, so pairs come in male order.
        rows, cols = linear_sum_assignment(W, maximize=True)
        return by[rows], bz[cols]

    if mcfg.mode is MatchMode.LOCALITY:
        return solve(yi, zi, None)
    if mcfg.mode is MatchMode.NOISY:
        return solve(yi, zi, _round_stream(config.seed, "noise", k))
    # Partitioned: random blocks of partition_size per side; male block i
    # meets female block i, and surplus blocks sit out. Draw order, from
    # round k's generator: male and female permutations, then one noise
    # matrix per block.
    rng = _round_stream(config.seed, "partition", k)
    perm_y = yi[rng.permutation(len(yi))]
    perm_z = zi[rng.permutation(len(zi))]
    size = mcfg.partition_size
    blocks = [
        solve(perm_y[start : start + size], perm_z[start : start + size], rng)
        for start in range(0, min(len(yi), len(zi)), size)
    ]
    return tuple(np.concatenate(side) for side in zip(*blocks))


def _success_mask(
    roster: Roster,
    sel_y: np.ndarray,
    sel_z: np.ndarray,
    config: SimConfig,
    streams: dict[str, np.random.Generator],
) -> np.ndarray:
    """Which matched pairs bear a child. The crowding term counts the
    roster, which holds only the living, or with block scope the mean head
    count of the partners' home blocks."""
    if config.success_pop_scope == "global":
        pop = roster.size
    else:
        counts = np.bincount(roster.block, minlength=config.grid[0] * config.grid[1])
        pop = (counts[roster.block[sel_y]] + counts[roster.block[sel_z]]) / 2.0
    return mating_succeeds(
        pop,
        roster.happiness[sel_y],
        roster.happiness[sel_z],
        config.demographics,
        streams["success"],
    )


def _reproduce(
    roster: Roster,
    sel_y: np.ndarray,
    sel_z: np.ndarray,
    first_id: int,
    t: float,
    gain: np.ndarray,
    config: SimConfig,
    streams: dict[str, np.random.Generator],
) -> int:
    """Each matched pair (sel_y[i], sel_z[i]) bears one child at t, with ids
    from first_id on and the home block of one parent, picked uniformly.
    Parents recover until t + gap(h). The children who outlive t are
    appended to roster; returns how many died at birth."""
    d = config.demographics
    traits = born_batch(roster.traits[:, sel_y].T, roster.traits[:, sel_z].T, streams["born"], d)
    block = None
    if config.grid is not None:
        pick = streams["location"].integers(0, 2, size=sel_y.shape[0])
        block = np.where(pick == 0, roster.block[sel_y], roster.block[sel_z])
    children = _newborns(first_id, traits.T, t, gain, block, config, streams)
    roster.avail[sel_y] = t + mating_gap(roster.happiness[sel_y], d)
    roster.avail[sel_z] = t + mating_gap(roster.happiness[sel_z], d)
    alive = children.death > t
    n_dead = children.size - int(alive.sum())
    roster.extend(children.take(alive) if n_dead else children)
    return n_dead


def _status(roster: Roster) -> str:
    """"extinct" with nobody left, "sterile" with one sex left, else "completed"."""
    if roster.size == 0:
        return "extinct"
    if (roster.sex == 0).all() or (roster.sex == 1).all():
        return "sterile"
    return "completed"


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
    d = config.demographics
    streams = {name: named_stream(config.seed, name) for name in _SEQUENCE_STREAMS}
    initial = init_population(config, streams)
    # Bury anyone dead at birth before the first row. take() copies every
    # column, so in-place updates to the roster never reach the snapshot.
    roster = initial.take(initial.death > 0.0)
    theta = config.theta0.values
    # The trait payoff under the current theta: it scores the round's
    # pairing and newborns.
    gain = trait_gain(theta, config.interaction)
    period = config.mating_period
    n_rounds = int(math.floor(config.max_time / period + 1e-9))
    next_id = initial.size
    # Under the deterministic rule with a global crowding term, no round
    # before mating_opening_time can bear a child, whatever the pairing,
    # and the gate draws nothing. Matching draws only from its round's own
    # key, so skipping a round's pairing and gate moves no later draw. For
    # the same reason, optimal matching may leave out the pairs the gate
    # is sure to refuse.
    skip_closed = d.success_rule == "deterministic" and config.success_pop_scope == "global"
    penalty = _block_penalty(config) if config.matching.mode is MatchMode.LOCALITY else None

    # One tuple per round from t=0 on, so row k is round k, holding the
    # TimeSeriesLog columns in field order (times through mean_traits, and
    # on a grid the two per-block columns).
    rows: list[tuple] = []

    def log_rounds(
        first: int, thetas: np.ndarray, gains: np.ndarray, x_bar: np.ndarray, born: int, died: int
    ) -> None:
        # One row per row of thetas (column of gains, its I theta), for
        # rounds first on, all of the current roster: born and died go to
        # the first row, the later rows record none. Mean current happiness
        # is x_bar . (I theta), x_bar being the roster's mean trait vector.
        n = roster.size
        tot = float(roster.happiness.sum())
        mean = tot / n if n else math.nan
        mean_cur = score(gains, x_bar).tolist()
        tallies = [(born, died)] + [(0, 0)] * (len(thetas) - 1)
        blocks = ()
        if config.grid is not None:
            # Head count and mean happiness (nan when empty) of each block.
            size = config.grid[0] * config.grid[1]
            counts = np.bincount(roster.block, minlength=size)
            sums = np.bincount(roster.block, weights=roster.happiness, minlength=size)
            means = np.divide(sums, counts, out=np.full(size, np.nan), where=counts > 0)
            blocks = (counts.reshape(config.grid), means.reshape(config.grid))
        for k, ((b, dd), th, cur) in enumerate(zip(tallies, thetas, mean_cur), first):
            rows.append((k * period, n, b, dd, tot, mean, cur, th, x_bar, *blocks))

    status = _status(roster)
    log_rounds(0, theta[None], gain[:, None], roster.mean_traits(), 0, 0)

    k_round = 0
    while status == "completed" and k_round < n_rounds:
        # One step runs round first, and when that round is idle every
        # following round up to the next death or the gate's opening.
        first = k_round + 1
        t = first * period
        keep = roster.death > t
        n_dead = roster.size - int(keep.sum())
        if n_dead:
            roster = roster.take(keep)
            # Only burial can end the run: a roster without both sexes
            # bears nobody, and births only add people.
            status = _status(roster)
        last = first
        n_children = 0
        opens, reach = -math.inf, None
        if skip_closed and status == "completed":
            # Who reaches the crowding bar: it times the gate's opening and
            # cuts the ranking of an active round.
            reach = reaches_crowding_bar(roster.size, roster.happiness, d)
            opens = mating_opening_time(reach, roster.avail, roster.sex)
        if opens > t:
            # Nobody is born or dies before the earlier of the two times,
            # so N, the gate and the roster stay as they are until then.
            # Each round's t is computed as above, k * period.
            end = min(opens, roster.death.min(initial=math.inf))
            while last < n_rounds and (last + 1) * period < end:
                last += 1
        else:
            avail = roster.avail <= t
            yi = np.flatnonzero(avail & (roster.sex == 0))
            zi = np.flatnonzero(avail & (roster.sex == 1))
            if len(yi) and len(zi):
                sel_y, sel_z = _match_pairs(roster, yi, zi, gain, config, first, penalty, reach)
                if sel_y.shape[0]:
                    ok = _success_mask(roster, sel_y, sel_z, config, streams)
                    sel_y, sel_z = sel_y[ok], sel_z[ok]
                n_children = sel_y.shape[0]
                if n_children:
                    n_dead += _reproduce(roster, sel_y, sel_z, next_id, t, gain, config, streams)
                    next_id += n_children

        # The society steps once per round at the roster's x_bar, which
        # holds over the step; an empty roster (always a one-round step,
        # since it ends the run) leaves theta where it is.
        x_bar = roster.mean_traits()
        thetas = theta[None]
        if roster.size:
            lam = config.schedule.rate(x_bar)
            thetas = society_path(theta, x_bar, config.interaction, lam, last - first + 1)
        # The last round's gain pairs and scores the next active round.
        gains = trait_gain(thetas.T, config.interaction)
        theta, gain = thetas[-1], gains[:, -1]
        log_rounds(first, thetas, gains, x_bar, n_children, n_dead)
        k_round = last

    # Keep t=0, every log_every-th round and the final round. np.asarray
    # stacks each column: Python ints give int64, and array rows give
    # (rows, *shape) arrays. Births and deaths become running totals, so a
    # kept row's difference counts every round since the previous kept row.
    kept = sorted({*range(0, len(rows), config.log_every), len(rows) - 1})
    columns = [np.asarray(column) for column in zip(*rows)]
    columns[2:4] = (np.cumsum(c) for c in columns[2:4])
    columns = [c[kept] for c in columns]
    columns[2:4] = (np.diff(c, prepend=0) for c in columns[2:4])
    if config.grid is None:
        columns += [None, None]
    return TimeSeriesLog(
        *columns,
        trait_names=config.interaction.row_names,
        society_names=config.interaction.col_names,
        status=status,
        initial_population=initial,
        final_population=roster,
    )


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
