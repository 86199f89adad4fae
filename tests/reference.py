"""Person-level oracle for the engine.

Person, Sex and expected_child live here, not in the package: the engine
keeps its population as columns, and only the tests need a record per
person or the analytic expectation of a child.

reference_run() re-executes run() one Person record at a time: available
people, pairing, a per-pair success gate, batched births, burial, the
society step, and the log's kept rows and per-block head counts. It
consumes the same named streams in the same order as run(), so the two
must agree row for row; a disagreement points at a bookkeeping or
ordering slip in the columnar engine. The oracle pairs
every round, where run() skips the rounds it knows to be idle; round k's
matching noise and partitions draw from a generator keyed by (seed,
stream, k), so the two still draw alike. Scores, means and the society
step use the engine's arithmetic (matching.score, a mean along each
trait's contiguous row), so the final rosters agree bit for bit. Only the
tests use this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy.optimize import linear_sum_assignment

from citysim.core import ConfigurationError, ConsistencyError, TraitVector
from citysim.demographics import (
    DemographicsParams,
    born_batch,
    lifespan,
    mating_gap,
    mating_success_threshold,
)
from citysim.engine import init_population, named_stream
from citysim.matching import (
    MatchMode,
    expected_pair_weights,
    grid_distances,
    score,
)

# Drawn in sequence, one generator per name for the whole run.
STREAMS = ("init", "sex", "born", "location", "success")
# Drawn afresh each round k, from the key (seed, stream id, k).
ROUND_STREAM_IDS = {"noise": 3, "partition": 4}


def round_stream(seed: int, name: str, k: int) -> np.random.Generator:
    """Round k's generator for the matching noise or partitions."""
    key = (ROUND_STREAM_IDS[name], k)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class Sex(IntEnum):
    MALE = 0
    FEMALE = 1


@dataclass
class Person:
    """One agent.

    ``happiness`` is evaluated against the society vector in force at birth
    and never updated afterwards, even as the society drifts.
    ``next_available_time`` is the only field the simulation mutates.
    """

    id: int
    sex: Sex
    traits: TraitVector
    happiness: float
    birth_time: float
    death_time: float
    next_available_time: float
    location: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.death_time < self.birth_time:
            raise ConfigurationError(
                f"person {self.id}: death_time {self.death_time} precedes "
                f"birth_time {self.birth_time}"
            )
        if self.next_available_time < self.birth_time:
            raise ConfigurationError(
                f"person {self.id}: next_available_time {self.next_available_time} "
                f"precedes birth_time {self.birth_time}"
            )

    def is_alive(self, t: float) -> bool:
        return self.birth_time <= t < self.death_time


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, TraitVector) else np.asarray(x, dtype=np.float64)


def expected_child(father, mother, params: DemographicsParams | None = None) -> TraitVector:
    """Analytic expectation of a born_batch child: (1-p)(f+m)/2 + p/2 per
    coordinate, p being the mutation probability."""
    p = (params or DemographicsParams()).mutation_prob
    return TraitVector((1.0 - p) * (_values(father) + _values(mother)) / 2.0 + p * 0.5)


def persons(roster, grid) -> list[Person]:
    """One Person per roster entry, in roster order. On a w x h grid, block
    code c is the location (c // h, c % h)."""
    people = []
    for i in range(roster.size):
        loc = None
        if grid is not None:
            code = int(roster.block[i])
            loc = (code // grid[1], code % grid[1])
        people.append(
            Person(
                id=int(roster.ids[i]),
                sex=Sex(int(roster.sex[i])),
                traits=TraitVector(roster.traits[:, i]),
                happiness=float(roster.happiness[i]),
                birth_time=float(roster.birth[i]),
                death_time=float(roster.death[i]),
                next_available_time=float(roster.avail[i]),
                location=loc,
            )
        )
    return people


def available(population, t: float) -> tuple[list[Person], list[Person]]:
    """Living, matured, recovered people at time t, split (males, females)."""
    ready = [p for p in population if p.is_alive(t) and p.next_available_time <= t]
    return (
        [p for p in ready if p.sex is Sex.MALE],
        [p for p in ready if p.sex is Sex.FEMALE],
    )


def update_pop(population, births, t: float) -> list[Person]:
    """Merged roster with this round's births added and expiries removed."""
    merged = list(population) + list(births)
    ids = [p.id for p in merged]
    if len(set(ids)) != len(ids):
        raise ConsistencyError("duplicate person id in population update")
    return [p for p in merged if p.death_time > t]


def effective_lambda(schedule, population) -> float:
    """Step size for this round: base * multiplier, times the living
    population's mean flexibility trait under a dynamic schedule. An empty
    population takes no step."""
    if not population:
        return 0.0
    lam = schedule.base * schedule.multiplier
    if schedule.kind == "fixed":
        return lam
    idx = schedule.flexibility_trait_index
    return lam * float(np.mean([p.traits.values[idx] for p in population]))


def _traits(people) -> np.ndarray:
    return np.stack([p.traits.values for p in people])


def total_happiness(people) -> float:
    """Sum of the frozen per-person happiness values, summed as run() sums
    its roster's happiness column; 0.0 when empty."""
    return float(np.sum([p.happiness for p in people]))


def mean_traits(people) -> np.ndarray:
    """Coordinate-wise mean of everyone's traits, taken along each trait's
    contiguous row as run() takes x_bar."""
    return np.ascontiguousarray(_traits(people).T).mean(axis=1)


def _scores(people, gain) -> np.ndarray:
    return score(_traits(people).T, gain)


def _solve(W, Y, Z) -> list[tuple[Person, Person]]:
    rows, cols = linear_sum_assignment(W, maximize=True)
    order = np.argsort(rows)
    return [(Y[i], Z[j]) for i, j in zip(rows[order], cols[order])]


def partitioned_match(Y, Z, gain, mutation_prob, partition_size, noise_sigma, rng):
    """Random partition into blocks of at most partition_size, noisy-optimal
    matching inside each block, union of the block matchings.

    Draw order: male permutation, female permutation, then one noise matrix
    per block in block order. Males' block i meets females' block i; when
    the sides have unequally many blocks, the surplus blocks sit out.
    """
    if partition_size < 1:
        raise ConfigurationError(f"partition_size must be >= 1, got {partition_size}")
    if not Y or not Z:
        return []
    perm_y = rng.permutation(len(Y))
    perm_z = rng.permutation(len(Z))
    blocks_y = [perm_y[i : i + partition_size] for i in range(0, len(perm_y), partition_size)]
    blocks_z = [perm_z[i : i + partition_size] for i in range(0, len(perm_z), partition_size)]
    pairs = []
    for by, bz in zip(blocks_y, blocks_z):
        sub_y = [Y[i] for i in by]
        sub_z = [Z[j] for j in bz]
        W = expected_pair_weights(_scores(sub_y, gain), _scores(sub_z, gain), gain, mutation_prob)
        W = W + rng.normal(0.0, noise_sigma, size=W.shape)
        pairs.extend(_solve(W, sub_y, sub_z))
    return pairs


def reference_pairs(Y, Z, gain, config, k) -> list[tuple[Person, Person]]:
    """Matched (male, female) pairs of round k under the configured matching mode."""
    m = config.matching
    p_mut = config.demographics.mutation_prob
    if m.mode is MatchMode.OPTIMAL:
        # Best with best, each side by score descending and then by id
        # ascending, stated apart from rank_pair_indices so that its tie
        # rule is checked too.
        sy, sz = _scores(Y, gain), _scores(Z, gain)
        ys = sorted(range(len(Y)), key=lambda i: (-sy[i], Y[i].id))
        zs = sorted(range(len(Z)), key=lambda j: (-sz[j], Z[j].id))
        return [(Y[i], Z[j]) for i, j in zip(ys, zs)]
    if m.mode is MatchMode.PARTITIONED:
        return partitioned_match(
            Y, Z, gain, p_mut, m.partition_size, m.noise_sigma,
            round_stream(config.seed, "partition", k),
        )
    W = expected_pair_weights(_scores(Y, gain), _scores(Z, gain), gain, p_mut)
    if m.mode is MatchMode.LOCALITY:
        ly = np.array([p.location for p in Y])
        lz = np.array([p.location for p in Z])
        W = W - m.gamma * grid_distances(ly, lz, m.distance)
    else:
        W = W + round_stream(config.seed, "noise", k).normal(0.0, m.noise_sigma, size=W.shape)
    return _solve(W, Y, Z)


def _succeeds(male, female, people, t, config, streams) -> bool:
    """Success gate for one pair; the probabilistic rule draws one uniform."""
    d = config.demographics
    alive = [p for p in people if p.is_alive(t)]
    if config.success_pop_scope == "global":
        pop = len(alive)
    else:
        pop = (
            sum(p.location == male.location for p in alive)
            + sum(p.location == female.location for p in alive)
        ) / 2.0
    m = float(mating_success_threshold(pop, male.happiness, female.happiness, d))
    if d.success_rule == "deterministic":
        return min(male.happiness, female.happiness) >= m
    return float(streams["success"].random()) < 1.0 - min(max(m, 0.0), 1.0)


def reference_run(config):
    """(rows, blocks, final population) of a Person-level re-execution
    of run().

    Each row is (t, population, births, deaths, total happiness, mean
    happiness, mean current happiness, theta, mean traits). Rows are kept
    at t=0, every log_every-th round and the final round; a kept row's
    births and deaths count every round since the previous kept row. On a
    w x h grid, each kept row has one list of (head count, mean
    happiness) per block, gx-major, the mean nan for an empty block;
    without a grid blocks is None.
    """
    streams = {name: named_stream(config.seed, name) for name in STREAMS}
    E = config.interaction.entries
    d = config.demographics

    theta = config.theta0.values.copy()
    people = persons(init_population(config, streams), config.grid)
    next_id = len(people)
    people = [p for p in people if p.death_time > 0.0]
    rows, blocks = [], []

    def snapshot(t, births, deaths):
        n = len(people)
        if n:
            tot = total_happiness(people)
            means = mean_traits(people)
            mean_cur = float(score(means, score(E.T, theta)))
            rows.append((t, n, births, deaths, tot, tot / n, mean_cur, theta.copy(), means))
        else:
            rows.append((t, 0, births, deaths, 0.0, np.nan, np.nan, theta.copy(), None))
        if config.grid is not None:
            cells = []
            for gx in range(config.grid[0]):
                for gy in range(config.grid[1]):
                    here = [p.happiness for p in people if p.location == (gx, gy)]
                    cells.append((len(here), sum(here) / len(here) if here else np.nan))
            blocks.append(cells)

    snapshot(0.0, 0, 0)
    n_rounds = int(math.floor(config.max_time / config.mating_period + 1e-9))
    if people and len({p.sex for p in people}) == 2:
        for k in range(1, n_rounds + 1):
            t = k * config.mating_period
            Y, Z = available(people, t)
            births = []
            if Y and Z:
                gain = score(E.T, theta)
                ok_pairs = [
                    (m, f)
                    for m, f in reference_pairs(Y, Z, gain, config, k)
                    if _succeeds(m, f, people, t, config, streams)
                ]
                if ok_pairs:
                    kids = born_batch(
                        _traits([m for m, _ in ok_pairs]),
                        _traits([f for _, f in ok_pairs]),
                        streams["born"],
                        d,
                    )
                    kid_sex = streams["sex"].integers(0, 2, size=len(ok_pairs))
                    if config.grid is not None:
                        pick = streams["location"].integers(0, 2, size=len(ok_pairs))
                    kid_h = score(kids.T, gain)
                    for i, (m, f) in enumerate(ok_pairs):
                        loc = None
                        if config.grid is not None:
                            loc = m.location if pick[i] == 0 else f.location
                        births.append(
                            Person(
                                id=next_id,
                                sex=Sex(int(kid_sex[i])),
                                traits=TraitVector(kids[i]),
                                happiness=float(kid_h[i]),
                                birth_time=t,
                                death_time=t + float(lifespan(float(kid_h[i]), d)),
                                next_available_time=t + d.maturity_age * config.mating_period,
                                location=loc,
                            )
                        )
                        next_id += 1
                    for m, f in ok_pairs:
                        m.next_available_time = t + float(mating_gap(m.happiness, d))
                        f.next_available_time = t + float(mating_gap(f.happiness, d))
            n_before = len(people) + len(births)
            people = update_pop(people, births, t)
            n_dead = n_before - len(people)
            if people:
                lam = effective_lambda(config.schedule, people)
                theta = np.clip(theta + lam * score(E, mean_traits(people)), 0.0, 1.0)
            snapshot(t, len(births), n_dead)
            if not people or len({p.sex for p in people}) < 2:
                break

    kept, kept_blocks = [], None if config.grid is None else []
    births = deaths = 0
    for k, (t, n, b, dd, *rest) in enumerate(rows):
        births += b
        deaths += dd
        if k % config.log_every == 0 or k == len(rows) - 1:
            kept.append((t, n, births, deaths, *rest))
            births = deaths = 0
            if kept_blocks is not None:
                kept_blocks.append(blocks[k])
    return kept, kept_blocks, people
