"""Trait vectors, the interaction matrix, the package's exceptions, and the
two writers every CSV and JSON output goes through.

Everything downstream is built from two primitives: a bounded trait
vector (used for both individuals and the society) and a payoff matrix
coupling the two sides. A person's happiness is the score of their traits
against I theta (society.trait_gain), evaluated once at birth and frozen
for life.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "INDIVIDUAL_TRAITS",
    "SOCIETY_TRAITS",
    "CitySimError",
    "ConfigurationError",
    "ConsistencyError",
    "TraitVector",
    "InteractionMatrix",
]


INDIVIDUAL_TRAITS: tuple[str, ...] = (
    "intellect",
    "strength",
    "obedience",
    "flexibility",
    "health",
    "sincerity",
    "family_oriented",
    "religious",
)

# Only the first seven society traits have meaningful names; the trailing six
# are unnamed in the source material and keep positional placeholders.
SOCIETY_TRAITS: tuple[str, ...] = (
    "literacy",
    "living_standards",
    "crime_rate",
    "agrarian",
    "industrial",
    "conservative",
    "communist",
    "s8",
    "s9",
    "s10",
    "s11",
    "s12",
    "s13",
)

# Default coupling table in its conventional printed orientation: one row per
# society trait, one column per individual trait, entries in [-1, 1].
# Internally the matrix is stored transposed (individual x society): one row
# per individual trait, one column per society trait.
_DEFAULT_TABLE: tuple[tuple[float, ...], ...] = (
    (0.9, -0.5, 0.5, 0.3, 0.3, 0.7, 0.5, -0.2),
    (0.7, 0.2, 0.0, 0.0, 0.4, 0.7, 0.0, 0.0),
    (-0.1, 0.8, -0.5, -0.5, 0.0, 0.0, -1.0, 0.0),
    (-0.9, 0.9, 0.0, 0.0, 0.5, 0.6, 0.0, 0.0),
    (0.7, 0.7, 0.0, 0.4, 0.5, 0.6, 0.0, 0.0),
    (-0.5, 0.0, 0.8, -0.9, 0.0, 0.0, 0.4, 0.8),
    (0.6, 0.2, 1.0, 0.0, 0.0, 0.5, 0.8, 0.5),
    (0.0, 0.3, 0.0, 0.2, 0.0, 0.5, 0.3, 0.0),
    (-0.5, 0.5, 0.5, -0.8, 0.0, 0.5, 0.4, 1.0),
    (0.0, 0.8, -0.2, 0.0, 0.2, 0.0, 0.3, 0.0),
    (0.0, -0.8, 0.2, 0.5, 0.0, 0.0, 0.4, 0.0),
    (-0.4, 0.0, -0.5, 1.0, 0.0, 0.0, -0.3, 0.6),
    (0.2, 0.2, 0.5, -1.0, 0.0, 0.0, -0.6, -0.5),
)


class CitySimError(Exception):
    """Base class for everything this package raises on purpose."""


class ConfigurationError(CitySimError, ValueError):
    """A value, shape, or scenario field is unusable as given."""


class ConsistencyError(CitySimError, RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def require_int(value, what: str) -> int:
    """value as an int, or ConfigurationError naming what when it is not an
    integer. A bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_float_array(values, *, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigurationError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError(f"{what} must have at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class TraitVector:
    """Fixed-length real vector with every coordinate clipped into [0, 1].

    The same type carries individual characteristics (dimension 8 by
    default) and society characteristics (dimension 13 by default); nothing
    here depends on which side it describes.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_float_array(self.values, what="trait vector")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def __len__(self) -> int:
        return self.dim

    def __getitem__(self, index: int) -> float:
        return float(self.values[index])

    def __iter__(self) -> Iterator[float]:
        return iter(self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraitVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inside = ", ".join(format(v, "g") for v in self.values.tolist())
        return f"TraitVector([{inside}])"


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Payoff matrix coupling individual traits (rows) to society traits (columns).

    ``entries[i, j]`` is the contribution of individual trait ``row_names[i]``
    under society trait ``col_names[j]``; every entry lies in [-1, 1].
    """

    entries: np.ndarray
    row_names: tuple[str, ...] = INDIVIDUAL_TRAITS
    col_names: tuple[str, ...] = SOCIETY_TRAITS

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"interaction matrix must be two-dimensional, got shape {arr.shape}"
            )
        rows = tuple(str(n) for n in self.row_names)
        cols = tuple(str(n) for n in self.col_names)
        if arr.shape != (len(rows), len(cols)):
            raise ConfigurationError(
                f"interaction matrix shape {arr.shape} does not match "
                f"{len(rows)} individual traits x {len(cols)} society traits"
            )
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ConfigurationError("trait names must be unique per axis")
        # Names become CSV header cells, which are written unquoted.
        if any(c in name for name in rows + cols for c in ',"\r\n'):
            raise ConfigurationError("trait names must not hold a comma, quote or line break")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("interaction matrix contains non-finite entries")
        if np.any(np.abs(arr) > 1.0):
            raise ConfigurationError("interaction matrix entries must lie in [-1, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "row_names", rows)
        object.__setattr__(self, "col_names", cols)

    @classmethod
    def default(cls) -> "InteractionMatrix":
        """The built-in 8x13 matrix, stored transposed from its printed form."""
        return cls(np.asarray(_DEFAULT_TABLE, dtype=np.float64).T)

    @property
    def individual_dim(self) -> int:
        return int(self.entries.shape[0])

    @property
    def society_dim(self) -> int:
        return int(self.entries.shape[1])

    def lookup(self, individual: str, society: str) -> float:
        """Entry for a named (individual trait, society trait) pair."""
        try:
            i = self.row_names.index(individual)
        except ValueError:
            raise ConfigurationError(
                f"unknown individual trait {individual!r}; choices: {self.row_names}"
            ) from None
        try:
            j = self.col_names.index(society)
        except ValueError:
            raise ConfigurationError(
                f"unknown society trait {society!r}; choices: {self.col_names}"
            ) from None
        return float(self.entries[i, j])

    @classmethod
    def from_csv(cls, path: str | Path) -> "InteractionMatrix":
        """Load a matrix written in printed orientation.

        The header row lists individual trait names; each following row starts
        with a society trait name and continues with one real per individual
        trait.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigurationError(f"{path}: empty matrix file") from None
            row_names = tuple(name.strip() for name in header[1:])
            col_names: list[str] = []
            printed_rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(row_names) + 1:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected {len(row_names) + 1} cells, got {len(row)}"
                    )
                col_names.append(row[0].strip())
                try:
                    printed_rows.append([float(cell) for cell in row[1:]])
                except ValueError as exc:
                    raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
        if not printed_rows:
            raise ConfigurationError(f"{path}: no matrix rows found")
        printed = np.asarray(printed_rows, dtype=np.float64)
        return cls(printed.T, row_names=row_names, col_names=tuple(col_names))

    def to_csv(self, path: str | Path) -> None:
        """Write the matrix in printed orientation (society rows x individual columns)."""
        _write_csv(path, ["", *self.row_names], [np.asarray(self.col_names), *self.entries])


def _write_json(path: str | Path, obj) -> None:
    """Write obj as JSON indented by two spaces, with a final "\n"."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns as CSV rows under header, streaming row by
    row. A cell is str of the column's Python value: the repr of a float,
    the decimal of an integer, a string as it is. Lines end with "\n"."""
    cells = [map(str, col.tolist()) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
