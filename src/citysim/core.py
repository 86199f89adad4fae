"""Trait vectors, the interaction matrix, the package's exceptions, the
checkers every config field and every array a value type holds go through
(require_real, require_int, require_unit, require_choice, require_array),
the reader every input goes through (with the CSV row reader both CSV
inputs share) and the two writers every CSV and JSON output goes through.
Every file is read and written as UTF-8.

Everything downstream is built from two primitives: a bounded trait
vector (used for both individuals and the society) and a payoff matrix
coupling the two sides. A person's happiness is the score of their traits
against I theta (society.trait_gain), evaluated once at birth and frozen
for life.
"""

from __future__ import annotations

import io
import json
import math
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


def require_real(value, what: str, low: float, above: bool = False) -> float:
    """value as a finite float that is >= low (> low with above=True), or
    ConfigurationError naming what. A bool is not a number here."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ConfigurationError(f"{what}: expected a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ConfigurationError(f"{what}: expected a number that fits in a float") from None
    if not math.isfinite(real):
        raise ConfigurationError(f"{what} must be finite, got {value}")
    if not (real > low if above else real >= low):
        raise ConfigurationError(f"{what} must be {'>' if above else '>='} {low:g}, got {value}")
    return real


def require_unit(value, what: str) -> float:
    """value as a float in [0, 1], as require_real checks it, or
    ConfigurationError naming what: the rule for every trait coordinate."""
    real = require_real(value, what, 0.0)
    if real > 1.0:
        raise ConfigurationError(f"{what} must be <= 1, got {value}")
    return real


def require_int(value, what: str, low: float = -math.inf) -> int:
    """value as an int >= low, or ConfigurationError naming what, as
    require_real checks it. An integer-valued float counts (2.0 is 2)."""
    if not require_real(value, what, low).is_integer():
        raise ConfigurationError(f"{what}: expected an integer, got {value!r}")
    return int(value)


def require_choice(value, choices, what: str):
    """value if it is one of choices, a sequence of strings or a str Enum
    class (whose member is returned), else ConfigurationError naming what."""
    names = [getattr(c, "value", c) for c in choices]
    if not isinstance(value, str) or value not in names:
        raise ConfigurationError(f"{what}: {value!r} is not one of {names}")
    return choices(value) if isinstance(choices, type) else value


def require_array(values, what: str, ndim: int) -> np.ndarray:
    """values as a read-only float64 copy with ndim axes, none of them
    empty, and every entry finite, or ConfigurationError naming what: the
    array counterpart of require_real, and the one place an array is
    frozen. A copy, so that freezing it leaves the caller's array writable."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ConfigurationError(f"{what} must be {ndim}-D and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _store(obj, **values) -> None:
    """Set the named fields of frozen dataclass obj, as its __post_init__ does
    with the values it has checked."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class TraitVector:
    """Fixed-length real vector with every coordinate in [0, 1]; a
    coordinate outside it is rejected, by position.

    The same type carries individual characteristics (dimension 8 by
    default) and society characteristics (dimension 13 by default); nothing
    here depends on which side it describes.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = require_array(self.values, "trait vector", 1)
        bad = np.flatnonzero((arr < 0.0) | (arr > 1.0))
        if bad.size:
            require_unit(arr[bad[0]], f"trait vector[{bad[0]}]")
        _store(self, values=arr)

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
        arr = require_array(self.entries, "interaction matrix", 2)
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
        if np.any(np.abs(arr) > 1.0):
            raise ConfigurationError("interaction matrix entries must lie in [-1, 1]")
        _store(self, entries=arr, row_names=rows, col_names=cols)

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

    @classmethod
    def from_csv(cls, path: str | Path) -> "InteractionMatrix":
        """Load a matrix written in printed orientation.

        The header row lists individual trait names; each following row starts
        with a society trait name and continues with one real per individual
        trait. Every error, the matrix's own checks included, names the file.
        """
        header, rows = _read_csv(path, "matrix")
        row_names = tuple(name.strip() for name in header[1:])
        col_names: list[str] = []
        printed_rows: list[list[float]] = []
        for lineno, row in rows:
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
        try:
            return cls(np.transpose(printed_rows), row_names=row_names, col_names=tuple(col_names))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    def to_csv(self, path: str | Path) -> None:
        """Write the matrix in printed orientation (society rows x individual columns)."""
        _write_csv(path, ["", *self.row_names], [np.asarray(self.col_names), *self.entries])


def _read_text(path: str | Path) -> str:
    """The file's text decoded as UTF-8, line ends as they are. Bytes that
    are not UTF-8 end in a ConfigurationError naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _read_csv(path: str | Path, what: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header of a CSV file and an iterator over its other rows, each
    with its line number. Blank rows, with no cell holding more than
    whitespace, are skipped. A file with no header ends in "<path>: empty
    <what> file"."""
    import csv  # only the two input readers need it

    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigurationError(f"{path}: empty {what} file") from None
    return header, ((reader.line_num, row) for row in reader if any(map(str.strip, row)))


def _write_json(path: str | Path, obj) -> None:
    """Write obj as JSON indented by two spaces, with a final "\n". Every
    float that is not finite (nan, inf) is written as null, so a strict
    parser reads the file: a first dump reads back with them as None."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    Path(path).write_text(json.dumps(plain, indent=2, allow_nan=False) + "\n", encoding="utf-8")


# _write_csv turns at most this many rows into cells at a time, which
# bounds its memory by the chunk, not by the file.
_CSV_CHUNK_ROWS = 65_536


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns as CSV rows under header. A cell is str
    of the column's Python value: the repr of a float, the decimal of an
    integer, a string as it is. Lines end with "\n". The rows go out in
    chunks of _CSV_CHUNK_ROWS: each column of a chunk is turned into its
    cells, each distinct number once (see _column_cells), and the last
    column's cells carry the line end, so each row is one C-level join of
    its cells. Neither the whole text nor every cell of the file is ever
    held at once."""
    last = len(columns) - 1
    rows = min((len(col) for col in columns), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            chunk = (col[start : start + _CSV_CHUNK_ROWS] for col in columns)
            cells = [_column_cells(col, "\n" if i == last else "") for i, col in enumerate(chunk)]
            fh.writelines(map(",".join, zip(*cells)))


def _column_cells(col: np.ndarray, end: str = "") -> list[str]:
    """The CSV cells of one column, in order, each followed by end. A
    number column (bool, integer or float) formats each distinct value
    once, end included, and gives every cell holding it that one string. A
    float is keyed by its bits, not its value: -0.0 stays apart from 0.0,
    and a nan, equal to nothing, is still formatted once per payload. A
    string or object column is formatted cell by cell."""
    kind = col.dtype.kind
    if kind in "biuf" and col.itemsize <= 8:
        key = col.view(f"i{col.itemsize}") if kind == "f" else col
        distinct, inverse = np.unique(key, return_inverse=True)
        values = distinct.view(col.dtype).tolist()
        return np.array([str(v) + end for v in values], dtype=object)[inverse].tolist()
    cells = col.tolist() if kind == "U" else list(map(str, col.tolist()))
    return [cell + end for cell in cells] if end else cells
