"""Scenario files: the YAML surface over SimConfig.

A scenario file is a mapping with a required seed and population, plus
optional sections mirroring the config dataclasses. Trait vectors are
either full-length lists or name-to-value mappings (unnamed coordinates
default to 0.5). Unknown keys anywhere are an error, and every diagnostic
names the offending field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import ConfigurationError, InteractionMatrix, TraitVector, _read_text, require_unit
from .demographics import DemographicsParams
from .engine import MatchingConfig, PopulationGroup, SimConfig
from .society import LearningRateSchedule

__all__ = [
    "Scenario",
    "load_scenario",
    "scenario_from_mapping",
    "dump_scenario",
]

_NEUTRAL_LEVEL = 0.5

# Scenario sections, each the SimConfig field of the same name; a section's
# keys are exactly its dataclass's fields.
_SECTIONS = {
    "demographics": DemographicsParams,
    "matching": MatchingConfig,
    "schedule": LearningRateSchedule,
}


@dataclass(frozen=True)
class Scenario:
    """A named, runnable configuration plus its file-level extras."""

    name: str
    config: SimConfig
    out_dir: str | None = None
    preset: str | None = None
    interaction_source: str = "default"


def _require_mapping(obj, field: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{field}: expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(data: dict, allowed: set[str], field: str) -> None:
    # YAML keys need not be strings (5: 1), so unknown keys are named by text.
    unknown = sorted(str(key) for key in set(data) - allowed)
    if unknown:
        raise ConfigurationError(f"{field}: unknown key(s) {', '.join(unknown)}")


def _parse_trait_vector(value, names: tuple[str, ...], field: str) -> TraitVector:
    if isinstance(value, dict):
        bad = sorted(str(key) for key in set(value) - set(names))
        if bad:
            raise ConfigurationError(f"{field}: unknown trait name(s) {', '.join(bad)}")
        raw = [value.get(n, _NEUTRAL_LEVEL) for n in names]
    elif isinstance(value, (list, tuple)):
        if len(value) != len(names):
            raise ConfigurationError(
                f"{field}: expected {len(names)} values, got {len(value)}"
            )
        raw = value
    else:
        raise ConfigurationError(
            f"{field}: expected a list of {len(names)} values or a name mapping"
        )
    return TraitVector([require_unit(v, f"{field}.{name}") for name, v in zip(names, raw)])


def _parse_section(cls, data, field: str):
    """Build config dataclass cls from a scenario section whose keys are
    exactly cls's fields."""
    _require_mapping(data, field)
    names = {f.name for f in dataclasses.fields(cls)}
    _reject_unknown(data, names, field)
    try:
        return cls(**data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{field}: {exc}") from None


def _dump_section(obj) -> dict:
    """A config dataclass as a scenario section: every field, enums by value."""
    doc = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = value.value if isinstance(value, Enum) else value
    return doc


def _parse_population(data, interaction: InteractionMatrix) -> tuple[PopulationGroup, ...]:
    if not isinstance(data, list) or not data:
        raise ConfigurationError("population: expected a nonempty list of groups")
    groups = []
    for i, entry in enumerate(data):
        field = f"population[{i}]"
        _require_mapping(entry, field)
        _reject_unknown(entry, {"count", "mean", "std"}, field)
        if "count" not in entry or "mean" not in entry:
            raise ConfigurationError(f"{field}: count and mean are required")
        mean = _parse_trait_vector(entry["mean"], interaction.row_names, f"{field}.mean")
        try:
            groups.append(PopulationGroup(**{**entry, "mean": mean}))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{field}: {exc}") from None
    return tuple(groups)


# Root keys that are SimConfig fields of the same name and kind.
_ROOT_SCALARS = ("mating_period", "max_time", "log_every", "success_pop_scope")

_ROOT_KEYS = {
    "name", "seed", "population", "theta0", "interaction", "grid", "out", "preset",
    *_SECTIONS, *_ROOT_SCALARS,
}


def scenario_from_mapping(
    data: dict, name_default: str = "scenario", base_dir: Path | None = None
) -> Scenario:
    """Resolve a parsed mapping into a Scenario; diagnostics name fields."""
    _require_mapping(data, "scenario")
    _reject_unknown(data, _ROOT_KEYS, "scenario")
    if "seed" not in data:
        raise ConfigurationError("seed: required")

    source = data.get("interaction", "default")
    if not isinstance(source, str):
        raise ConfigurationError("interaction: expected 'default' or a CSV path")
    if source == "default":
        interaction = InteractionMatrix.default()
    else:
        csv_path = Path(source)
        if not csv_path.is_absolute() and base_dir is not None:
            csv_path = base_dir / csv_path
        if not csv_path.exists():
            raise ConfigurationError(f"interaction: file not found: {csv_path}")
        interaction = InteractionMatrix.from_csv(csv_path)
        # Absolute, so a dump written to any directory loads the same file.
        source = str(csv_path.resolve())

    if "population" not in data:
        raise ConfigurationError("population: required")
    groups = _parse_population(data["population"], interaction)

    if "theta0" in data:
        theta0 = _parse_trait_vector(data["theta0"], interaction.col_names, "theta0")
    else:
        theta0 = TraitVector([_NEUTRAL_LEVEL] * interaction.society_dim)

    config = SimConfig(
        seed=data["seed"],
        groups=groups,
        theta0=theta0,
        interaction=interaction,
        **{key: _parse_section(cls, data.get(key, {}), key) for key, cls in _SECTIONS.items()},
        grid=data.get("grid"),
        **{key: data[key] for key in _ROOT_SCALARS if key in data},
    )
    name = data.get("name", name_default)
    if not isinstance(name, str) or not name:
        raise ConfigurationError("name: expected a nonempty string")
    out_dir = data.get("out")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigurationError("out: expected a path string")
    preset = data.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigurationError("preset: expected a string")
    return Scenario(
        name=name,
        config=config,
        out_dir=out_dir,
        preset=preset,
        interaction_source=source,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file."""
    import yaml  # only scenario files and dumps need it, so presets skip its import

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"scenario file not found: {path}")
    try:
        data = yaml.safe_load(_read_text(path))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: parse error: {exc}") from None
    if data is None:
        raise ConfigurationError(f"{path}: file is empty")
    return scenario_from_mapping(data, name_default=path.stem, base_dir=path.parent)


def dump_scenario(scenario: Scenario) -> str:
    """Canonical YAML for a Scenario: every field explicit, vectors as lists.

    load(dump(s)) resolves back to an equal Scenario, and dumping is
    idempotent, which is what makes the normalized form usable as a
    round-trip oracle.
    """
    import yaml

    cfg = scenario.config
    doc: dict = {
        "name": scenario.name,
        "seed": cfg.seed,
        "theta0": [float(v) for v in cfg.theta0.values],
        "population": [
            {
                "count": g.count,
                "mean": [float(v) for v in g.mean.values],
                "std": list(g.std),
            }
            for g in cfg.groups
        ],
        "interaction": scenario.interaction_source,
        **{key: _dump_section(getattr(cfg, key)) for key in _SECTIONS},
        **{key: getattr(cfg, key) for key in _ROOT_SCALARS},
    }
    if cfg.grid is not None:
        doc["grid"] = [cfg.grid[0], cfg.grid[1]]
    if scenario.out_dir is not None:
        doc["out"] = scenario.out_dir
    if scenario.preset is not None:
        doc["preset"] = scenario.preset
    return yaml.safe_dump(doc, sort_keys=False)
