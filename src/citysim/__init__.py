"""Co-evolution simulator: a trait-vector population and a society vector
shaping each other through matchmaking and gradient ascent.

Importing the package loads the simulation modules only. The analysis
names (KMeansResult, classical_mds, kmeans) and the equilibrium names
(BimatrixGame, DegeneracyReport, Equilibrium, pure_nash,
support_enumeration_report, verify_equilibrium) are served on first read:
the module is imported then, and the name is stored in this module's
globals, so later reads are plain lookups.
"""

import importlib

from .core import (
    INDIVIDUAL_TRAITS,
    SOCIETY_TRAITS,
    CitySimError,
    ConfigurationError,
    ConsistencyError,
    InteractionMatrix,
    TraitVector,
)
from .demographics import (
    DemographicsParams,
    born_batch,
    lifespan,
    mating_gap,
    mating_success_threshold,
)
from .engine import (
    MatchingConfig,
    PopulationGroup,
    SimConfig,
    TimeSeriesLog,
    init_population,
    named_stream,
    run,
    write_run_outputs,
)
from .matching import (
    MatchMode,
    expected_pair_weights,
    grid_distances,
    rank_pair_indices,
    score,
)
from .presets import PRESETS, get_preset
from .scenario import (
    Scenario,
    dump_scenario,
    load_scenario,
    scenario_from_mapping,
)
from .society import (
    LearningRateSchedule,
    society_gradient,
    society_path,
    trait_gain,
)

__version__ = "0.1.0"

# Names read from a submodule on first use, each with its submodule.
_LAZY = {
    "KMeansResult": "analysis",
    "classical_mds": "analysis",
    "kmeans": "analysis",
    "BimatrixGame": "equilibrium",
    "DegeneracyReport": "equilibrium",
    "Equilibrium": "equilibrium",
    "pure_nash": "equilibrium",
    "support_enumeration_report": "equilibrium",
    "verify_equilibrium": "equilibrium",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "INDIVIDUAL_TRAITS",
    "SOCIETY_TRAITS",
    "PRESETS",
    "BimatrixGame",
    "CitySimError",
    "ConfigurationError",
    "ConsistencyError",
    "DegeneracyReport",
    "DemographicsParams",
    "Equilibrium",
    "InteractionMatrix",
    "KMeansResult",
    "LearningRateSchedule",
    "MatchMode",
    "MatchingConfig",
    "PopulationGroup",
    "Scenario",
    "SimConfig",
    "TimeSeriesLog",
    "TraitVector",
    "born_batch",
    "classical_mds",
    "dump_scenario",
    "expected_pair_weights",
    "get_preset",
    "grid_distances",
    "init_population",
    "kmeans",
    "lifespan",
    "load_scenario",
    "mating_gap",
    "mating_success_threshold",
    "named_stream",
    "pure_nash",
    "rank_pair_indices",
    "run",
    "scenario_from_mapping",
    "score",
    "society_gradient",
    "society_path",
    "support_enumeration_report",
    "trait_gain",
    "verify_equilibrium",
    "write_run_outputs",
]
