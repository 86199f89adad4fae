"""Co-evolution simulator: a trait-vector population and a society vector
shaping each other through matchmaking and gradient ascent."""

from .analysis import KMeansResult, PointSet, classical_mds, kmeans
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
from .equilibrium import (
    BimatrixGame,
    DegeneracyReport,
    Equilibrium,
    pure_nash,
    support_enumeration,
    support_enumeration_report,
    verify_equilibrium,
)
from .matching import (
    MatchMode,
    expected_pair_weights,
    grid_distances,
    rank_pair_indices,
    score,
)
from .presets import PRESETS, get_preset, preset_names
from .scenario import (
    Scenario,
    dump_scenario,
    load_scenario,
    normalize_scenario,
    scenario_from_mapping,
)
from .society import (
    LearningRateSchedule,
    society_gradient,
    society_path,
    trait_gain,
)

__version__ = "0.1.0"

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
    "PointSet",
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
    "normalize_scenario",
    "preset_names",
    "pure_nash",
    "rank_pair_indices",
    "run",
    "scenario_from_mapping",
    "score",
    "society_gradient",
    "society_path",
    "support_enumeration",
    "support_enumeration_report",
    "trait_gain",
    "verify_equilibrium",
    "write_run_outputs",
]
