"""Graph-normalization dynamics for maximum-weight independent sets."""

from .graph import (
    GraphError,
    MisSolution,
    WeightedGraph,
    build_graph,
    erdos_renyi,
)
from .dynamics import (
    GammaSchedule,
    NormalizationError,
    SolveTrace,
    energy,
    fitness,
    gn_step,
    init_random,
    init_warm,
    is_normalizable,
    round_to_mis,
    run_wrgn,
    simplex_state,
    weighted_mass,
)

__version__ = "0.1.0"

__all__ = [
    "GammaSchedule",
    "GraphError",
    "MisSolution",
    "NormalizationError",
    "SolveTrace",
    "WeightedGraph",
    "build_graph",
    "energy",
    "erdos_renyi",
    "fitness",
    "gn_step",
    "init_random",
    "init_warm",
    "is_normalizable",
    "round_to_mis",
    "run_wrgn",
    "simplex_state",
    "weighted_mass",
    "__version__",
]
