"""Numerical equivariant Morse theory on explicit G-manifolds."""

from .manifolds import EqFunction, ImplicitGManifold
from .cutoffs import CutoffPair, DeltaTooLarge, build_cutoffs
from .critical import (
    CriticalPoint,
    DegenerateHessian,
    classify,
    find_critical_points,
    seed_grid,
)
from .perturb import (
    ChartMissing,
    EpsilonTooLarge,
    HNotEquivariant,
    LinearChart,
    AngleChart,
    PerturbedModel,
    SphereFunction,
    localize_surgery,
    stable_perturb,
)
from .flow import Trajectory, integrate_batch
from .homology import (
    BoundarySquareNonzero,
    MorseData,
    morse_complex,
    morse_differentials,
    morse_filtration,
)
from .repcells import RepSpec, UnsupportedRep, representation_cell_groups

__all__ = [
    "AngleChart",
    "BoundarySquareNonzero",
    "ChartMissing",
    "CriticalPoint",
    "CutoffPair",
    "DegenerateHessian",
    "DeltaTooLarge",
    "EqFunction",
    "EpsilonTooLarge",
    "HNotEquivariant",
    "ImplicitGManifold",
    "LinearChart",
    "MorseData",
    "PerturbedModel",
    "RepSpec",
    "SphereFunction",
    "Trajectory",
    "UnsupportedRep",
    "build_cutoffs",
    "classify",
    "find_critical_points",
    "integrate_batch",
    "localize_surgery",
    "morse_complex",
    "morse_differentials",
    "morse_filtration",
    "representation_cell_groups",
    "seed_grid",
    "stable_perturb",
]
