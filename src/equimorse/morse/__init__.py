"""Numerical equivariant Morse theory on explicit G-manifolds; run_morse
(equimorse.morse.run) takes a fixture from critical points to flow counts.
The surgery of an unstable orbit has one construction, localize_surgery
splicing a PerturbedModel, whose cutoffs CutoffPair.profile evaluates.
"""

from .manifolds import EqFunction, ImplicitGManifold, OrthogonalAction
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
    HNotEquivariant,
    LinearChart,
    AngleChart,
    PerturbedModel,
    SphereFunction,
    localize_surgery,
)
from .flow import FlowBatch, integrate_batch
from .homology import (
    BoundarySquareNonzero,
    MorseData,
    OutsideDeskScale,
    morse_complex,
    morse_differentials,
)
from .run import MorseRun, run_morse

__all__ = [
    "AngleChart",
    "BoundarySquareNonzero",
    "ChartMissing",
    "CriticalPoint",
    "CutoffPair",
    "DegenerateHessian",
    "DeltaTooLarge",
    "EqFunction",
    "FlowBatch",
    "HNotEquivariant",
    "ImplicitGManifold",
    "LinearChart",
    "MorseData",
    "MorseRun",
    "OrthogonalAction",
    "OutsideDeskScale",
    "PerturbedModel",
    "SphereFunction",
    "build_cutoffs",
    "classify",
    "find_critical_points",
    "integrate_batch",
    "localize_surgery",
    "morse_complex",
    "morse_differentials",
    "run_morse",
    "seed_grid",
]
