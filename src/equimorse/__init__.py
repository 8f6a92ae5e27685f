"""equimorse: equivariant Morse theory at desk scale.

A library and CLI for finite group actions on explicit manifolds and
complexes: exact equivariant jet interpolation, the stable-perturbation
surgery for critical points, Bredon homology of G-CW complexes, Morse
filtrations and their spectral sequences, equivariant Morse complexes from
gradient flow, and Smith-inequality verification.

Each layer is imported when a caller first uses it: `import equimorse`
loads no submodule, and a name of `__all__` imports its defining submodule
on first access (PEP 562), then stays bound here.  So `jet_interpolate`
loads the exact polynomial layer only, and `homology` the homological
stack without numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(("FiniteGroup", "OrbitCategory", "OrbitMorphism", "Subgroup",
                     "compose", "enumerate_subgroups", "orbit_homs"), "groups"),
    **dict.fromkeys(("Jet", "JetNotFixed", "LinearAction", "Polynomial", "bump_poly",
                     "equivariant_average", "equivariant_jet_lift", "jet_interpolate",
                     "taylor_jet"), "polynomials"),
    **dict.fromkeys(("ChainComplex", "HomologySummary", "homology"), "complexes"),
    **dict.fromkeys(("CoefficientSystem", "build_system"), "coefficients"),
    **dict.fromkeys(("GCWComplex", "bredon_chain_complex", "subquotient_complex"), "gcw"),
    **dict.fromkeys(("FilteredComplex", "einfty_check", "spectral_pages"), "spectral"),
    **dict.fromkeys(("SmithReport", "smith_report"), "smith"),
}

__all__ = list(_SOURCES)


def __getattr__(name):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
