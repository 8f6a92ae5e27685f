"""Bredon coefficient systems: functors from the orbit category to finitely
generated free modules over Z or F_p.

Every built-in system is an H-quotient / K-fixed-point functor on orbits:
the value at G/L is the free module on the K-fixed H-orbit classes of G/L,
and morphisms induce the evident basis maps.  This uniformly realizes

    constant / quotient    (H = G)            H_0((G/L)/G)
    singular               (H = e, K = e)     H_0(G/L)
    fixed-point            (H = e, K = G)     H_0((G/L)^G)
    quotient-rel-fixed     relative variant   H_0((G/L)/G, (G/L)^G)
    general (H, K)                            H_0(((G/L)/H)^K)

The classes and the double cosets that name the basis maps are read from
the orbit category's coset tables (OrbitCategory.orbit_classes and
double_cosets), so systems built over one category share them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._intlinalg import Matrix
from .groups import (
    FiniteGroup,
    OrbitCategory,
    OrbitMorphism,
    Subgroup,
    full_subgroup,
    normalizer,
    trivial_subgroup,
)

__all__ = [
    "CoefficientSystem",
    "FreeModule",
    "InvalidSubgroup",
    "SUBQUOTIENTS",
    "SYSTEM_KINDS",
    "build_system",
    "induced_matrix",
    "subquotient",
]

SYSTEM_KINDS = (
    "constant",
    "singular",
    "fixed-point",
    "quotient",
    "quotient-rel-fixed",
    "general",
)


# kind -> (H, K) as functions of the group, for the kinds whose value at
# G/L is H_0(((G/L)/H)^K); the cellular complexes (X/H)^K of the same pairs
# are their oracles
SUBQUOTIENTS = {
    "constant": (full_subgroup, trivial_subgroup),
    "quotient": (full_subgroup, trivial_subgroup),
    "singular": (trivial_subgroup, trivial_subgroup),
    "fixed-point": (trivial_subgroup, full_subgroup),
}


def subquotient(kind: str, G: FiniteGroup) -> tuple[Subgroup, Subgroup]:
    """The subgroups (H, K) of G for a kind in SUBQUOTIENTS."""
    H, K = SUBQUOTIENTS[kind]
    return H(G), K(G)


class InvalidSubgroup(ValueError):
    """Parameters must name subgroups compatible with the requested kind."""


@dataclass(frozen=True)
class FreeModule:
    """Free module of finite rank with labelled basis; char 0 means Z."""

    char: int
    rank: int
    labels: tuple = ()

    def __post_init__(self):
        if self.labels and len(self.labels) != self.rank:
            raise ValueError("label count must match rank")


class CoefficientSystem:
    """A functor on the orbit category, stored as explicit value modules and
    induced matrices over all precomputed hom-sets.

    variance is "covariant" (homology) or "contravariant" (cohomology); the
    contravariant version of a built-in system stores transposed matrices
    against reversed arrows.
    """

    def __init__(self, cat: OrbitCategory, char: int, variance: str,
                 values: dict, induced: dict, name: str = ""):
        if variance not in ("covariant", "contravariant"):
            raise ValueError(f"unknown variance {variance!r}")
        self.cat = cat
        self.char = char
        self.variance = variance
        self.values = values          # Subgroup -> FreeModule
        self.induced = induced        # OrbitMorphism -> Matrix
        self.name = name or "system"

    def value(self, H: Subgroup) -> FreeModule:
        return self.values[H]

    def opposite(self) -> "CoefficientSystem":
        """The same data with arrows reversed and matrices transposed."""
        flipped = {}
        for m, M in self.induced.items():
            # a covariant matrix maps the source value to the target value
            rows, cols = ((m.target, m.source) if self.variance == "covariant"
                          else (m.source, m.target))
            nrows, ncols = self.values[rows].rank, self.values[cols].rank
            flipped[m] = tuple(
                tuple(M[i][j] for i in range(nrows)) for j in range(ncols)
            )
        newvar = "contravariant" if self.variance == "covariant" else "covariant"
        return CoefficientSystem(
            self.cat, self.char, newvar, dict(self.values), flipped,
            name=self.name + ".op",
        )

    def __repr__(self):
        return (f"CoefficientSystem({self.name}, {self.variance}, "
                f"char={self.char}, G={self.cat.group.name})")


def induced_matrix(M: CoefficientSystem, f: OrbitMorphism) -> Matrix:
    """The matrix of M on a morphism, in the stored bases."""
    return M.induced[f]


def build_system(cat: OrbitCategory, kind: str, char: int = 0,
                 H: Subgroup | None = None, K: Subgroup | None = None,
                 ) -> CoefficientSystem:
    """Construct one of the built-in coefficient systems over the category.

    kind "general" takes the subgroups H and K with K inside the normalizer
    of H; the other kinds ignore the parameters.
    """
    G = cat.group
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    relative_fixed = kind == "quotient-rel-fixed"
    if kind == "general":
        if H is None or K is None:
            raise InvalidSubgroup("general kind needs subgroups H and K")
        if H.group != G or K.group != G:
            raise InvalidSubgroup("H and K must be subgroups of the category's group")
        nset = set(normalizer(G, H).elements)
        if not set(K.elements) <= nset:
            raise InvalidSubgroup("K must normalize H to act on the H-quotient")
        Hq, Kf = H, K
    else:
        # quotient-rel-fixed takes the quotient's pair, with its own value
        # rule below
        Hq, Kf = subquotient("quotient" if relative_fixed else kind, G)

    values: dict = {}
    classes: dict = {}
    for L in cat.objects:
        cls = cat.orbit_classes(L, Hq, Kf)
        if relative_fixed:
            # H_0 of (orbit)/G relative to the image of the G-fixed points:
            # rank 1 unless the orbit has a G-fixed point (only G/G does)
            fixed_pts = cat.orbit_classes(L, *subquotient("fixed-point", G))
            cls = () if fixed_pts else cls
        classes[L] = cls
        values[L] = FreeModule(char, len(cls), cls)

    induced: dict = {}
    for (A, B), homs in cat.homs.items():
        src = classes[A]
        tgt = classes[B]
        # a class is named by its least element
        tgt_index = {c[0]: i for i, c in enumerate(tgt)}
        table = cat.double_cosets(Hq, B)
        for m in homs:
            x = m.rep
            mat = [[0] * len(src) for _ in range(len(tgt))]
            for col, dc in enumerate(src):
                row = tgt_index.get(table[G.mul[dc[0]][x]][0])
                if row is not None:
                    mat[row][col] = 1
                # a K-fixed class can only map to a K-fixed class, so for the
                # plain kinds row is always found; in the relative kind the
                # target may have rank 0 and the map is zero
            induced[m] = tuple(tuple(r) for r in mat)
    return CoefficientSystem(cat, char, "covariant", values, induced, name=kind)
