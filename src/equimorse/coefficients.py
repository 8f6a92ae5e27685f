"""Bredon coefficient systems: functors from the orbit category to finitely
generated free modules over Z or F_p.

Every built-in system is an H-quotient / K-fixed-point functor on orbits:
the value at G/L is the free module on the K-fixed H-orbit classes of G/L,
and a morphism sends each basis class to a basis class or to 0, so a
system is its subquotient rule.  This uniformly realizes

    constant / quotient    (H = G)            H_0((G/L)/G)
    singular               (H = e, K = e)     H_0(G/L)
    fixed-point            (H = e, K = G)     H_0((G/L)^G)
    quotient-rel-fixed     relative variant   H_0((G/L)/G, (G/L)^G)
    general (H, K)                            H_0(((G/L)/H)^K)

A system stores no table: its ranks read the classes of its group's coset
tables (FiniteGroup.orbit_classes), and the image of each class under a
morphism is read from the group's double cosets on each call, so every
system over one group shares the tables, whatever its category object.
"""

from __future__ import annotations

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
    "InvalidSubgroup",
    "SUBQUOTIENTS",
    "SYSTEM_KINDS",
    "build_system",
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


class CoefficientSystem:
    """The covariant functor L -> H_0(((G/L)/H)^K) over cat, with K
    normalizing H; char 0 means Z.

    relative makes it H_0 relative to the G-fixed points: rank 0 wherever
    G/L has a G-fixed point (only G/G does), the rule of
    quotient-rel-fixed.  A basis class is named by its least element.
    """

    def __init__(self, cat: OrbitCategory, char: int, H: Subgroup, K: Subgroup,
                 relative: bool = False):
        self.cat = cat
        self.char = char
        self.H = H
        self.K = K
        # the (e, G) pair whose classes of G/L are its G-fixed points
        self._fixed = subquotient("fixed-point", cat.group) if relative else None

    def _classes(self, L: Subgroup) -> tuple[tuple[int, ...], ...]:
        """The basis of the value at G/L: its K-fixed H-classes, or none
        where the relative rule kills it."""
        if self._fixed and self.cat.group.orbit_classes(L, *self._fixed):
            return ()
        return self.cat.group.orbit_classes(L, self.H, self.K)

    def rank(self, L: Subgroup) -> int:
        return len(self._classes(L))

    def images(self, m: OrbitMorphism) -> tuple[int | None, ...]:
        """For each basis class of the source, the index of its image class
        in the target, or None where the map sends it to 0.  A K-fixed
        class maps to a K-fixed class, so None arises only when the
        relative rule gives the target rank 0."""
        src = self._classes(m.source)
        if not src:
            return ()
        mul, x = self.cat.group.mul, m.rep
        table = self.cat.group.double_cosets(self.H, m.target)
        index = {c[0]: i for i, c in enumerate(self._classes(m.target))}
        return tuple([index.get(table[mul[dc[0]][x]][0]) for dc in src])

    def __repr__(self):
        return (f"CoefficientSystem(H={self.H.elements}, K={self.K.elements}, "
                f"relative={self._fixed is not None}, char={self.char}, "
                f"G={self.cat.group.name})")


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
    if kind == "general":
        if H is None or K is None:
            raise InvalidSubgroup("general kind needs subgroups H and K")
        if H.group != G or K.group != G:
            raise InvalidSubgroup("H and K must be subgroups of the category's group")
        nset = set(normalizer(G, H).elements)
        if not set(K.elements) <= nset:
            raise InvalidSubgroup("K must normalize H to act on the H-quotient")
        return CoefficientSystem(cat, char, H, K)
    # quotient-rel-fixed takes the quotient's pair under the relative rule
    relative = kind == "quotient-rel-fixed"
    Hq, Kf = subquotient("quotient" if relative else kind, G)
    return CoefficientSystem(cat, char, Hq, Kf, relative)
