"""Representation cell groups: the homology a theory assigns to the pair
(G x_H D(V), G x_H S(V)) for an H-representation V.

D(V) is D(V^H) times the disks of V's other summands, so the pair
(D(V), S(V)) is the fixed disk pair (D(V^H), S(V^H)), one cell, times the
cone pairs (C S(V_i), S(V_i)) on the other factor spheres: S^0 with the
swap per sign summand, and a rotating n-gon circle per rotation plane.
The fixed disk only shifts degrees.  This module only turns V into those
pieces; the cells are gcw.CellAction's, whose disk and cone leave the
boundary out and whose product of such pairs does too, so the pair is one
complex and no cell is marked.

The pair is built over H, and CellAction.gcw(H=H) decomposes it into
H-cell-orbits there, with its actions checked at the scale of H, and
admits G x_H X: one G-CW complex whose cellular chains are the reduced
chains of the pair.  Each of the four theories is Bredon homology of that
complex for the coefficient system of the same name.

These groups are the E^1 term of the Morse spectral sequence, but computing
them is exact combinatorics on the homological layer (groups, coefficients,
gcw, complexes): this module imports no numpy and nothing of equimorse.morse.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .coefficients import build_system
from .complexes import HomologySummary, homology
from .errors import InputError
from .gcw import CellAction, GCWComplex, bredon_chain_complex
from .groups import FiniteGroup, OrbitCategory, Subgroup, generated_subgroup

__all__ = [
    "RepSpec",
    "THEORIES",
    "UnsupportedRep",
    "representation_cell_groups",
    "representation_cell_table",
]

THEORIES = ("singular", "fixed-point", "quotient", "quotient-rel-fixed")


class UnsupportedRep(InputError):
    """Representation outside the supported trivial/sign/rotation family."""


@dataclass(frozen=True)
class RepSpec:
    """V = trivial^a + sign^b + one plane per rotation entry.

    sign factors need |H| = 2; a rotation entry j means the chosen generator
    of a cyclic H rotates that plane by 2*pi*j/|H|.
    """

    trivial: int = 0
    sign: int = 0
    rotations: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            counts = [operator.index(n) for n in (self.trivial, self.sign,
                                                  *self.rotations)]
        except TypeError:
            raise UnsupportedRep(
                f"multiplicities and rotation entries must be integers, not "
                f"trivial={self.trivial!r} sign={self.sign!r} "
                f"rotations={self.rotations!r}") from None
        if min(counts[:2]) < 0:
            raise UnsupportedRep(
                f"multiplicities must be nonnegative, not trivial={self.trivial} "
                f"sign={self.sign}")

    @property
    def dim(self) -> int:
        return self.trivial + self.sign + 2 * len(self.rotations)


def _s0(group: FiniteGroup) -> CellAction:
    """The sign sphere: two points that every element but the identity
    swaps."""
    perms = {s: {0: (0, 1) if s == group.identity else (1, 0)}
             for s in group.elements()}
    return CellAction(group, {0: 2}, {0: [[], []]}, perms)


def _ngon(group: FiniteGroup, gen: int, j: int, n: int) -> CellAction:
    """The circle as an n-gon; the generator gen of the cyclic group rotates
    it by j steps."""
    # shift amount per element: solve s = gen^m
    shift = {group.identity: 0}
    cur = group.identity
    for m in range(1, n):
        cur = group.mul[cur][gen]
        shift[cur] = (m * j) % n
    perms = {}
    for s, sh in shift.items():
        p = tuple((i + sh) % n for i in range(n))
        perms[s] = {0: p, 1: p}
    bnds = {
        0: [[] for _ in range(n)],
        1: [[(i, -1), ((i + 1) % n, 1)] for i in range(n)],
    }
    return CellAction(group, {0: n, 1: n}, bnds, perms)


def _pair_complex(H: Subgroup, V: RepSpec) -> GCWComplex:
    """The G-CW complex whose cellular chains are the reduced chains of
    (G x_H D(V), G x_H S(V)): the fixed disk of V's trivial part, one
    cell, times the cones on the sign and rotation spheres.  It is built
    and decomposed into cell-orbits over H, then induced up to G at orbit
    level."""
    Ht = H.as_group()
    if V.sign and H.order != 2:
        raise UnsupportedRep("sign factors need a stabilizer of order 2")
    spheres = [_s0(Ht)] * V.sign
    if V.rotations:
        n = H.order
        gen = next((m for m in Ht.elements()
                    if generated_subgroup(Ht, (m,)).order == n), None)
        if gen is None:
            raise UnsupportedRep("rotation planes need a cyclic stabilizer")
        spheres += [_ngon(Ht, gen, j % n, n) for j in V.rotations]

    pair = CellAction.disk(Ht, V.trivial)
    for S in spheres:
        pair = pair.product(S.cone())
    return pair.gcw(H=H)


def representation_cell_table(H: Subgroup, V: RepSpec, theories=THEORIES,
                              char: int = 0) -> dict[str, HomologySummary]:
    """Graded groups of each theory on the representation cell pair (G x_H
    D(V), G x_H S(V)), by theory: Bredon homology of one pair complex."""
    if not set(theories) <= set(THEORIES):
        raise ValueError(f"theory must be one of {THEORIES}")
    X = _pair_complex(H, V)
    cat = OrbitCategory(X.group)
    return {th: homology(bredon_chain_complex(X, build_system(cat, th, char)))
            for th in theories}


def representation_cell_groups(H: Subgroup, V: RepSpec, theory: str,
                               char: int = 0) -> HomologySummary:
    """The groups of one theory on the representation cell pair."""
    return representation_cell_table(H, V, (theory,), char)[theory]
