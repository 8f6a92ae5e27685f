"""Representation cell groups: the homology a theory assigns to the pair
(G x_H D(V), G x_H S(V)) for an H-representation V.

D(V) is the product of the disks of V's summands, so the pair (D(V), S(V))
is the product of the cone pairs (C S(V_i), S(V_i)) on the factor spheres:
S^0 with trivial action per trivial summand, S^0 with the swap per sign
summand, and a rotating n-gon circle per rotation plane.  Each cone pair
is its cone with the base left out, and a product of pairs stored that way
is again stored that way, so the pair is one complex and no cell is
marked.  The cellular product carries the Leibniz sign, so boundaries
square to zero; the action permutes cells without orientation reversal by
construction.

The pair is built over H and decomposed into H-cell-orbits there, with
its actions checked at the scale of H.  Induction up to G is then a
relabelling of those orbits: the G-cells of G x_H X are X's H-cells, with
the same stabilizers and records read through H in G.  That gives one
G-CW complex, admitted once, whose cellular chains are the reduced chains
of the pair; each of the four theories is Bredon homology of that complex
for the coefficient system of the same name.

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
from .gcw import CellOrbit, GCWComplex, bredon_chain_complex, cell_orbits
from .groups import FiniteGroup, OrbitMorphism, Subgroup, generated_subgroup

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


@dataclass(eq=False)
class _CellAction:
    """Cells with boundaries and a cellwise group action."""

    group: FiniteGroup
    cells: dict[int, int]
    bnds: dict[int, list[list[tuple[int, int]]]]
    perms: dict[int, dict[int, tuple[int, ...]]]


def _s0(group: FiniteGroup, swap_elems=()) -> _CellAction:
    """Two points; the listed elements swap them, the rest fix them."""
    swap = set(swap_elems)
    perms = {
        s: {0: (1, 0) if s in swap else (0, 1)} for s in group.elements()
    }
    return _CellAction(group, {0: 2}, {0: [[], []]}, perms)


def _ngon(group: FiniteGroup, gen: int, j: int, n: int) -> _CellAction:
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
    return _CellAction(group, {0: n, 1: n}, bnds, perms)


def _cone(S: _CellAction) -> _CellAction:
    """The pair (CS, S) with its base S left out: an apex 0-cell and a cell
    c*s one dimension up per cell s of S.  The boundary of c*v is -apex for
    a vertex v and -c*(boundary of s) otherwise; the action fixes the apex
    and moves c*s as it moves s."""
    cells = {0: 1, **{d + 1: c for d, c in S.cells.items()}}
    bnds = {0: [[]], 1: [[(0, -1)] for _ in range(S.cells[0])],
            **{d + 1: [[(f, -deg) for f, deg in row] for row in rows]
               for d, rows in S.bnds.items() if d}}
    perms = {s: {0: (0,), **{d + 1: p for d, p in ps.items()}}
             for s, ps in S.perms.items()}
    return _CellAction(S.group, cells, bnds, perms)


def _product(X: _CellAction, Y: _CellAction) -> _CellAction:
    """The cellular product over the same group: one cell a x b of dimension
    |a| + |b| per pair of cells, with boundary da x b + (-1)^|a| a x db and
    the diagonal action.  The product of two pairs with their subspaces left
    out is again such a pair."""
    keys: dict[int, list] = {}
    for dx, cx in sorted(X.cells.items()):
        for dy, cy in sorted(Y.cells.items()):
            keys.setdefault(dx + dy, []).extend(
                (dx, i, dy, j) for i in range(cx) for j in range(cy))
    index = {k: n for ks in keys.values() for n, k in enumerate(ks)}
    bnds = {d: [[(index[dx - 1, f, dy, j], deg) for f, deg in X.bnds[dx][i]]
                + [(index[dx, i, dy - 1, f], (-1) ** dx * deg)
                   for f, deg in Y.bnds[dy][j]]
                for dx, i, dy, j in ks]
            for d, ks in keys.items()}
    perms = {s: {d: tuple(index[dx, X.perms[s][dx][i], dy, Y.perms[s][dy][j]]
                          for dx, i, dy, j in ks)
                 for d, ks in keys.items()}
             for s in X.group.elements()}
    return _CellAction(X.group, {d: len(ks) for d, ks in keys.items()},
                       bnds, perms)


def _induce(H: Subgroup, orbits, records) -> GCWComplex:
    """G x_H X from the H-cell-orbits and records of X (cell_orbits over H's
    abstract table, element m standing for H.elements[m]).

    The G-cells of G x_H X are X's H-cells, with the same stabilizers and
    records read through H in G: a stabilizer L becomes the subgroup of G on
    the elements H.elements[m] for m in L, and a record's coset rep m
    becomes H.elements[m].
    """
    up = {L: Subgroup(H.group, tuple(H.elements[m] for m in L.elements))
          for L in {c.stabilizer for cs in orbits.values() for c in cs}}
    cells = {n: tuple(CellOrbit(up[c.stabilizer], c.label) for c in cs)
             for n, cs in orbits.items()}
    boundary = {n: {k: tuple((OrbitMorphism(up[m.source], up[m.target],
                                            (H.elements[m.rep],)), deg)
                             for m, deg in recs)
                    for k, recs in rs.items()}
                for n, rs in records.items()}
    return GCWComplex(H.group, cells, boundary)


def _pair_complex(H: Subgroup, V: RepSpec) -> GCWComplex:
    """The G-CW complex whose cellular chains are the reduced chains of
    (G x_H D(V), G x_H S(V)).  D(V) is the product of the disks of V's
    summands, so the pair is the product, starting from the point (V = 0),
    of the cones on the factor spheres.  It is built and decomposed into
    cell-orbits over H, then induced up to G at orbit level."""
    Ht = H.as_group()
    spheres = [_s0(Ht)] * V.trivial
    if V.sign:
        if H.order != 2:
            raise UnsupportedRep("sign factors need a stabilizer of order 2")
        spheres += [_s0(Ht, swap_elems=[m for m in Ht.elements()
                                        if m != Ht.identity])] * V.sign
    if V.rotations:
        n = H.order
        gen = next((m for m in Ht.elements()
                    if generated_subgroup(Ht, (m,)).order == n), None)
        if gen is None:
            raise UnsupportedRep("rotation planes need a cyclic stabilizer")
        spheres += [_ngon(Ht, gen, j % n, n) for j in V.rotations]

    pair = _CellAction(Ht, {0: 1}, {0: [[]]}, {s: {0: (0,)} for s in Ht.elements()})
    for S in spheres:
        pair = _product(pair, _cone(S))
    return _induce(H, *cell_orbits(Ht, pair.cells, pair.bnds, pair.perms))


def representation_cell_table(H: Subgroup, V: RepSpec, theories=THEORIES,
                              char: int = 0) -> dict[str, HomologySummary]:
    """Graded groups of each theory on the representation cell pair (G x_H
    D(V), G x_H S(V)), by theory: Bredon homology of one pair complex."""
    if not set(theories) <= set(THEORIES):
        raise ValueError(f"theory must be one of {THEORIES}")
    X = _pair_complex(H, V)
    return {th: homology(bredon_chain_complex(X, build_system(X.category, th, char)))
            for th in theories}


def representation_cell_groups(H: Subgroup, V: RepSpec, theory: str,
                               char: int = 0) -> HomologySummary:
    """The groups of one theory on the representation cell pair."""
    return representation_cell_table(H, V, (theory,), char)[theory]
