"""Representation cell groups: the homology a theory assigns to the pair
(G x_H D(V), G x_H S(V)) for an H-representation V.

The pair is modelled by the sphere S(V + R) with a fixed basepoint pole on
the added trivial coordinate: D(V)/S(V) is that sphere with the pole
collapsed.  S(V + R) itself is an iterated join of factor spheres: S^0 with
trivial action per trivial summand, S^0 with the swap per sign summand, and
a rotating n-gon circle per rotation plane.  Joins use the shifted tensor
convention on augmented complexes, so boundaries come with signs and square
to zero; the action permutes cells without orientation reversal by
construction.

Induced up to G and with the pole copies left out, the cells are the G-CW
data of the reduced chains of the pair, and each of the four theories is
Bredon homology of that pair for the coefficient system of the same name.

These groups are the E^1 term of the Morse spectral sequence, but computing
them is exact combinatorics on the homological layer (groups, coefficients,
gcw, complexes): this module imports no numpy and nothing of equimorse.morse,
which re-exports RepSpec, UnsupportedRep and representation_cell_groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coefficients import build_system
from .complexes import HomologySummary, homology
from .errors import InputError
from .gcw import GCWComplex, bredon_chain_complex, gcw_from_cells
from .groups import FiniteGroup, Subgroup, left_cosets

__all__ = [
    "RepSpec",
    "THEORIES",
    "UnsupportedRep",
    "representation_cell_groups",
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
        if self.trivial < 0 or self.sign < 0:
            raise UnsupportedRep(
                f"multiplicities must be nonnegative, not trivial={self.trivial} "
                f"sign={self.sign}")

    @property
    def dim(self) -> int:
        return self.trivial + self.sign + 2 * len(self.rotations)


@dataclass(eq=False)
class _CellAction:
    """Cells with boundaries and a cellwise group action, plus marks."""

    group: FiniteGroup
    cells: dict[int, int]
    bnds: dict[int, list[list[tuple[int, int]]]]
    perms: dict[int, dict[int, tuple[int, ...]]]
    marked: set = field(default_factory=set)


def _s0(group: FiniteGroup, swap_elems=()) -> _CellAction:
    """Two points; the listed elements swap them, the rest fix them."""
    swap = set(swap_elems)
    perms = {
        s: {0: (1, 0) if s in swap else (0, 1)} for s in group.elements()
    }
    return _CellAction(group, {0: 2}, {0: [[], []]}, perms)


def _ngon(group: FiniteGroup, gen: int, j: int, n: int) -> _CellAction:
    """The circle as an n-gon; the generator rotates by j steps."""
    # shift amount per element: solve s = gen^m
    shift = {group.identity: 0}
    cur = group.identity
    for m in range(1, n):
        cur = group.mul[cur][gen]
        shift[cur] = (m * j) % n
    if len(shift) != group.order:
        raise UnsupportedRep("rotation planes need a cyclic stabilizer")
    perms = {}
    for s, sh in shift.items():
        p = tuple((i + sh) % n for i in range(n))
        perms[s] = {0: p, 1: p}
    bnds = {
        0: [[] for _ in range(n)],
        1: [[(i, -1), ((i + 1) % n, 1)] for i in range(n)],
    }
    return _CellAction(group, {0: n, 1: n}, bnds, perms)


def _join(X: _CellAction, Y: _CellAction) -> _CellAction:
    """Join of two cell actions over the same group: cells of X, cells of Y,
    and one (a, b) cell of dimension |a| + |b| + 1 per pair.  Boundary signs
    follow the shifted tensor of augmented complexes."""
    G = X.group
    dims = set()
    for d in X.cells:
        dims.add(d)
    for d in Y.cells:
        dims.add(d)
    for dx in X.cells:
        for dy in Y.cells:
            dims.add(dx + dy + 1)

    index: dict = {}
    counts: dict[int, int] = {}

    def add(kind, key, dim):
        i = counts.get(dim, 0)
        counts[dim] = i + 1
        index[(kind, key)] = (dim, i)

    for d in sorted(X.cells):
        for i in range(X.cells[d]):
            add("x", (d, i), d)
    for d in sorted(Y.cells):
        for i in range(Y.cells[d]):
            add("y", (d, i), d)
    for dx in sorted(X.cells):
        for dy in sorted(Y.cells):
            for i in range(X.cells[dx]):
                for j in range(Y.cells[dy]):
                    add("j", (dx, i, dy, j), dx + dy + 1)

    bnds: dict[int, list] = {d: [[] for _ in range(c)] for d, c in counts.items()}

    def out(dim, i, face_dim, face_idx, deg):
        bnds[dim][i].append((face_idx, deg))
        assert face_dim == dim - 1

    for d in X.cells:
        for i in range(X.cells[d]):
            dim, idx = index[("x", (d, i))]
            for f, deg in X.bnds[d][i]:
                out(dim, idx, *index[("x", (d - 1, f))], deg)
    for d in Y.cells:
        for i in range(Y.cells[d]):
            dim, idx = index[("y", (d, i))]
            for f, deg in Y.bnds[d][i]:
                out(dim, idx, *index[("y", (d - 1, f))], deg)
    for dx in X.cells:
        for dy in Y.cells:
            for i in range(X.cells[dx]):
                for j in range(Y.cells[dy]):
                    dim, idx = index[("j", (dx, i, dy, j))]
                    if dx == 0:
                        # augmentation of the X factor: the Y cell appears
                        out(dim, idx, *index[("y", (dy, j))], 1)
                    else:
                        for f, deg in X.bnds[dx][i]:
                            out(dim, idx, *index[("j", (dx - 1, f, dy, j))], deg)
                    sign = (-1) ** (dx + 1)
                    if dy == 0:
                        out(dim, idx, *index[("x", (dx, i))], sign)
                    else:
                        for f, deg in Y.bnds[dy][j]:
                            out(dim, idx, *index[("j", (dx, i, dy - 1, f))],
                                sign * deg)

    perms: dict = {}
    for s in G.elements():
        p: dict[int, list] = {d: [0] * c for d, c in counts.items()}
        for (kind, key), (dim, idx) in index.items():
            if kind == "x":
                d, i = key
                tgt = index[("x", (d, X.perms[s][d][i]))]
            elif kind == "y":
                d, i = key
                tgt = index[("y", (d, Y.perms[s][d][i]))]
            else:
                dx, i, dy, j = key
                tgt = index[("j", (dx, X.perms[s][dx][i], dy, Y.perms[s][dy][j]))]
            p[dim][idx] = tgt[1]
        perms[s] = {d: tuple(v) for d, v in p.items()}

    marked = set()
    for (d, i) in X.marked:
        marked.add(index[("x", (d, i))])
    for (d, i) in Y.marked:
        marked.add(index[("y", (d, i))])
    return _CellAction(G, counts, bnds, perms, marked)


def _induce(G: FiniteGroup, H: Subgroup, C: _CellAction) -> _CellAction:
    """G x_H C: one copy of C per coset of H, with the translated action.

    C's group must be H's abstract table, element m of it standing for
    H.elements[m].
    """
    cosets = left_cosets(G, H)
    reps = [c[0] for c in cosets]
    rep_index = {}
    helem_for = {}
    hindex = {g: m for m, g in enumerate(H.elements)}
    for ci, coset in enumerate(cosets):
        for g in coset:
            rep_index[g] = ci
            # g = rep * h
            h = G.mul[G.inverse[reps[ci]]][g]
            helem_for[g] = hindex[h]

    ncos = len(cosets)
    cells = {d: ncos * c for d, c in C.cells.items()}
    bnds = {}
    for d, per_cell in C.bnds.items():
        rows = []
        for ci in range(ncos):
            for i in range(C.cells[d]):
                rows.append([(ci * C.cells[d - 1] + f, deg)
                             for f, deg in per_cell[i]])
        bnds[d] = rows

    perms = {}
    for g in G.elements():
        p = {}
        for d, cnt in C.cells.items():
            arr = [0] * (ncos * cnt)
            for ci in range(ncos):
                t = G.mul[g][reps[ci]]
                cj = rep_index[t]
                m = helem_for[t]
                for i in range(cnt):
                    arr[ci * cnt + i] = cj * cnt + C.perms[m][d][i]
            p[d] = tuple(arr)
        perms[g] = p

    marked = set()
    for (d, i) in C.marked:
        for ci in range(ncos):
            marked.add((d, ci * C.cells[d] + i))
    return _CellAction(G, cells, bnds, perms, marked)


def _pair_cells(C: _CellAction):
    """Cells, boundaries and action of C with the marked cells left out and
    every boundary entry on them dropped: the cellular data of C(X, A)."""
    kept = {d: [i for i in range(c) if (d, i) not in C.marked]
            for d, c in C.cells.items()}
    new = {d: {i: k for k, i in enumerate(ks)} for d, ks in kept.items()}
    cells = {d: len(ks) for d, ks in kept.items()}
    bnds = {d: [[(new[d - 1][f], deg) for f, deg in C.bnds[d][i]
                 if f in new[d - 1]] for i in ks]
            for d, ks in kept.items()}
    perms = {s: {d: tuple(new[d][p[d][i]] for i in ks) for d, ks in kept.items()}
             for s, p in C.perms.items()}
    return cells, bnds, perms


def _pair_complex(H: Subgroup, V: RepSpec) -> GCWComplex:
    """The G-CW complex whose cellular chains are the reduced chains of
    (G x_H D(V), G x_H S(V))."""
    Ht = H.as_group()

    # basepoint sphere factor: S^0 with trivial action, first point marked
    base = _s0(Ht)
    base.marked.add((0, 0))
    factors = [base]
    for _ in range(V.trivial):
        factors.append(_s0(Ht))
    if V.sign:
        if H.order != 2:
            raise UnsupportedRep("sign factors need a stabilizer of order 2")
        nonid = [m for m in Ht.elements() if m != Ht.identity]
        for _ in range(V.sign):
            factors.append(_s0(Ht, swap_elems=nonid))
    if V.rotations:
        n = H.order
        gen = None
        for m in Ht.elements():
            seen = {Ht.identity}
            cur = Ht.identity
            for _ in range(n - 1):
                cur = Ht.mul[cur][m]
                seen.add(cur)
            if len(seen) == n:
                gen = m
                break
        if gen is None:
            raise UnsupportedRep("rotation planes need a cyclic stabilizer")
        for j in V.rotations:
            factors.append(_ngon(Ht, gen, j % n, n))

    total = factors[0]
    for fac in factors[1:]:
        total = _join(total, fac)
    return gcw_from_cells(H.group, *_pair_cells(_induce(H.group, H, total)))


def representation_cell_groups(H: Subgroup, V: RepSpec, theory: str,
                               char: int = 0) -> HomologySummary:
    """Graded groups of the theory on the representation cell pair
    (G x_H D(V), G x_H S(V)): its Bredon homology for the system named
    theory."""
    if theory not in THEORIES:
        raise ValueError(f"theory must be one of {THEORIES}")
    X = _pair_complex(H, V)
    return homology(bredon_chain_complex(X, build_system(X.category, theory, char)))
