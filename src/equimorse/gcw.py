"""G-CW complexes with stabilizer-labelled cell-orbits, the cellular Bredon
chain complex for a coefficient system (and its transpose, the cochains
with coefficients in the dual system), and the ordinary cellular complexes
of the subquotients (X/H)^K that serve as oracles for it.  One assembly,
bredon_assembly, serves G-CW and Morse complexes alike: a Morse complex has
a cell-orbit per critical orbit and flow counts as degrees.

A complex stores one representative per cell-orbit.  Boundary data is a list
of (orbit morphism, degree) records per (cell-orbit, face-orbit) pair; the
underlying cells are the cosets g*stab and the boundary of g*cell follows by
translation.  Attaching maps are never stored geometrically; the assembled
singular-kind boundary squaring to zero is the admission check.

CellAction is the individual-cell layer: cell counts, boundary rows and one
permutation per element.  Its cone and product build new actions, orbits()
checks the action and decomposes the cells into cell-orbits and records,
and gcw() admits those as a complex.  Given a subgroup H, gcw() admits
G x_H X instead, as repcells does for G x_H (D(V), S(V)): the pair is built
and decomposed over H, and only the induced complex is admitted.

The coset tables behind both the assembly's coefficient systems and the
subquotient oracles live on the group (FiniteGroup.double_cosets and
orbit_classes), each computed once; the admission check,
subquotient_complex and every system over any orbit category of X.group
read the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _intlinalg as la
from .complexes import ChainComplex
from .coefficients import CoefficientSystem, build_system
from .groups import (
    FiniteGroup,
    OrbitCategory,
    OrbitMorphism,
    Subgroup,
    generated_subgroup,
    normalizer,
)

__all__ = [
    "CellAction",
    "CellOrbit",
    "GCWComplex",
    "InvalidPair",
    "bredon_assembly",
    "bredon_chain_complex",
    "bredon_cochain_complex",
    "gcw_from_cells",
    "subquotient_complex",
]


class InvalidPair(ValueError):
    """The (H, K) pair does not act on the quotient structure."""


@dataclass(frozen=True)
class CellOrbit:
    stabilizer: Subgroup
    label: str = ""


@dataclass(eq=False)
class GCWComplex:
    """cells[n] lists the n-cell-orbits; boundary[n][(a, b)] holds the
    (morphism, degree) records from orbit a in dimension n to orbit b in
    dimension n-1."""

    group: FiniteGroup
    cells: dict[int, tuple[CellOrbit, ...]]
    boundary: dict[int, dict[tuple[int, int], tuple[tuple[OrbitMorphism, int], ...]]]
    name: str = ""

    def __post_init__(self):
        self.cells = {n: tuple(cs) for n, cs in self.cells.items() if cs}
        for n, recs in self.boundary.items():
            for (a, b), lst in recs.items():
                if not (0 <= a < self.orbit_count(n) and 0 <= b < self.orbit_count(n - 1)):
                    raise ValueError(
                        f"boundary key {(a, b)} in degree {n} names no pair of "
                        f"{self.orbit_count(n)} {n}-cell-orbits and "
                        f"{self.orbit_count(n - 1)} {n - 1}-cell-orbits"
                    )
                src = self.cells[n][a]
                tgt = self.cells[n - 1][b]
                for m, deg in lst:
                    if m.source != src.stabilizer or m.target != tgt.stabilizer:
                        raise ValueError(
                            f"boundary record {n}:{a}->{b} has mismatched morphism"
                        )
        # admission check: the singular-kind assembly squares to zero,
        # equivalently the underlying cellular boundary does
        bredon_chain_complex(self, build_system(OrbitCategory(self.group), "singular"))

    def dims(self) -> list[int]:
        return sorted(self.cells)

    def orbit_count(self, n: int) -> int:
        return len(self.cells.get(n, ()))


def bredon_assembly(M: CoefficientSystem, stabilizers: dict[int, list[Subgroup]],
                    records: dict[int, dict]) -> ChainComplex:
    """C_n = direct sum of M(stab) over the n-cell-orbit stabilizers
    stabilizers[n]; records[n][(a, b)] holds the (morphism, degree) records
    from orbit a in degree n to orbit b in degree n-1.  M sends each basis
    class to a basis class or to 0, so each record adds its degree at the
    image of every class it does not kill."""
    if any(L.group != M.cat.group for Ls in stabilizers.values() for L in Ls):
        raise ValueError("coefficient system is over a different group")
    ranks: dict[int, int] = {}
    offsets: dict[int, list[int]] = {}
    for n, Ls in stabilizers.items():
        offs = [0]
        for L in Ls:
            offs.append(offs[-1] + M.rank(L))
        offsets[n] = offs
        ranks[n] = offs[-1]
    boundary: dict[int, list] = {}
    # records repeat few morphisms, each of whose images rebuilds the
    # target's class index
    images: dict = {}
    for n in stabilizers:
        if not ranks.get(n - 1):
            continue
        cols: list[dict] = [{} for _ in range(ranks[n])]
        for (a, b), recs in records.get(n, {}).items():
            r0 = offsets[n - 1][b]
            c0 = offsets[n][a]
            for m, deg in recs:
                got = images.get(m)
                if got is None:
                    got = images[m] = M.images(m)
                for j, i in enumerate(got):
                    if i is not None:
                        col = cols[c0 + j]
                        col[r0 + i] = col.get(r0 + i, 0) + deg
        boundary[n] = [col.items() for col in cols]
    return ChainComplex(char=M.char, ranks=ranks, boundary=boundary)


def bredon_chain_complex(X: GCWComplex, M: CoefficientSystem) -> ChainComplex:
    """The Bredon assembly over the cell-orbits and records of X."""
    return bredon_assembly(
        M, {n: [c.stabilizer for c in X.cells[n]] for n in X.dims()},
        X.boundary)


def bredon_cochain_complex(X: GCWComplex, M: CoefficientSystem) -> ChainComplex:
    """The Bredon cochains of X with coefficients in the dual of M,
    returned as a chain complex on negated degrees: degree -n holds C^n,
    so homology at -n is the Bredon cohomology H^n.  The coboundary out of
    C^(n-1) is the transpose of the boundary into C_(n-1)."""
    C = bredon_chain_complex(X, M)
    return ChainComplex(
        char=M.char,
        ranks={-n: r for n, r in C.ranks.items()},
        boundary={-(n - 1): la.transpose(d, C.rank(n - 1))
                  for n, d in C.boundary.items()},
    )


def subquotient_complex(X: GCWComplex, H: Subgroup, K: Subgroup,
                        char: int = 0) -> ChainComplex:
    """Ordinary cellular chain complex of (X/H)^K.

    Cells are the K-fixed H-classes Hg*stab of underlying cells; the
    boundary accumulates record degrees over classes.  (e, e) recovers the
    underlying complex, (G, e) the quotient, (e, G) the G-fixed subcomplex.

    This is the oracle for the Bredon assembly: it shares with it only the
    coset primitive, the classes and double cosets of X.group's tables, and
    no coefficient system.
    """
    G = X.group
    if H.group != G or K.group != G:
        raise InvalidPair("H and K must be subgroups of the complex's group")
    nset = set(normalizer(G, H).elements)
    if not set(K.elements) <= nset:
        raise InvalidPair("K must normalize H to act on X/H")

    # classes[n]: (orbit index, double coset) per K-fixed class, in order;
    # a class is indexed by its orbit and its least element
    classes = {
        n: [(a, dc) for a, cell in enumerate(X.cells[n])
            for dc in G.orbit_classes(cell.stabilizer, H, K)]
        for n in X.dims()
    }
    index = {n: {(a, dc[0]): i for i, (a, dc) in enumerate(lst)}
             for n, lst in classes.items()}

    ranks = {n: len(lst) for n, lst in classes.items() if lst}
    boundary: dict[int, list] = {}
    for n in X.dims():
        if not ranks.get(n) or not ranks.get(n - 1):
            continue
        faces: dict[int, list] = {}
        for (a, b), recs in X.boundary.get(n, {}).items():
            table = G.double_cosets(H, X.cells[n - 1][b].stabilizer)
            faces.setdefault(a, []).append((table, b, recs))
        cols = []
        for a, dc in classes[n]:
            col: dict[int, int] = {}
            g = dc[0]
            for table, b, recs in faces.get(a, ()):
                for m, deg in recs:
                    row = index[n - 1].get((b, table[G.mul[g][m.rep]][0]))
                    if row is not None:
                        col[row] = col.get(row, 0) + deg
            cols.append(col.items())
        boundary[n] = cols
    return ChainComplex(char=char, ranks=ranks, boundary=boundary)


@dataclass(eq=False)
class CellAction:
    """An individual-cell description: cells[n] is the number of n-cells,
    bnds[n][i] lists (face, degree) pairs over (n-1)-cells, and
    perms[s][n] is the permutation of n-cells by the group element s (no
    orientation reversal allowed)."""

    group: FiniteGroup
    cells: dict[int, int]
    bnds: dict[int, list[list[tuple[int, int]]]]
    perms: dict[int, dict[int, tuple[int, ...]]]

    @classmethod
    def disk(cls, group: FiniteGroup, dim: int) -> CellAction:
        """One fixed dim-cell, its boundary sphere left out: (D^dim,
        S^(dim-1)).  disk(group, 0) is the point, the unit of product."""
        return cls(group, {dim: 1}, {dim: [[]]}, {s: {dim: (0,)} for s in group.elements()})

    def orbits(self):
        """The cell-orbits and coset records of the action, checked: the
        cells and boundary of a GCWComplex before its admission.  The action
        must commute with the boundary.  Each cell-orbit is represented by
        its least cell, and a record's coset is that of the least element
        carrying the face orbit's representative to the face.

        Every element must permute the cells.  The group law s∘t = st is
        checked for s the identity or a generator, against every t, and
        boundary equivariance for s a generator.  The elements that pass
        either check are closed under products, so this implies both for
        every s.  Each generator is the least element not generated by
        those before it, so the least element that fails the all-elements
        check is the identity or a generator, and the error names the same
        first failure.
        """
        group, cells, boundaries, perms = self.group, self.cells, self.bnds, self.perms
        for s in group.elements():
            for n, count in cells.items():
                p = perms.get(s, {}).get(n)
                if p is None:
                    raise ValueError(f"element {s} has no permutation of {n}-cells")
                if sorted(p) != list(range(count)):
                    raise ValueError(f"element {s} does not permute {n}-cells")
        table = {s: {n: tuple(perms[s][n]) for n in cells} for s in group.elements()}
        gens = _generators(group)
        for s in sorted({group.identity, *gens}):
            for t in group.elements():
                st = group.mul[s][t]
                for n in cells:
                    # the composite s∘t, cell by cell
                    if tuple(map(table[s][n].__getitem__, table[t][n])) != table[st][n]:
                        raise ValueError(
                            f"cell action violates the group law on ({s},{t})"
                        )
        # each cell's boundary as one face -> degree dict; s moves cell i's to
        # {q[f]: d}, with no faces merged since q permutes them
        reduced = {}
        for n in cells:
            if n - 1 in cells:
                rows = boundaries.get(n, ())
                if len(rows) != cells[n]:
                    raise ValueError(f"{len(rows)} boundaries in degree {n} "
                                     f"for {cells[n]} {n}-cells")
                reduced[n] = []
                for faces in rows:
                    acc = {}
                    for face, deg in faces:
                        if not 0 <= face < cells[n - 1]:
                            raise ValueError(f"{n}-cell boundary names face {face}, "
                                             f"not one of {cells[n - 1]} {n - 1}-cells")
                        acc[face] = acc.get(face, 0) + deg
                    reduced[n].append({f: d for f, d in acc.items() if d})
        for s in gens:
            for n, red in reduced.items():
                p = perms[s][n]
                q = perms[s][n - 1]
                for i in range(cells[n]):
                    if {q[f]: d for f, d in red[i].items()} != red[p[i]]:
                        raise ValueError(
                            f"boundary not equivariant on {n}-cell {i} under {s}"
                        )

        # orbit decomposition with minimal-index representatives
        orbit_of: dict[int, list[int]] = {}
        reps: dict[int, list[int]] = {}
        stabs: dict[int, list[Subgroup]] = {}
        carriers: dict[int, list[int]] = {}  # element sending rep to this cell
        for n, count in cells.items():
            orbit_of[n] = [-1] * count
            reps[n] = []
            stabs[n] = []
            carriers[n] = [group.identity] * count
            for i in range(count):
                if orbit_of[n][i] >= 0:
                    continue
                o = len(reps[n])
                reps[n].append(i)
                stab_elems = []
                for s in group.elements():
                    j = perms[s][n][i]
                    if j == i:
                        stab_elems.append(s)
                    if orbit_of[n][j] < 0:
                        orbit_of[n][j] = o
                        carriers[n][j] = s
                stabs[n].append(Subgroup(group, tuple(stab_elems)))

        orbits = {n: tuple(CellOrbit(L, f"c{n}.{o}") for o, L in enumerate(stabs[n]))
                  for n in cells}
        records: dict[int, dict] = {}
        for n in reduced:
            recs: dict[tuple[int, int], list] = {}
            for o, i in enumerate(reps[n]):
                for face, deg in boundaries[n][i]:
                    bo = orbit_of[n - 1][face]
                    s = carriers[n - 1][face]
                    m = OrbitMorphism(stabs[n][o], stabs[n - 1][bo], (s,))
                    recs.setdefault((o, bo), []).append((m, deg))
            records[n] = {k: tuple(v) for k, v in recs.items()}
        return orbits, records

    def gcw(self, name="", H: Subgroup | None = None) -> GCWComplex:
        """The complex of the action, admitted once.  Given H, the action
        must be over H.as_group(), and the complex is G x_H X over H.group:
        X's H-cell-orbits and records read through H in G (element m as
        H.elements[m]), so no cell is copied per coset."""
        orbits, records = self.orbits()
        if H is None:
            return GCWComplex(self.group, orbits, records, name=name)
        if self.group != H.as_group():
            raise ValueError("an induced action must be over H.as_group()")
        up = {L: Subgroup(H.group, tuple(H.elements[m] for m in L.elements))
              for L in {c.stabilizer for cs in orbits.values() for c in cs}}
        cells = {n: tuple(CellOrbit(up[c.stabilizer], c.label) for c in cs)
                 for n, cs in orbits.items()}
        boundary = {n: {k: tuple((OrbitMorphism(up[m.source], up[m.target],
                                                (H.elements[m.rep],)), deg)
                                 for m, deg in recs)
                        for k, recs in rs.items()}
                    for n, rs in records.items()}
        return GCWComplex(H.group, cells, boundary, name=name)

    def cone(self) -> CellAction:
        """The pair (CX, X) with its base X left out: an apex 0-cell and a
        cell c*s one dimension up per cell s of X.  The boundary of c*v is
        -apex for a vertex v and -c*(boundary of s) otherwise; the action
        fixes the apex and moves c*s as it moves s."""
        cells = {0: 1, **{d + 1: c for d, c in self.cells.items()}}
        bnds = {0: [[]], 1: [[(0, -1)] for _ in range(self.cells[0])],
                **{d + 1: [[(f, -deg) for f, deg in row] for row in rows]
                   for d, rows in self.bnds.items() if d}}
        perms = {s: {0: (0,), **{d + 1: p for d, p in ps.items()}}
                 for s, ps in self.perms.items()}
        return CellAction(self.group, cells, bnds, perms)

    def product(self, other: CellAction) -> CellAction:
        """The cellular product over the same group: one cell a x b of
        dimension |a| + |b| per pair of cells, with boundary
        da x b + (-1)^|a| a x db and the diagonal action.  The product of
        two pairs with their subspaces left out is again such a pair.  A
        degree without boundary rows (degree 0 may be left out) has empty
        ones."""
        X, Y = self, other

        def faces(A, d, i):
            return A.bnds[d][i] if d in A.bnds else ()

        keys: dict[int, list] = {}
        for dx, cx in sorted(X.cells.items()):
            for dy, cy in sorted(Y.cells.items()):
                keys.setdefault(dx + dy, []).extend(
                    (dx, i, dy, j) for i in range(cx) for j in range(cy))
        index = {k: n for ks in keys.values() for n, k in enumerate(ks)}
        bnds = {d: [[(index[dx - 1, f, dy, j], deg)
                     for f, deg in faces(X, dx, i)]
                    + [(index[dx, i, dy - 1, f], (-1) ** dx * deg)
                       for f, deg in faces(Y, dy, j)]
                    for dx, i, dy, j in ks]
                for d, ks in keys.items()}
        perms = {s: {d: tuple(index[dx, X.perms[s][dx][i], dy, Y.perms[s][dy][j]]
                              for dx, i, dy, j in ks)
                     for d, ks in keys.items()}
                 for s in X.group.elements()}
        return CellAction(X.group, {d: len(ks) for d, ks in keys.items()},
                          bnds, perms)


def gcw_from_cells(group: FiniteGroup, cells: dict[int, int],
                   boundaries: dict[int, list[list[tuple[int, int]]]],
                   perms: dict[int, dict[int, tuple[int, ...]]],
                   name="") -> GCWComplex:
    """The GCWComplex of an individual-cell description."""
    return CellAction(group, cells, boundaries, perms).gcw(name)


def _generators(group: FiniteGroup) -> list[int]:
    """A generating set of the group: each element, in order, that the
    ones before it do not generate."""
    gens: list[int] = []
    span = {group.identity}
    for g in group.elements():
        if g not in span:
            gens.append(g)
            span = set(generated_subgroup(group, gens).elements)
    return gens
