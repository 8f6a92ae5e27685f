"""Finite groups as explicit multiplication tables, their subgroup lattices,
and the orbit category of cosets G/H with G-map morphisms.

Everything here is desk scale (|G| <= 12 in practice): groups are validated
exhaustively at construction, subgroups are enumerated by closing cyclic
subgroups under pairwise joins, and a hom-set of the orbit category is
computed on call as a tuple of coset morphisms.  A group keeps its own
identity, generating set, subgroup list and coset tables: each table of
double cosets HgL and each table of K-fixed H-classes of G/L is computed
once, on first use, and goes away with the group.  An orbit category holds
only its group, so every category, coefficient system and subquotient
complex over one group object shares them.

Each group rule is decided here once: whether a coset xK is H-fixed
(is_fixed_coset, read by OrbitMorphism and orbit_homs), and whether K
normalizes H so that it acts on the H-quotients (check_pair, read by the
general coefficient system and the subquotient complexes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property


class GroupTableError(ValueError):
    """Multiplication table fails a group axiom."""


class NotASubgroup(ValueError):
    """Element set is not closed under the group operations."""


class InvalidMorphism(ValueError):
    """Coset does not define a G-map between the given orbits."""


class InvalidPair(ValueError):
    """The (H, K) pair does not act on the quotient structure."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on element indices 0..n-1 with an explicit table.

    ``mul[a][b]`` is the product a*b.  The identity is found and the
    axioms are checked on every triple at construction; the inverse table
    and the generating set are derived on first use.
    """

    mul: tuple[tuple[int, ...], ...]
    name: str = field(default="G", compare=False)

    def __post_init__(self):
        n = len(self.mul)
        if n == 0 or any(len(row) != n for row in self.mul):
            raise GroupTableError("table must be square and nonempty")
        if any(not (0 <= x < n) for row in self.mul for x in row):
            raise GroupTableError("table entries out of range")
        ident = None
        for e in range(n):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupTableError("no identity element")
        for a in range(n):
            if ident not in self.mul[a]:
                raise GroupTableError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                        raise GroupTableError(f"associativity fails on ({a},{b},{c})")
        # the generated hash, computed once: every dict keyed by a subgroup
        # or an orbit morphism hashes the whole table
        object.__setattr__(self, "_hash", hash((self.mul,)))
        object.__setattr__(self, "identity", ident)
        # the coset tables by element tuples: (H, L) -> double cosets and
        # (L, H, K) -> classes, filled on first use
        object.__setattr__(self, "_tables", {})

    def __hash__(self):
        return self._hash

    @property
    def order(self) -> int:
        return len(self.mul)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        e = self.identity
        inv = [0] * self.order
        for a in range(self.order):
            inv[a] = self.mul[a].index(e)
        return tuple(inv)

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, h: int) -> int:
        """Conjugate g h g^-1."""
        return self.mul[self.mul[g][h]][self.inverse[g]]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: each element, in order, that the ones before it
        do not generate."""
        gens: list[int] = []
        span = {self.identity}
        for g in self.elements():
            if g not in span:
                gens.append(g)
                span = set(generated_subgroup(self, gens).elements)
        return tuple(gens)

    # -- subgroups and coset tables, each computed on first use -------------

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """All subgroups, in the order of enumerate_subgroups."""
        return tuple(enumerate_subgroups(self))

    def double_cosets(self, H: Subgroup, L: Subgroup) -> tuple[tuple[int, ...], ...]:
        """The double coset HgL of every element g, indexed by g.  Each
        distinct double coset is computed once and shared by its elements,
        so two elements lie in one double coset iff their entries are the
        same object."""
        key = (H.elements, L.elements)
        table = self._tables.get(key)
        if table is None:
            out: list = [None] * self.order
            for g in self.elements():
                if out[g] is None:
                    dc = double_coset(self, H, g, L)
                    for x in dc:
                        out[x] = dc
            table = self._tables[key] = tuple(out)
        return table

    def orbit_classes(self, L: Subgroup, H: Subgroup,
                      K: Subgroup) -> tuple[tuple[int, ...], ...]:
        """The K-fixed H-orbit classes of G/L, each as its sorted double
        coset HgL, in sorted order.

        A class is K-fixed when k(HgL) = HgL for every k in K; with K
        normalizing H that is kg in HgL, for any g of the class.
        """
        key = (L.elements, H.elements, K.elements)
        classes = self._tables.get(key)
        if classes is None:
            mul = self.mul
            table = self.double_cosets(H, L)
            classes = self._tables[key] = tuple(
                dc for dc in sorted(set(table))
                if all(table[mul[k][dc[0]]] is dc for k in K.elements))
        return classes

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),), name="1")

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(table, name=f"C{n}")

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """S_n with elements indexed by sorted permutation tuples."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = tuple(
            tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
            for p in perms
        )
        return cls(table, name=f"S{n}")

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """D_n of order 2n; element 2i = rotation^i, 2i+1 = rotation^i * flip."""
        def compose(a, b):
            ra, fa = a
            rb, fb = b
            if fa:
                return ((ra - rb) % n, 1 - fb)
            return ((ra + rb) % n, fb)

        elems = [(r, f) for r in range(n) for f in (0, 1)]
        index = {x: i for i, x in enumerate(elems)}
        table = tuple(
            tuple(index[compose(a, b)] for b in elems) for a in elems
        )
        return cls(table, name=f"D{n}")

    @classmethod
    def product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        elems = [(x, y) for x in a.elements() for y in b.elements()]
        index = {x: i for i, x in enumerate(elems)}
        table = tuple(
            tuple(index[(a.mul[x][u], b.mul[y][v])] for (u, v) in elems)
            for (x, y) in elems
        )
        return cls(table, name=f"{a.name}x{b.name}")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted element-index set."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        G = self.group
        if elems and not (0 <= elems[0] and elems[-1] < G.order):
            raise NotASubgroup(f"elements {elems} not all in range({G.order})")
        if G.identity not in elems:
            raise NotASubgroup("missing identity")
        eset = set(elems)
        for a in elems:
            if G.inverse[a] not in eset:
                raise NotASubgroup(f"not closed under inverse: {a}")
            for b in elems:
                if G.mul[a][b] not in eset:
                    raise NotASubgroup(f"not closed under product: {a}*{b}")
        object.__setattr__(self, "_hash", hash((G, elems)))

    def __hash__(self):
        return self._hash

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_group(self) -> FiniteGroup:
        """The subgroup as an abstract table: element m stands for
        self.elements[m]."""
        G = self.group
        index = {g: i for i, g in enumerate(self.elements)}
        table = tuple(tuple(index[G.mul[a][b]] for b in self.elements)
                      for a in self.elements)
        return FiniteGroup(table, name=f"H{self.order}")

    def __repr__(self):
        return f"Subgroup({self.group.name}, {self.elements})"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(G.elements()))


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    elems = {G.identity}
    frontier = set(gens) | {G.inverse[g] for g in gens}
    elems |= frontier
    while frontier:
        new = set()
        for a in frontier:
            for b in elems:
                for c in (G.mul[a][b], G.mul[b][a]):
                    if c not in elems:
                        new.add(c)
        elems |= new
        frontier = new
    return Subgroup(G, tuple(elems))


def enumerate_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups of G, sorted by order then by element set.

    Cyclic subgroups are closed under pairwise joins; every subgroup is the
    join of the cyclic subgroups of its elements, so this reaches all of them.
    """
    found: set[tuple[int, ...]] = set()
    for g in G.elements():
        found.add(generated_subgroup(G, (g,)).elements)
    while True:
        new = set()
        for a, b in itertools.combinations(found, 2):
            j = generated_subgroup(G, a + b).elements
            if j not in found:
                new.add(j)
        if not new:
            break
        found |= new
    subs = [Subgroup(G, els) for els in found]
    subs.sort(key=lambda H: (H.order, H.elements))
    return subs


# -- cosets --------------------------------------------------------------


def left_coset(G: FiniteGroup, x: int, H: Subgroup) -> tuple[int, ...]:
    """The coset xH as a sorted element tuple."""
    return tuple(sorted(G.mul[x][h] for h in H.elements))


def left_cosets(G: FiniteGroup, H: Subgroup) -> list[tuple[int, ...]]:
    """All cosets xH, each sorted, ordered by minimal representative."""
    seen = set()
    out = []
    for x in G.elements():
        c = left_coset(G, x, H)
        if c not in seen:
            seen.add(c)
            out.append(c)
    out.sort()
    return out


def double_coset(G: FiniteGroup, H: Subgroup, x: int, K: Subgroup) -> tuple[int, ...]:
    """The double coset HxK as a sorted element tuple."""
    return tuple(sorted({G.mul[G.mul[h][x]][k] for h in H.elements for k in K.elements}))


def is_fixed_coset(G: FiniteGroup, H: Subgroup, x: int, K: Subgroup) -> bool:
    """Whether the coset xK is an H-fixed point of G/K: x^-1 H x in K."""
    kset = set(K.elements)
    xinv = G.inverse[x]
    return all(G.mul[G.mul[xinv][h]][x] in kset for h in H.elements)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    hset = set(H.elements)
    elems = [g for g in G.elements()
             if {G.conj(g, h) for h in H.elements} == hset]
    return Subgroup(G, tuple(elems))


def check_pair(G: FiniteGroup, H: Subgroup, K: Subgroup) -> None:
    """InvalidPair unless H and K are subgroups of G and K normalizes H, so
    that K acts on the H-quotients (G/L)/H and X/H."""
    if H.group != G or K.group != G:
        raise InvalidPair(f"H and K must be subgroups of {G.name}")
    if not set(K.elements) <= set(normalizer(G, H).elements):
        raise InvalidPair("K must normalize H to act on the H-quotient")


# -- orbit category ------------------------------------------------------


@dataclass(frozen=True)
class OrbitMorphism:
    """A G-map G/H -> G/K, gH |-> g x K, identified by the coset xK.

    Valid exactly when x^-1 H x is contained in K, i.e. xK is an H-fixed
    point of G/K.
    """

    source: Subgroup
    target: Subgroup
    coset: tuple[int, ...]

    def __post_init__(self):
        G = self.source.group
        if self.target.group != G:
            raise InvalidMorphism("source and target are subgroups of different groups")
        x = self.coset[0]
        if not 0 <= x < G.order:
            raise InvalidMorphism(f"coset representative {x} not in range({G.order})")
        c = left_coset(G, x, self.target)
        object.__setattr__(self, "coset", c)
        if not is_fixed_coset(G, self.source, x, self.target):
            raise InvalidMorphism(f"coset {c} is not H-fixed: x^-1 H x not in K")

    @property
    def rep(self) -> int:
        return self.coset[0]

    def __repr__(self):
        return (f"OrbitMorphism({self.source.elements} -> "
                f"{self.target.elements}, coset {self.coset})")


def compose(g: OrbitMorphism, f: OrbitMorphism) -> OrbitMorphism:
    """The composite g∘f, applying f first."""
    if f.target != g.source:
        raise InvalidMorphism("morphisms not composable")
    G = f.source.group
    return OrbitMorphism(f.source, g.target, (G.mul[f.rep][g.rep],))


def orbit_homs(G: FiniteGroup, H: Subgroup, K: Subgroup) -> tuple[OrbitMorphism, ...]:
    """All G-maps G/H -> G/K: one morphism per H-fixed coset xK."""
    return tuple(OrbitMorphism(H, K, (c[0],)) for c in left_cosets(G, K)
                 if is_fixed_coset(G, H, c[0], K))


class OrbitCategory:
    """The orbit category of G with all subgroups as objects.

    A hom-set is computed on call; composition goes through :func:`compose`.
    The category holds only its group: its objects are the group's subgroup
    list, and the coset tables that coefficient systems read are the
    group's too, so categories over one group share them.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group

    @property
    def objects(self) -> tuple[Subgroup, ...]:
        return self.group.subgroups

    def hom(self, H: Subgroup, K: Subgroup) -> tuple[OrbitMorphism, ...]:
        return orbit_homs(self.group, H, K)

    def __repr__(self):
        return f"OrbitCategory({self.group.name}, {len(self.objects)} objects)"
