"""Bounded chain complexes of finitely generated free modules over Z or F_p,
with each boundary map stored once as sparse columns, and homology computed
from the invariant factors of each map (integral case) or its rank (mod p
case), both read off one sparse unit-pivot elimination per map."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from . import _intlinalg as la
from ._intlinalg import Column

__all__ = [
    "ChainComplex",
    "ChainComplexError",
    "HomologySummary",
    "homology",
]


class ChainComplexError(ValueError):
    """Boundary maps fail shape or d∘d = 0 requirements."""

    def __init__(self, msg, degree=None):
        super().__init__(msg)
        self.degree = degree


@dataclass(eq=False)
class ChainComplex:
    """ranks[n] generators in degree n; boundary[n] maps degree n to n-1.

    boundary[n] is a tuple over the columns: column j is the boundary of
    generator j, a tuple of (row, entry) pairs in increasing row order with
    every entry nonzero.  The constructor takes any iterables of (row,
    entry) pairs, each row at most once per column, and stores them in that
    form.  char is 0 (integer coefficients) or a prime p; anything else
    raises ValueError.  Over F_p every entry is stored as its residue in
    [0, p), so a boundary is the same whatever integers it was built from.
    d∘d = 0 is checked at construction (mod p when char > 0), as a sparse
    product of columns.  Each rank is an integer >= 0 (not a bool), else
    ValueError.
    """

    char: int
    ranks: dict[int, int]
    boundary: dict[int, tuple[Column, ...]]

    def __post_init__(self):
        if self.char != 0 and not la.is_prime(self.char):
            raise ValueError(f"char must be 0 or a prime, not {self.char}")
        for n, r in self.ranks.items():
            if not _is_index(r) or r < 0:
                raise ValueError(f"rank in degree {n} must be an integer >= 0, "
                                 f"not {r!r}")
        self.ranks = {n: r for n, r in self.ranks.items() if r > 0}
        cleaned = {}
        for n, d in self.boundary.items():
            cols = self._columns(d, n)
            if len(cols) != self.rank(n):
                raise ChainComplexError(
                    f"boundary in degree {n} has {len(cols)} columns, "
                    f"expected {self.rank(n)}",
                    degree=n,
                )
            if cols and self.rank(n - 1):
                cleaned[n] = cols
        self.boundary = cleaned
        for n in list(self.boundary):
            if n + 1 in self.boundary:
                if not la.product_is_zero(self.boundary[n], self.boundary[n + 1],
                                          self.char):
                    raise ChainComplexError(
                        f"d∘d != 0 from degree {n + 1}", degree=n + 1
                    )

    def _columns(self, d, n: int) -> tuple[Column, ...]:
        """boundary[n] in stored form: each column sorted by row, with its
        entries reduced mod char and its zeros dropped."""
        p, nrows = self.char, self.rank(n - 1)
        cols = []
        for pairs in d:
            col = sorted(pairs)
            if col and (col[0][0] < 0 or col[-1][0] >= nrows
                        or len({i for i, _ in col}) < len(col)):
                raise ChainComplexError(
                    f"boundary in degree {n} has rows {[i for i, _ in col]}, "
                    f"expected distinct rows below {nrows}",
                    degree=n,
                )
            cols.append(tuple([(i, y) for i, x in col if (y := x % p)] if p
                              else [c for c in col if c[1]]))
        return tuple(cols)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def degrees(self) -> list[int]:
        return sorted(self.ranks)

    def d(self, n: int) -> tuple[Column, ...]:
        """The columns of the boundary map out of degree n (all empty if
        the map is zero)."""
        return self.boundary.get(n) or ((),) * self.rank(n)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * r for n, r in self.ranks.items())

    def reduce_mod(self, p: int) -> "ChainComplex":
        """The same complex with coefficients reduced mod a prime p.  Only a
        complex over Z or over F_p itself has one; ValueError otherwise."""
        if self.char not in (0, p):
            raise ValueError(f"a complex over F{self.char} has no reduction mod {p}")
        return ChainComplex(char=p, ranks=dict(self.ranks),
                            boundary=dict(self.boundary))


def _is_index(x) -> bool:
    """Whether x is an integer (operator.index accepts it) and not a bool."""
    try:
        operator.index(x)
    except TypeError:
        return False
    return not isinstance(x, bool)


@dataclass(eq=True)
class HomologySummary:
    """Per-degree Betti number and torsion divisors (empty over a field)."""

    char: int
    entries: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    def betti(self, n: int) -> int:
        return self.entries.get(n, (0, ()))[0]

    # over F_p the Betti number is the dimension
    dim = betti

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.entries.get(n, (0, ()))[1]

    def group(self, n: int) -> tuple[int, tuple[int, ...]]:
        return self.entries.get(n, (0, ()))

    def degrees(self) -> list[int]:
        return sorted(n for n, (b, t) in self.entries.items() if b or t)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * b for n, (b, _) in self.entries.items())

    def describe(self, n: int) -> str:
        b, tors = self.group(n)
        ring = "Z" if self.char == 0 else f"F{self.char}"
        parts = []
        if b == 1:
            parts.append(ring)
        elif b > 1:
            parts.append(f"{ring}^{b}")
        parts.extend(f"Z/{t}" for t in tors)
        return " + ".join(parts) if parts else "0"

    def text_table(self) -> str:
        lines = ["degree  group"]
        degs = self.degrees() or [0]
        for n in range(min(degs), max(degs) + 1):
            lines.append(f"{n:>6}  {self.describe(n)}")
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["degree,betti,torsion"]
        for n in self.degrees():
            b, tors = self.group(n)
            rows.append(f"{n},{b},{';'.join(map(str, tors)) or ''}")
        return rows


def homology(C: ChainComplex) -> HomologySummary:
    """Homology of the complex: Z^betti + sum of Z/d_i in the Z case,
    dimensions in the F_p case.

    Each boundary map is reduced once, from the top degree down: its rank
    (F_p) or invariant factors (Z) serves both the degree it leaves and the
    degree it enters.  Before d_n is reduced, the columns of the generators
    that are pivot rows of d_{n+1} (over Z, its +-1 pivots) are cleared
    (Chen & Kerber's twist): those pivot columns are cycles, unitriangular
    on their pivot rows, so the other columns of d_n have the same image,
    and with it the same rank and invariant factors.
    """
    diag: dict[int, list[int]] = {}
    pivot_rows: dict[int, set[int]] = {}
    for n in sorted(C.boundary, reverse=True):
        cleared = pivot_rows.get(n + 1, ())
        cols = sorted((col for j, col in enumerate(C.boundary[n]) if j not in cleared),
                      key=len)
        pivots, rest = la.eliminate(cols, C.char, not C.char)
        pivot_rows[n] = {i for _, i in pivots}
        diag[n] = la.smith_diagonal(len(pivots), rest) if not C.char else [1] * len(pivots)
    rank = {n: len(x) for n, x in diag.items()}
    entries: dict[int, tuple[int, tuple[int, ...]]] = {}
    for n in C.degrees():
        betti = C.rank(n) - rank.get(n, 0) - rank.get(n + 1, 0)
        torsion = tuple(x for x in diag.get(n + 1, ()) if x > 1)
        if betti or torsion:
            entries[n] = (betti, torsion)
    return HomologySummary(char=C.char, entries=entries)
