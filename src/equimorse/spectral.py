"""The spectral sequence of a filtered chain complex.

Filtrations are by generator subsets: each generator carries an integer
filtration degree p and the boundary may not raise it.  Pages are computed
over a field (F_p, or the rationals when the complex has char 0, in which
case the reported numbers are ranks) from the persistence pairing
(Edelsbrunner-Letscher-Zomorodian, DCG 28, 2002): each boundary map is
reduced once, rows and columns in (filtration, index) order, always
pivoting on the lowest row.  A pivot pairs the generator j of the column
it reduces with the generator i of its row, a bar of length
filt(j) - filt(i).  In the basis of chains that the reduction gives
(Basu-Parida, Expo. Math. 35, 2017)

    E^r_{p,q} has a basis of the generators of degree p + q at filtration
              p that are unpaired or whose bar has length at least r, and
    d_r       sends the j of each bar of length exactly r to its i.

Finite filtrations make all convergence automatic: every page past the
longest bar is E^infinity, spanned by the unpaired generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _intlinalg as la
from .complexes import ChainComplex, homology

__all__ = [
    "FilteredComplex",
    "FiltrationViolation",
    "SSPage",
    "einfty_check",
    "spectral_pages",
]


class FiltrationViolation(ValueError):
    """The boundary raises filtration degree somewhere."""


@dataclass(eq=False)
class FilteredComplex:
    """A chain complex with a filtration degree per generator.

    filt[n] is a tuple of ints of length base.rank(n), and the boundary may
    not raise it: construction raises FiltrationViolation where it does.
    The persistence pairing is computed once, on first use, and kept.
    """

    base: ChainComplex
    filt: dict[int, tuple[int, ...]]
    _bars: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for n in self.base.degrees():
            got = len(self.filt.get(n, ()))
            if got != self.base.rank(n):
                raise ValueError(
                    f"filtration in degree {n} has {got} entries, "
                    f"rank is {self.base.rank(n)}"
                )
        self.filt = {n: tuple(v) for n, v in self.filt.items()}
        for n, d in self.base.boundary.items():
            for j, col in enumerate(d):
                pj = self.filt[n][j]
                for i, _ in col:
                    if self.filt[n - 1][i] > pj:
                        raise FiltrationViolation(
                            f"boundary of degree-{n} generator {j} (filtration "
                            f"{pj}) hits filtration {self.filt[n - 1][i]}"
                        )

    def max_filtration(self) -> int:
        return max((p for v in self.filt.values() for p in v), default=0)


@dataclass(eq=False)
class SSPage:
    """One page: dimensions and differentials indexed by (p, q)."""

    r: int
    groups: dict[tuple[int, int], int]
    differentials: dict[tuple[int, int], tuple] = field(default_factory=dict)

    def dim(self, p: int, q: int) -> int:
        return self.groups.get((p, q), 0)

    def total_dim(self, n: int) -> int:
        return sum(d for (p, q), d in self.groups.items() if p + q == n)

    def entries(self):
        return sorted(self.groups)

    def grid_text(self) -> str:
        if not self.groups:
            return f"E^{self.r}: 0"
        ps = sorted({p for p, _ in self.groups})
        qs = sorted({q for _, q in self.groups})
        lines = [f"E^{self.r} page (rows q, cols p):"]
        header = "q\\p " + " ".join(f"{p:>3}" for p in range(ps[0], ps[-1] + 1))
        lines.append(header)
        for q in range(qs[-1], qs[0] - 1, -1):
            row = [f"{q:>3} "]
            for p in range(ps[0], ps[-1] + 1):
                row.append(f"{self.dim(p, q):>3}")
            lines.append(" ".join(row))
        return "\n".join(lines)

    def csv_rows(self):
        rows = ["r,p,q,dim"]
        for (p, q) in self.entries():
            rows.append(f"{self.r},{p},{q},{self.groups[(p, q)]}")
        return rows


def _bars(F: FilteredComplex):
    """(kills, life): kills[n] maps each generator j of C_n that a pivot
    reduces to the generator i of C_{n-1} it lands on; life[n] maps each
    paired generator of C_n to the length of its bar.  One low-pivot
    elimination per boundary map, columns in (filtration, index) order,
    from the top degree down.  The columns of the generators that d_{n+1}
    kills onto are cleared from d_n first (the twist of Chen & Kerber):
    each would reduce to zero, so the pairing is unchanged."""
    if F._bars is None:
        kills: dict[int, dict[int, int]] = {}
        life: dict[int, dict[int, int]] = {n: {} for n in F.base.degrees()}
        for n in sorted(F.base.boundary, reverse=True):
            d = F.base.boundary[n]
            top, low = F.filt[n], F.filt[n - 1]
            cleared = set(kills.get(n + 1, {}).values())
            order = sorted((j for j in range(len(d)) if j not in cleared),
                           key=top.__getitem__)
            pivots, _ = la.eliminate([d[j] for j in order], F.base.char, low=low)
            kills[n] = {order[c]: i for c, i in pivots}
            for j, i in kills[n].items():
                life[n][j] = life[n - 1][i] = top[j] - low[i]
        F._bars = kills, life
    return F._bars


def spectral_pages(F: FilteredComplex, r_max: int) -> list[SSPage]:
    """Pages E^1 .. E^r_max with their differentials d_r of bidegree
    (-r, r-1).  The basis of each E^r_{p,q} is its generators in index
    order, and d_r is stored as sparse columns over it, in the format of
    ChainComplex.boundary: ((row, 1),) for the j of a bar of length r, ()
    for any other generator; a zero d_r is left out."""
    kills, life = _bars(F)
    pages = []
    for r in range(1, r_max + 1):
        basis: dict[tuple[int, int], list[int]] = {}
        for n in F.base.degrees():
            alive = life[n]
            for g, p in enumerate(F.filt[n]):
                if alive.get(g, r) >= r:
                    basis.setdefault((p, n - p), []).append(g)
        diffs: dict[tuple[int, int], tuple] = {}
        for (p, q), gens in basis.items():
            killed = kills.get(p + q, {})
            ends = [killed[g] if g in killed and life[p + q][g] == r else None
                    for g in gens]
            if any(i is not None for i in ends):
                row = {i: t for t, i in enumerate(basis[(p - r, q + r - 1)])}
                diffs[(p, q)] = tuple(() if i is None else ((row[i], 1),) for i in ends)
        pages.append(SSPage(r=r, groups={k: len(v) for k, v in basis.items()},
                            differentials=diffs))
    return pages


@dataclass
class EInftyReport:
    ok: bool
    per_degree: dict[int, tuple[int, int]]  # n -> (sum over p of E^inf, dim H_n)

    def text(self) -> str:
        lines = ["degree  E^inf total  H_n"]
        for n in sorted(self.per_degree):
            a, b = self.per_degree[n]
            lines.append(f"{n:>6}  {a:>11}  {b:>3}")
        lines.append("convergence: " + ("ok" if self.ok else "MISMATCH"))
        return "\n".join(lines)


def einfty_check(F: FilteredComplex) -> tuple[bool, EInftyReport]:
    """Strong convergence at desk scale: in each degree, the unpaired
    generators (the total dimension of E^infinity) are as many as the
    dimension of the homology of the base complex."""
    if F.base.char == 0:
        raise ValueError("einfty_check needs field coefficients (prime char)")
    _, life = _bars(F)
    h = homology(F.base)
    per = {n: (F.base.rank(n) - len(life[n]), h.dim(n)) for n in F.base.degrees()}
    ok = all(a == b for a, b in per.values())
    return ok, EInftyReport(ok=ok, per_degree=per)


def skeletal_filtration(C: ChainComplex) -> FilteredComplex:
    """The filtration of a cellular complex by degree itself (p = n)."""
    filt = {n: tuple([n] * C.rank(n)) for n in C.degrees()}
    return FilteredComplex(base=C, filt=filt)
