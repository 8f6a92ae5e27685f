"""The spectral sequence of a filtered chain complex.

Filtrations are by generator subsets: each generator carries a filtration
degree p >= 0 and the boundary may not raise it.  Pages are computed over a
field (F_p, or the rationals when the complex has char 0, in which case the
reported numbers are ranks) from the standard cycle/boundary spaces

    Z^r_{p,q} = { x in F_p C_{p+q} : dx in F_{p-r} }
    E^r_{p,q} = Z^r_{p,q} / ( Z^{r-1}_{p-1,q+1} + d Z^{r-1}_{p+r-1,q-r+2} )

realized as quotients of explicit column spans.  Finite filtrations make all
convergence automatic: the page at r = (max filtration) + 2 is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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

    filt[n] is a tuple of nonnegative ints of length base.rank(n).  The
    instance stores data as given; validation happens when pages are
    requested, so deliberately broken fixtures can exist for negative tests.
    """

    base: ChainComplex
    filt: dict[int, tuple[int, ...]]

    def __post_init__(self):
        for n in self.base.degrees():
            got = len(self.filt.get(n, ()))
            if got != self.base.rank(n):
                raise ValueError(
                    f"filtration in degree {n} has {got} entries, "
                    f"rank is {self.base.rank(n)}"
                )
        self.filt = {n: tuple(v) for n, v in self.filt.items()}
        # each boundary column as its (row, entry) pairs with entry != 0
        self._columns = {
            n: [[(i, row[j]) for i, row in enumerate(d) if row[j]]
                for j in range(len(d[0]))]
            for n, d in self.base.boundary.items()
        }

    def max_filtration(self) -> int:
        return max((p for v in self.filt.values() for p in v), default=0)

    def validate(self) -> None:
        for n in self.base.degrees():
            for j, col in enumerate(self._columns.get(n, ())):
                pj = self.filt[n][j]
                for i, _ in col:
                    if self.filt[n - 1][i] > pj:
                        raise FiltrationViolation(
                            f"boundary of degree-{n} generator {j} (filtration "
                            f"{pj}) hits filtration {self.filt[n - 1][i]}"
                        )


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


def _coords_leq(F: FilteredComplex, n: int, p: int) -> list[int]:
    return [j for j, pj in enumerate(F.filt.get(n, ())) if pj <= p]


def _zr_basis(F: FilteredComplex, n: int, p: int, r: int, char: int):
    """Basis columns of Z^r_{p, n-p} inside C_n."""
    rank_n = F.base.rank(n)
    if rank_n == 0 or p < 0:
        return []
    cols = _coords_leq(F, n, p)
    if not cols:
        return []
    d = F.base.d(n)
    bad_rows = [i for i, pi in enumerate(F.filt.get(n - 1, ()))
                if pi > p - r]
    if not bad_rows or F.base.rank(n - 1) == 0:
        # no constraint: all of F_p C_n
        basis = []
        for j in cols:
            v = [0] * rank_n
            v[j] = 1
            basis.append(v)
        return basis
    sub = [[d[i][j] for j in cols] for i in bad_rows]
    null = la.nullspace(sub, char)
    basis = []
    for vec in null:
        v = [0] * rank_n if char else [Fraction(0)] * rank_n
        for idx, j in enumerate(cols):
            v[j] = vec[idx]
        basis.append(v)
    return basis


def _apply_d(F: FilteredComplex, n: int, vec):
    """d(vec): the boundary columns of the nonzero entries of vec, summed."""
    out = [0] * F.base.rank(n - 1)
    for x, col in zip(vec, F._columns.get(n, ())):
        if x:
            for i, a in col:
                out[i] += a * x
    return out


def _page_data(F: FilteredComplex, r: int, char: int):
    """groups, quotient representatives, and denominators for page r."""
    pmax = F.max_filtration()
    degs = F.base.degrees()
    groups: dict[tuple[int, int], int] = {}
    reps: dict[tuple[int, int], list] = {}
    dens: dict[tuple[int, int], list] = {}
    for n in degs:
        for p in range(0, pmax + 1):
            q = n - p
            Z = _zr_basis(F, n, p, r, char)
            if not Z:
                continue
            D1 = _zr_basis(F, n, p - 1, r - 1, char)
            W = _zr_basis(F, n + 1, p + r - 1, r - 1, char)
            D2 = [_apply_d(F, n + 1, w) for w in W] if W else []
            den, qreps = la.extend_basis(D1 + D2, Z, char)
            dim = len(qreps)
            if dim or den:
                reps[(p, q)] = qreps
                dens[(p, q)] = den
            if dim:
                groups[(p, q)] = dim
    return groups, reps, dens


def _differential(F: FilteredComplex, n: int, qreps, den, tgt_reps, char: int):
    """Matrix of d_r from the classes of qreps (in degree n) to the quotient
    basis tgt_reps mod den.  One rref of [den + tgt_reps | dx_1 ... dx_k]:
    the basis columns are independent, so they are the first pivots, and
    the entries of each dx column in their rows are its coordinates."""
    basis = den + tgt_reps
    dxs = [_apply_d(F, n, x) for x in qreps]
    red, piv = la.rref([list(row) for row in zip(*basis, *dxs)], char)
    if len(piv) > len(basis):
        raise AssertionError("vector not in the expected cycle space")
    k = len(basis)
    return tuple(
        tuple(red[len(den) + i][k + j] for j in range(len(qreps)))
        for i in range(len(tgt_reps))
    )


def spectral_pages(F: FilteredComplex, r_max: int) -> list[SSPage]:
    """Pages E^1 .. E^r_max with their differentials d_r of bidegree
    (-r, r-1).  Raises FiltrationViolation if the filtration is broken."""
    F.validate()
    char = F.base.char  # 0 means rationals: rank-only mode
    pages = []
    for r in range(1, r_max + 1):
        groups, reps, dens = _page_data(F, r, char)
        diffs: dict[tuple[int, int], tuple] = {}
        for (p, q), qreps in reps.items():
            tgt = (p - r, q + r - 1)
            if not groups.get((p, q)) or not reps.get(tgt):
                continue
            mat = _differential(F, p + q, qreps, dens[tgt], reps[tgt], char)
            if any(any(row) for row in mat):
                diffs[(p, q)] = mat
        pages.append(SSPage(r=r, groups=groups, differentials=diffs))
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
    """Strong convergence at desk scale: the stable page's total dimension in
    each degree equals the dimension of the homology of the base complex."""
    F.validate()
    char = F.base.char
    if char == 0:
        raise ValueError("einfty_check needs field coefficients (prime char)")
    r_stable = F.max_filtration() + 2
    groups, _, _ = _page_data(F, r_stable, char)
    h = homology(F.base)
    per: dict[int, tuple[int, int]] = {}
    ok = True
    degs = set(F.base.degrees()) | {p + q for (p, q) in groups}
    for n in sorted(degs):
        total = sum(d for (p, q), d in groups.items() if p + q == n)
        hn = h.dim(n)
        per[n] = (total, hn)
        if total != hn:
            ok = False
    return ok, EInftyReport(ok=ok, per_degree=per)


def skeletal_filtration(C: ChainComplex) -> FilteredComplex:
    """The filtration of a cellular complex by degree itself (p = n)."""
    filt = {n: tuple([n] * C.rank(n)) for n in C.degrees()}
    return FilteredComplex(base=C, filt=filt)
