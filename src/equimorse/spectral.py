"""The spectral sequence of a filtered chain complex.

Filtrations are by generator subsets: each generator carries a filtration
degree p >= 0 and the boundary may not raise it.  Pages are computed over a
field (F_p, or the rationals when the complex has char 0, in which case the
reported numbers are ranks) from the standard cycle/boundary spaces

    Z^r_{p,q} = { x in F_p C_{p+q} : dx in F_{p-r} }
    E^r_{p,q} = Z^r_{p,q} / ( Z^{r-1}_{p-1,q+1} + d Z^{r-1}_{p+r-1,q-r+2} )

realized as quotients of explicit column spans.  Finite filtrations make all
convergence automatic: the page at r = (max filtration) + 2 is stable.

Only the filtration degrees that some generator of C_n carries are visited
in degree n: at any other p, F_p C_n = F_{p-1} C_n, so Z^r_p = Z^{r-1}_{p-1}
and E^r_{p,n-p} = 0.  For the same reason a cycle basis is kept by the
subspace it spans, Z^r_p = Z^{r-(p-p')}_{p'} with p' the largest carried
degree at most p (the same columns and the same rows).
"""

from __future__ import annotations

import bisect
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

    filt[n] is a tuple of nonnegative ints of length base.rank(n).  The
    instance stores data as given; validation happens when pages are
    requested, so deliberately broken fixtures can exist for negative tests.
    Chains are sparse columns over the generators, like the boundary
    columns of base, and each cycle basis Z^r is computed once, on first
    use, and kept by (n, p', r - (p - p')), p' the largest degree at most p
    in levels[n], the ascending filtration degrees carried in degree n.
    """

    base: ChainComplex
    filt: dict[int, tuple[int, ...]]
    levels: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    _cycles: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for n in self.base.degrees():
            got = len(self.filt.get(n, ()))
            if got != self.base.rank(n):
                raise ValueError(
                    f"filtration in degree {n} has {got} entries, "
                    f"rank is {self.base.rank(n)}"
                )
        self.filt = {n: tuple(v) for n, v in self.filt.items()}
        self.levels = {n: tuple(sorted(set(v))) for n, v in self.filt.items()}

    def max_filtration(self) -> int:
        return max((p for v in self.filt.values() for p in v), default=0)

    def validate(self) -> None:
        for n, d in self.base.boundary.items():
            for j, col in enumerate(d):
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


def _zr_basis(F: FilteredComplex, n: int, p: int, r: int):
    """Basis columns of Z^r_{p, n-p} inside C_n: the null space of the
    boundary of F_p C_n in the rows of filtration above p - r.  Kept under
    the carried degree p' <= p with F_p C_n = F_p' C_n, and the r' with
    p' - r' = p - r; empty when C_n carries no degree up to p."""
    levels = F.levels.get(n, ())
    at = bisect.bisect_right(levels, p)
    if not at:
        return []
    top = levels[at - 1]
    key = (n, top, r - (p - top))
    if key not in F._cycles:
        cols = [j for j, pj in enumerate(F.filt[n]) if pj <= top]
        low = F.filt.get(n - 1, ())
        d = F.base.d(n)
        sub = [tuple((i, x) for i, x in d[j] if low[i] > p - r) for j in cols]
        F._cycles[key] = [tuple((cols[t], x) for t, x in vec)
                          for vec in la.nullspace(sub, F.base.char)]
    return F._cycles[key]


def _apply_d(F: FilteredComplex, n: int, vec):
    """d(vec): the boundary columns of the entries of vec, summed."""
    d = F.base.d(n)
    out: dict[int, int] = {}
    for j, x in vec:
        for i, a in d[j]:
            out[i] = out.get(i, 0) + a * x
    return tuple(sorted(out.items()))


def _page_data(F: FilteredComplex, r: int, char: int):
    """groups, quotient representatives, and denominators for page r, at
    the nonzero bidegrees; only the degrees carried in C_n are visited."""
    groups: dict[tuple[int, int], int] = {}
    reps: dict[tuple[int, int], list] = {}
    dens: dict[tuple[int, int], list] = {}
    for n in F.base.degrees():
        for p in F.levels.get(n, ()):
            Z = _zr_basis(F, n, p, r)
            if not Z:
                continue
            D1 = _zr_basis(F, n, p - 1, r - 1)
            D2 = [_apply_d(F, n + 1, w) for w in _zr_basis(F, n + 1, p + r - 1, r - 1)]
            den, qreps = la.extend_basis(D1 + D2, Z, char)
            if qreps:
                q = n - p
                groups[(p, q)], reps[(p, q)], dens[(p, q)] = len(qreps), qreps, den
    return groups, reps, dens


def _differential(F: FilteredComplex, n: int, qreps, den, tgt_reps, char: int):
    """Matrix of d_r from the classes of qreps (in degree n) to the quotient
    basis tgt_reps mod den.  One null space of [den + tgt_reps | dx_1 ...
    dx_k]: the basis columns are independent, so the null vector of dx_j
    is its own unit minus its coordinates in the basis."""
    basis = den + tgt_reps
    null = la.nullspace(basis + [_apply_d(F, n, x) for x in qreps], char)
    if len(null) != len(qreps):
        raise AssertionError("vector not in the expected cycle space")
    coords = [dict(vec) for vec in null]
    k = len(den)
    return tuple(
        tuple(-c.get(k + i, 0) % char if char else -c.get(k + i, 0) for c in coords)
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
            if tgt not in reps:
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
