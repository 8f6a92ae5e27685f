"""Smith-inequality and mod-p Euler-characteristic verification for p-group
actions.

For a finite p-group acting on a desk-scale complex, every tail sum of
mod-p Betti numbers of the fixed set must be bounded by the corresponding
tail of the total space, and the mod-p Euler characteristics must agree
mod p.  The report records every comparison; the CLI exits nonzero when one
fails, making this a tripwire for the homology pipeline upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._intlinalg import is_prime
from .complexes import ChainComplex, homology
from .errors import InputError
from .gcw import GCWComplex, subquotient_complex
from .groups import full_subgroup, trivial_subgroup

__all__ = ["NotAPGroup", "SmithReport", "smith_report"]


class NotAPGroup(InputError):
    """The Smith inequality needs a group of prime-power order."""


def _is_prime_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(eq=False)
class SmithReport:
    p: int
    dims_total: dict[int, int]
    dims_fixed: dict[int, int]
    per_ell: list = field(default_factory=list)  # (ell, fixed tail, total tail, ok)
    euler_total: int = 0
    euler_fixed: int = 0
    euler_congruent: bool = False

    @property
    def all_pass(self) -> bool:
        return self.euler_congruent and all(ok for *_, ok in self.per_ell)

    def text_table(self) -> str:
        lines = [f"Smith report (p = {self.p})"]
        degs = sorted(set(self.dims_total) | set(self.dims_fixed)) or [0]
        lines.append("degree  dim H(M)  dim H(fixed)")
        for n in degs:
            lines.append(
                f"{n:>6}  {self.dims_total.get(n, 0):>8}  "
                f"{self.dims_fixed.get(n, 0):>12}"
            )
        lines.append("tail    fixed  total  ok")
        for ell, fx, tot, ok in self.per_ell:
            lines.append(f"{ell:>4}  {fx:>7}  {tot:>5}  {'yes' if ok else 'NO'}")
        lines.append(
            f"euler: fixed {self.euler_fixed} vs total {self.euler_total} "
            f"mod {self.p}: {'congruent' if self.euler_congruent else 'NOT congruent'}"
        )
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["ell,fixed_tail,total_tail,pass"]
        for ell, fx, tot, ok in self.per_ell:
            rows.append(f"{ell},{fx},{tot},{int(ok)}")
        rows.append(f"euler,{self.euler_fixed},{self.euler_total},"
                    f"{int(self.euler_congruent)}")
        return rows


def _dims(C: ChainComplex, p: int) -> dict[int, int]:
    if C.char == 0:
        C = C.reduce_mod(p)
    elif C.char != p:
        raise ValueError(f"complex has char {C.char}, wanted {p}")
    h = homology(C)
    return {n: h.dim(n) for n in h.degrees()}


def smith_report(X, p: int) -> SmithReport:
    """Tail inequalities and the Euler congruence for a p-group action.

    X may be a GCWComplex (total and fixed complexes are derived from it) or
    a (total, fixed) pair of chain complexes over Z or F_p; p must be a
    prime, as for ChainComplex, or ValueError is raised.
    """
    if not is_prime(p):
        raise ValueError(f"p must be a prime, not {p}")
    if isinstance(X, GCWComplex):
        G = X.group
        if not _is_prime_power(G.order, p):
            raise NotAPGroup(f"group order {G.order} is not a power of {p}")
        e = trivial_subgroup(G)
        total_c = subquotient_complex(X, e, e, char=p)
        fixed_c = subquotient_complex(X, e, full_subgroup(G), char=p)
    else:
        total_c, fixed_c = X
    dims_total = _dims(total_c, p)
    dims_fixed = _dims(fixed_c, p)

    top = max(list(dims_total) + list(dims_fixed) + [0])
    per_ell = []
    for ell in range(0, top + 1):
        fx = sum(d for n, d in dims_fixed.items() if n >= ell)
        tot = sum(d for n, d in dims_total.items() if n >= ell)
        per_ell.append((ell, fx, tot, fx <= tot))

    euler_total = sum((-1) ** n * d for n, d in dims_total.items())
    euler_fixed = sum((-1) ** n * d for n, d in dims_fixed.items())
    return SmithReport(
        p=p,
        dims_total=dims_total,
        dims_fixed=dims_fixed,
        per_ell=per_ell,
        euler_total=euler_total,
        euler_fixed=euler_fixed,
        euler_congruent=(euler_total - euler_fixed) % p == 0,
    )
