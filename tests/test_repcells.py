"""Representation cell groups against the C2-double reference table, sphere
sanity checks, the subquotient oracle and the closed forms on the pair
complex, and the rejection of a cone or product with a broken boundary sign.

The goldens in repcells_outputs.json hold every theory's groups over Z, F_2
and F_3 on each case of the oracle sweep.  They were written once, from a
commit whose results the subquotient oracle checks; rewriting them hides a
change of results, so regenerate them (`python tests/test_repcells.py
--write`, with equimorse importable) only when a result is meant to change.
"""

import json
import sys
from pathlib import Path

import pytest

from equimorse.groups import FiniteGroup, full_subgroup, trivial_subgroup
from equimorse.repcells import (THEORIES, RepSpec, UnsupportedRep,
                                representation_cell_groups,
                                representation_cell_table)

PATH = Path(__file__).resolve().parent / "repcells_outputs.json"
CHARS = (0, 2, 3)


def c2():
    G = FiniteGroup.cyclic(2)
    return G, trivial_subgroup(G), full_subgroup(G)


def only_entry(h):
    degs = h.degrees()
    assert len(degs) <= 1
    if not degs:
        return None, (0, ())
    return degs[0], h.group(degs[0])


# the reference table: cell type x theory -> (degree, rank), rank relative
# to the index k; None means the group vanishes
def expected(cell, theory, k):
    if cell == "interior":
        return {
            "singular": (k, 2),
            "fixed-point": None,
            "quotient": (k, 1),
            "quotient-rel-fixed": (k, 1),
        }[theory]
    if cell == "stable":
        return {
            "singular": (k, 1),
            "fixed-point": (k, 1),
            "quotient": (k, 1),
            "quotient-rel-fixed": None,
        }[theory]
    if cell == "unstable":
        return {
            "singular": (k, 1),
            "fixed-point": (k - 1, 1),
            "quotient": None,
            "quotient-rel-fixed": (k, 1),
        }[theory]
    raise AssertionError(cell)


def rep_for(cell, k, G, e, full):
    if cell == "interior":
        return e, RepSpec(trivial=k)
    if cell == "stable":
        return full, RepSpec(trivial=k)
    return full, RepSpec(trivial=k - 1, sign=1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("cell", ["interior", "stable", "unstable"])
@pytest.mark.parametrize("theory", THEORIES)
def test_double_example_table(cell, theory, k):
    G, e, full = c2()
    H, V = rep_for(cell, k, G, e, full)
    h = representation_cell_groups(H, V, theory)
    want = expected(cell, theory, k)
    deg, (betti, torsion) = only_entry(h)
    assert torsion == ()
    if want is None:
        assert deg is None
    else:
        assert (deg, betti) == want, (cell, theory, k, dict(h.entries))


def test_cell_groups_compute_each_double_coset_once():
    # the admission check of the pair complex and the systems of every
    # theory read the tables of one group, H.group: each distinct double
    # coset is computed once over both calls
    from unittest import mock

    from equimorse import groups

    G, e, full = c2()
    H, V = rep_for("unstable", 2, G, e, full)
    calls = []
    real = groups.double_coset

    def counted(G, H, x, K):
        calls.append((H.elements, K.elements, real(G, H, x, K)))
        return calls[-1][2]

    with mock.patch.object(groups, "double_coset", counted):
        table = representation_cell_table(H, V)
        h = representation_cell_groups(H, V, "singular")
    assert calls and len(calls) == len(set(calls))
    assert only_entry(h) == expected_entry("unstable", "singular", 2)
    assert only_entry(table["singular"]) == only_entry(h)


def expected_entry(cell, theory, k):
    want = expected(cell, theory, k)
    return (None, (0, ())) if want is None else (want[0], (want[1], ()))


def test_zero_representation_cell():
    # V = 0: the pair (G x_H D^0, empty): singular theory gives Z[G/H] in
    # degree 0
    G, e, full = c2()
    h = representation_cell_groups(full, RepSpec(), "singular")
    assert dict(h.entries) == {0: (1, ())}
    h = representation_cell_groups(e, RepSpec(), "singular")
    assert dict(h.entries) == {0: (2, ())}


def test_rotation_plane_cell():
    # C3 with its rotation plane: free orbit cells on the circle; the
    # singular value of the 2-disk pair is Z in degree 2
    G = FiniteGroup.cyclic(3)
    full = full_subgroup(G)
    h = representation_cell_groups(full, RepSpec(rotations=(1,)), "singular")
    assert dict(h.entries) == {2: (1, ())}
    # the fixed set of the rotation disk pair is (point, empty): Z in deg 0
    h = representation_cell_groups(full, RepSpec(rotations=(1,)), "fixed-point")
    assert dict(h.entries) == {0: (1, ())}
    # quotient of the disk by the rotation is a disk rel boundary circle:
    # still Z in degree 2 (the quotient pair is again (D^2, S^1))
    h = representation_cell_groups(full, RepSpec(rotations=(1,)), "quotient")
    assert dict(h.entries) == {2: (1, ())}


def test_mixed_trivial_rotation():
    # V = trivial + rotation plane for C3: D(V) is a 3-disk pair; underlying
    # homology sits in degree 3
    G = FiniteGroup.cyclic(3)
    full = full_subgroup(G)
    h = representation_cell_groups(full, RepSpec(trivial=1, rotations=(1,)),
                                   "singular")
    assert dict(h.entries) == {3: (1, ())}
    # fixed part is the trivial line: (D^1, S^0): degree 1
    h = representation_cell_groups(full, RepSpec(trivial=1, rotations=(1,)),
                                   "fixed-point")
    assert dict(h.entries) == {1: (1, ())}


def test_sign_needs_order_two():
    G = FiniteGroup.cyclic(3)
    with pytest.raises(UnsupportedRep):
        representation_cell_groups(full_subgroup(G), RepSpec(sign=1), "singular")


@pytest.mark.parametrize("counts", [{"trivial": -2}, {"sign": -1},
                                    {"trivial": 1, "sign": -3},
                                    {"trivial": 1.5}, {"sign": 0.5},
                                    {"rotations": (1.5,)},
                                    {"trivial": 1, "rotations": (1, "2")}])
def test_negative_multiplicities_rejected(counts):
    # -2 copies of the trivial representation is not a representation, nor
    # is 1.5 copies, nor a plane turned by 1.5 steps: RepSpec must not build
    # a pair whose dimension is negative or whose cells are not whole
    with pytest.raises(UnsupportedRep, match="nonnegative|integers"):
        RepSpec(**counts)


def test_unknown_theory_rejected():
    G, e, full = c2()
    with pytest.raises(ValueError):
        representation_cell_groups(full, RepSpec(trivial=1), "borel")


def test_two_sign_factors():
    # V = sign + sign for C2: the fixed set of D(V) is the origin; the
    # fixed theory sees (pt, empty): Z in degree 0
    G, e, full = c2()
    h = representation_cell_groups(full, RepSpec(sign=2), "fixed-point")
    assert dict(h.entries) == {0: (1, ())}
    h = representation_cell_groups(full, RepSpec(sign=2), "singular")
    assert dict(h.entries) == {2: (1, ())}


def test_induced_interior_cells_from_s3():
    # H = e inside S3: induced pair is six disjoint disk pairs; underlying
    # homology Z^6 in degree k
    G = FiniteGroup.symmetric(3)
    e = trivial_subgroup(G)
    h = representation_cell_groups(e, RepSpec(trivial=2), "singular")
    assert dict(h.entries) == {2: (6, ())}
    # the quotient collapses the six copies to one
    h = representation_cell_groups(e, RepSpec(trivial=2), "quotient")
    assert dict(h.entries) == {2: (1, ())}


@pytest.mark.parametrize("G", [
    FiniteGroup.symmetric(3),
    FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
], ids=["S3", "C2xC2"])
def test_rotation_planes_need_a_cyclic_stabilizer(G):
    with pytest.raises(UnsupportedRep,
                       match="^rotation planes need a cyclic stabilizer$"):
        representation_cell_groups(full_subgroup(G), RepSpec(rotations=(1,)),
                                   "singular")


def _shifted(X, a):
    """X's cell-orbit stabilizers and boundary records by degree, each
    degree lowered by a and each boundary degree times (-1)^a: the fixed
    a-disk's product sign."""
    cells = {n - a: cs for n, cs in X.cells.items()}
    bnd = {n - a: {k: [(m.source, m.target, m.rep, (-1) ** a * deg)
                       for m, deg in recs] for k, recs in rs.items()}
           for n, rs in X.boundary.items()}
    return cells, bnd


@pytest.mark.parametrize("n, factor", [(2, {"sign": 1}), (2, {"sign": 2}),
                                       (3, {"rotations": (1,)})],
                         ids=["sign", "two-signs", "rotation"])
def test_the_fixed_disk_is_one_cell(n, factor):
    # D(V^H) is one cell: the pair's cell-orbits and boundary records for
    # a = 0..5 trivial lines are those for a = 0, a degrees up (a product
    # of a trivial cone pairs would have 3^a times the cells)
    from equimorse.repcells import _pair_complex

    H = full_subgroup(FiniteGroup.cyclic(n))
    base = _shifted(_pair_complex(H, RepSpec(**factor)), 0)
    for a in range(6):
        X = _pair_complex(H, RepSpec(trivial=a, **factor))
        assert min(X.cells) == a
        assert _shifted(X, a) == base, a


@pytest.mark.parametrize("char", CHARS)
def test_forty_trivial_lines_give_the_closed_forms(char):
    # with V^H of dimension 40 the groups are the closed forms, 40 degrees
    # up: the unstable cell of the double table at index 41, and for the C3
    # rotation plane Z in dim V (singular, quotient), dim V^H (fixed-point)
    # and dim V - 1 and dim V (quotient-rel-fixed)
    G, _, full = c2()
    h = representation_cell_table(full, RepSpec(trivial=40, sign=1), char=char)
    for th in THEORIES:
        assert only_entry(h[th]) == expected_entry("unstable", th, 41), th
    C3 = full_subgroup(FiniteGroup.cyclic(3))
    h = representation_cell_table(C3, RepSpec(trivial=40, rotations=(1,)),
                                  char=char)
    assert {th: dict(g.entries) for th, g in h.items()} == {
        "singular": {42: (1, ())}, "fixed-point": {40: (1, ())},
        "quotient": {42: (1, ())},
        "quotient-rel-fixed": {41: (1, ()), 42: (1, ())}}


def _sweep():
    """(group, H, V): every subgroup of C1-C4 and S3, trivial <= 2, sign <= 2
    when |H| = 2, and at most one rotation plane when H is cyclic, up to
    the five dim-6 cases (two trivial, two sign and a rotation plane)."""
    from equimorse.groups import enumerate_subgroups

    for G in [FiniteGroup.cyclic(n) for n in (1, 2, 3, 4)] + [FiniteGroup.symmetric(3)]:
        for H in enumerate_subgroups(G):
            Ht = H.as_group()
            cyclic = any(_generates(Ht, m) for m in Ht.elements())
            for a in range(3):
                for b in range(3 if H.order == 2 else 1):
                    for rot in ((), (1,)) if cyclic else ((),):
                        yield G, H, RepSpec(trivial=a, sign=b, rotations=rot)


def _generates(G, m):
    seen, cur = {G.identity}, m
    while cur not in seen:
        seen.add(cur)
        cur = G.mul[cur][m]
    return len(seen) == G.order


def _key(G, H, V):
    return f"{G.name} {list(H.elements)} {V.trivial} {V.sign} {list(V.rotations)}"


def _entries(h):
    return [[n, b, list(t)] for n, (b, t) in sorted(h.entries.items())]


def outputs() -> dict:
    """Every theory's groups over each of CHARS on every sweep case,
    JSON-ready."""
    return {_key(G, H, V): {str(char): {
        th: _entries(h) for th, h in representation_cell_table(H, V, THEORIES, char).items()}
        for char in CHARS} for G, H, V in _sweep()}


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else {}


@pytest.mark.parametrize("char", CHARS)
def test_pair_groups_match_subquotient_oracle(char):
    # on the pair complex every theory's groups are the golden's; the Bredon
    # singular, fixed-point and quotient groups are the cellular homology of
    # (X/e)^e, (X/e)^G and (X/G)^e; and two have closed forms: singular is
    # Z^[G:H] in degree dim V, fixed-point is Z in degree dim V^G when H = G
    # and 0 otherwise (V^G: the trivial lines and the planes a rotation
    # entry j = 0 mod |H| fixes)
    from equimorse.coefficients import build_system
    from equimorse.complexes import homology
    from equimorse.gcw import bredon_chain_complex, subquotient_complex
    from equimorse.groups import OrbitCategory
    from equimorse.repcells import _pair_complex

    cats = {}
    cases = 0
    for G, H, V in _sweep():
        cat = cats.setdefault(G.name, OrbitCategory(G))
        X = _pair_complex(H, V)
        got = {th: homology(bredon_chain_complex(X, build_system(cat, th, char)))
               for th in THEORIES}
        case = (G.name, H.elements, V)
        assert {th: _entries(h) for th, h in got.items()} == \
            GOLDEN[_key(G, H, V)][str(char)], case
        e, full = trivial_subgroup(G), full_subgroup(G)
        pairs = {"singular": (e, e), "fixed-point": (e, full), "quotient": (full, e)}
        for theory, (A, B) in pairs.items():
            want = homology(subquotient_complex(X, A, B, char=char))
            assert got[theory].entries == want.entries, (*case, theory)
        assert got["singular"].entries == {V.dim: (G.order // H.order, ())}, case
        fixed_dim = V.trivial + 2 * sum(j % H.order == 0 for j in V.rotations)
        assert got["fixed-point"].entries == (
            {fixed_dim: (1, ())} if H.order == G.order else {}), case
        cases += 1
    assert cases == 141


def _joins():
    """The cone pair on the C3 triangle (the rotation disk pair) and the
    product of three cone pairs on a C2-fixed S^0 (the 3-cube rel its
    boundary): each cell with a boundary lies in a free orbit in the first,
    and is fixed in the second."""
    from equimorse.gcw import CellAction
    from equimorse.repcells import _ngon

    C3 = FiniteGroup.cyclic(3)
    yield "free", C3, _ngon(C3, 1, 1, 3).cone()
    C2 = FiniteGroup.cyclic(2)
    cone = CellAction(C2, {0: 2}, {0: [[], []]},
                      {s: {0: (0, 1)} for s in C2.elements()}).cone()
    yield "fixed", C2, cone.product(cone).product(cone)


@pytest.mark.parametrize("kind, G, J", [pytest.param(*j, id=j[0]) for j in _joins()])
def test_join_with_a_flipped_sign_is_rejected(kind, G, J):
    # a flipped sign on a cell in a free orbit breaks equivariance
    # (gcw_from_cells); on a fixed cell it breaks d∘d = 0 (the GCWComplex
    # admission check)
    from equimorse.complexes import ChainComplexError
    from equimorse.gcw import gcw_from_cells

    gcw_from_cells(G, J.cells, J.bnds, J.perms)
    flips = 0
    for d, rows in J.bnds.items():
        for i, row in enumerate(rows):
            for k, (f, deg) in enumerate(row):
                bnds = {n: [list(r) for r in rs] for n, rs in J.bnds.items()}
                bnds[d][i][k] = (f, -deg)
                err, match = ((ValueError, "not equivariant") if kind == "free"
                              else (ChainComplexError, "d∘d"))
                with pytest.raises(err, match=match):
                    gcw_from_cells(G, J.cells, bnds, J.perms)
                flips += 1
    assert flips


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_repcells.py --write")
    PATH.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in outputs().items()) + "\n}\n")
