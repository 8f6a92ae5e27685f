"""Representation cell groups against the C2-double reference table, sphere
sanity checks, the subquotient oracle on the pair complex, and the rejection
of a join with a broken boundary sign."""

import pytest

from equimorse.groups import FiniteGroup, Subgroup, full_subgroup, trivial_subgroup
from equimorse.morse import RepSpec, UnsupportedRep, representation_cell_groups
from equimorse.repcells import THEORIES


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


def test_cell_groups_build_one_orbit_category():
    # the pair complex keeps the orbit category of its admission check, and
    # the theory's coefficient system is built over that same category
    from unittest import mock

    from equimorse import gcw, groups

    G, e, full = c2()
    H, V = rep_for("unstable", 2, G, e, full)
    built = []

    def counting(group):
        built.append(groups.OrbitCategory(group))
        return built[-1]

    with mock.patch.object(gcw, "OrbitCategory", counting):
        h = representation_cell_groups(H, V, "singular")
    assert len(built) == 1
    assert only_entry(h) == expected_entry("unstable", "singular", 2)


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
                                    {"trivial": 1, "sign": -3}])
def test_negative_multiplicities_rejected(counts):
    # -2 copies of the trivial representation is not a representation:
    # RepSpec must not build a pair whose dimension is negative
    with pytest.raises(UnsupportedRep, match="nonnegative"):
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


def _sweep():
    """(group, H, V): every subgroup of C1-C4 and S3, trivial <= 2, sign <= 2
    when |H| = 2, and at most one rotation plane when H is cyclic, up to
    dim V = 5.  The five dim-6 cases (two trivial, two sign and a rotation
    plane) would take about 70 s more, nearly all of it in integral SNF."""
    from equimorse.groups import enumerate_subgroups

    for G in [FiniteGroup.cyclic(n) for n in (1, 2, 3, 4)] + [FiniteGroup.symmetric(3)]:
        for H in enumerate_subgroups(G):
            Ht = H.as_group()
            cyclic = any(_generates(Ht, m) for m in Ht.elements())
            for a in range(3):
                for b in range(3 if H.order == 2 else 1):
                    for rot in ((), (1,)) if cyclic else ((),):
                        V = RepSpec(trivial=a, sign=b, rotations=rot)
                        if V.dim <= 5:
                            yield G, H, V


def _generates(G, m):
    seen, cur = {G.identity}, m
    while cur not in seen:
        seen.add(cur)
        cur = G.mul[cur][m]
    return len(seen) == G.order


@pytest.mark.parametrize("char", [0, 2, 3])
def test_pair_groups_match_subquotient_oracle(char):
    # on the pair complex the Bredon singular, fixed-point and quotient
    # groups are the cellular homology of (X/e)^e, (X/e)^G and (X/G)^e
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
        e, full = trivial_subgroup(G), full_subgroup(G)
        pairs = {"singular": (e, e), "fixed-point": (e, full), "quotient": (full, e)}
        for theory, (A, B) in pairs.items():
            got = homology(bredon_chain_complex(X, build_system(cat, theory, char)))
            want = homology(subquotient_complex(X, A, B, char=char))
            assert got.entries == want.entries, (G.name, H.elements, V, theory)
        cases += 1
    assert cases == 136


def _joins():
    """A free C3 join (the rotation disk pair's sphere) and a trivial C2 one
    (S^2 as three joined S^0): each cell with a boundary lies in a free
    orbit in the first, and is fixed in the second."""
    from equimorse.repcells import _join, _ngon, _s0

    C3 = FiniteGroup.cyclic(3)
    yield "free", C3, _join(_s0(C3), _ngon(C3, 1, 1, 3))
    C2 = FiniteGroup.cyclic(2)
    yield "fixed", C2, _join(_join(_s0(C2), _s0(C2)), _s0(C2))


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
