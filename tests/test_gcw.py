import random

import pytest

from equimorse.coefficients import SYSTEM_KINDS, build_system
from equimorse.complexes import homology
from equimorse.fixtures import (
    GCW_FIXTURES,
    antipodal_circle,
    circle_dihedral,
    circle_reflection,
    point_c2,
    sphere_reflection,
    sphere_rotation_c3,
    torus_double,
)
from equimorse.gcw import (
    CellAction,
    GCWComplex,
    InvalidPair,
    bredon_chain_complex,
    bredon_cochain_complex,
    gcw_from_cells,
    subquotient_complex,
)
from equimorse.groups import (
    FiniteGroup,
    OrbitCategory,
    OrbitMorphism,
    enumerate_subgroups,
    full_subgroup,
    left_cosets,
    trivial_subgroup,
)


def groups_of(h):
    return {n: h.group(n) for n in h.degrees()}


def test_point_bredon_is_value_at_full():
    X = point_c2()
    cat = OrbitCategory(X.group)
    for kind in ("constant", "singular", "fixed-point", "quotient-rel-fixed"):
        M = build_system(cat, kind)
        h = homology(bredon_chain_complex(X, M))
        expect = M.rank(full_subgroup(X.group))
        assert h.betti(0) == expect
        assert all(h.betti(n) == 0 for n in h.degrees() if n != 0)


def test_circle_reflection_singular_vs_constant():
    X = circle_reflection()
    cat = OrbitCategory(X.group)
    sing = homology(bredon_chain_complex(X, build_system(cat, "singular")))
    assert groups_of(sing) == {0: (1, ()), 1: (1, ())}
    const = homology(bredon_chain_complex(X, build_system(cat, "constant")))
    assert groups_of(const) == {0: (1, ())}


def test_subquotient_special_cases_circle():
    X = circle_reflection()
    G = X.group
    e = trivial_subgroup(G)
    full = full_subgroup(G)
    under = homology(subquotient_complex(X, e, e))
    assert groups_of(under) == {0: (1, ()), 1: (1, ())}
    quot = homology(subquotient_complex(X, full, e))
    assert groups_of(quot) == {0: (1, ())}  # interval
    fixed = homology(subquotient_complex(X, e, full))
    assert groups_of(fixed) == {0: (2, ())}  # two fixed points


def test_underlying_homologies_all_fixtures():
    expected = {
        "point_c2": {0: (1, ())},
        "circle_reflection": {0: (1, ()), 1: (1, ())},
        "sphere_reflection": {0: (1, ()), 2: (1, ())},
        "torus_double": {0: (1, ()), 1: (2, ()), 2: (1, ())},
        "circle_dihedral": {0: (1, ()), 1: (1, ())},
        "antipodal_circle": {0: (1, ()), 1: (1, ())},
        "sphere_rotation_c3": {0: (1, ()), 2: (1, ())},
    }
    for name, make in GCW_FIXTURES.items():
        X = make()
        e = trivial_subgroup(X.group)
        h = homology(subquotient_complex(X, e, e))
        assert groups_of(h) == expected[name], name


@pytest.mark.parametrize("name", sorted(GCW_FIXTURES))
def test_bredon_oracle_equivalences(name):
    # singular <-> underlying, constant <-> quotient, fixed-point <-> X^G
    X = GCW_FIXTURES[name]()
    G = X.group
    cat = OrbitCategory(G)
    e = trivial_subgroup(G)
    full = full_subgroup(G)
    pairs = [
        ("singular", (e, e)),
        ("constant", (full, e)),
        ("fixed-point", (e, full)),
    ]
    for kind, (H, K) in pairs:
        br = homology(bredon_chain_complex(X, build_system(cat, kind)))
        oracle = homology(subquotient_complex(X, H, K))
        assert groups_of(br) == groups_of(oracle), (name, kind)


def test_fixed_sets_of_fixtures():
    X = sphere_reflection()
    fixed = homology(subquotient_complex(X, trivial_subgroup(X.group),
                                         full_subgroup(X.group)))
    assert groups_of(fixed) == {0: (1, ()), 1: (1, ())}  # equator circle
    X = torus_double()
    fixed = homology(subquotient_complex(X, trivial_subgroup(X.group),
                                         full_subgroup(X.group)))
    assert groups_of(fixed) == {0: (2, ()), 1: (2, ())}  # two circles
    X = antipodal_circle()
    fixed = subquotient_complex(X, trivial_subgroup(X.group),
                                full_subgroup(X.group))
    assert fixed.ranks == {}  # free action: empty fixed set
    X = sphere_rotation_c3()
    fixed = homology(subquotient_complex(X, trivial_subgroup(X.group),
                                         full_subgroup(X.group)))
    assert groups_of(fixed) == {0: (2, ())}  # the two poles


def test_quotients_of_fixtures():
    X = torus_double()
    quot = homology(subquotient_complex(X, full_subgroup(X.group),
                                        trivial_subgroup(X.group)))
    assert groups_of(quot) == {0: (1, ()), 1: (1, ())}  # annulus
    X = sphere_rotation_c3()
    quot = homology(subquotient_complex(X, full_subgroup(X.group),
                                        trivial_subgroup(X.group)))
    assert groups_of(quot) == {0: (1, ()), 2: (1, ())}  # S^2 again


def test_s3_fixture_subgroup_fixed_sets():
    X = circle_dihedral()
    G = X.group
    e = trivial_subgroup(G)
    # each reflection fixes two antipodal vertices
    order2 = [S for S in enumerate_subgroups(G) if S.order == 2]
    assert len(order2) == 3
    for S in order2:
        h = homology(subquotient_complex(X, e, S))
        assert groups_of(h) == {0: (2, ())}
    # the rotation subgroup acts freely
    order3 = next(S for S in enumerate_subgroups(G) if S.order == 3)
    assert subquotient_complex(X, e, order3).ranks == {}


def test_invalid_pair_rejected():
    X = circle_dihedral()
    G = X.group
    subs = enumerate_subgroups(G)
    H2 = next(S for S in subs if S.order == 2)
    H3 = next(S for S in subs if S.order == 3)
    with pytest.raises(InvalidPair):
        subquotient_complex(X, H2, H3)


def test_cochain_circle_constant():
    # Bredon cohomology of the circle fixture with coefficients in the dual
    # of constant Z: the quotient is an interval, so H^0 = Z and H^1 = 0
    X = circle_reflection()
    cat = OrbitCategory(X.group)
    C = bredon_cochain_complex(X, build_system(cat, "constant"))
    h = homology(C)
    assert h.group(0) == (1, ())     # degree -0: H^0
    assert h.group(-1) == (0, ())    # degree -1: H^1


def test_cochain_singular_sphere():
    # underlying cohomology of S^2: H^0 = Z, H^2 = Z
    X = sphere_reflection()
    cat = OrbitCategory(X.group)
    h = homology(bredon_cochain_complex(X, build_system(cat, "singular")))
    assert h.group(0) == (1, ())
    assert h.group(-2) == (1, ())


def assert_universal_coefficients(X, M):
    """The Bredon cohomology of X with coefficients in the dual of M
    against its homology: over Z, H^n has the rank of H_n and the torsion
    of H_(n-1); over F_p the dimensions agree."""
    h = homology(bredon_chain_complex(X, M))
    c = homology(bredon_cochain_complex(X, M))
    degs = set(h.degrees()) | {-n for n in c.degrees()}
    for n in range(min(degs, default=0), max(degs, default=0) + 2):
        assert c.betti(-n) == h.betti(n), n
        assert c.torsion(-n) == h.torsion(n - 1), n


@pytest.mark.parametrize("kind", [k for k in SYSTEM_KINDS if k != "general"])
@pytest.mark.parametrize("name", sorted(GCW_FIXTURES))
def test_cochains_obey_universal_coefficients(name, kind):
    X = GCW_FIXTURES[name]()
    p = 3 if X.group.order % 3 == 0 else 2
    for char in (0, p):
        assert_universal_coefficients(X, build_system(OrbitCategory(X.group), kind, char=char))


def test_cochains_of_the_antipodal_sphere_see_rp2_torsion():
    # a free C2 on S^2, two swapped cells per dimension; the quotient
    # system computes RP^2: H_1 = Z/2 and H^2 = Z/2
    from equimorse.gcw import gcw_from_cells

    G = FiniteGroup.cyclic(2)
    swap = {n: (1, 0) for n in range(3)}
    X = gcw_from_cells(
        G, {0: 2, 1: 2, 2: 2},
        {1: [[(0, -1), (1, 1)], [(0, 1), (1, -1)]],
         2: [[(0, 1), (1, 1)], [(0, 1), (1, 1)]]},
        {0: {n: (0, 1) for n in range(3)}, 1: swap})
    M = build_system(OrbitCategory(X.group), "quotient")
    assert groups_of(homology(bredon_chain_complex(X, M))) == {
        0: (1, ()), 1: (0, (2,))}
    assert groups_of(homology(bredon_cochain_complex(X, M))) == {
        0: (1, ()), -2: (0, (2,))}
    assert_universal_coefficients(X, M)
    assert_universal_coefficients(X, build_system(OrbitCategory(X.group), "quotient", char=2))


def test_mod2_bredon_matches_oracle():
    X = sphere_reflection()
    cat = OrbitCategory(X.group)
    M = build_system(cat, "singular", char=2)
    br = homology(bredon_chain_complex(X, M))
    oracle = homology(subquotient_complex(
        X, trivial_subgroup(X.group), trivial_subgroup(X.group), char=2))
    assert groups_of(br) == groups_of(oracle)


def test_weyl_pair_on_dihedral_circle():
    # quotient by the rotation subgroup is a circle; the residual reflection
    # fixes exactly two points of it
    X = circle_dihedral()
    G = X.group
    H3 = next(S for S in enumerate_subgroups(G) if S.order == 3)
    K2 = next(S for S in enumerate_subgroups(G) if S.order == 2)
    e = trivial_subgroup(G)
    quot = homology(subquotient_complex(X, H3, e))
    assert groups_of(quot) == {0: (1, ()), 1: (1, ())}
    fixed_in_quot = homology(subquotient_complex(X, H3, K2))
    assert groups_of(fixed_in_quot) == {0: (2, ())}


def _first_law_failure(G, cells, perms):
    """The first (s, t), in the loop order of gcw_from_cells, whose
    composite s∘t differs from st on some cell, checked cell by cell."""
    for s in G.elements():
        for t in G.elements():
            st = G.mul[s][t]
            for n, count in cells.items():
                if any(perms[s][n][perms[t][n][i]] != perms[st][n][i]
                       for i in range(count)):
                    return s, t
    return None


def test_cell_action_group_law_names_the_first_failing_pair():
    from itertools import permutations

    from equimorse.gcw import gcw_from_cells

    # C2 whose generator turns three loops at a fixed vertex a third of the
    # way round: the law breaks on the one pair (1, 1), on the loops only
    C2 = FiniteGroup.cyclic(2)
    cells = {0: 1, 1: 3}
    bnds = {0: [[]], 1: [[], [], []]}
    perms = {0: {0: (0,), 1: (0, 1, 2)}, 1: {0: (0,), 1: (1, 2, 0)}}
    assert _first_law_failure(C2, cells, perms) == (1, 1)
    with pytest.raises(ValueError, match=r"violates the group law on \(1,1\)$"):
        gcw_from_cells(C2, cells, bnds, perms)
    # S3 permuting three points, with two elements' permutations swapped:
    # the same first pair as the cell-by-cell check
    S3 = FiniteGroup.symmetric(3)
    perm = sorted(permutations(range(3)))
    cells, bnds = {0: 3}, {0: [[], [], []]}
    gcw_from_cells(S3, cells, bnds, {s: {0: perm[s]} for s in S3.elements()})
    for a in range(1, 6):
        for b in range(a + 1, 6):
            table = {s: {0: perm[s]} for s in S3.elements()}
            table[a], table[b] = table[b], table[a]
            s, t = _first_law_failure(S3, cells, table)
            with pytest.raises(ValueError, match=rf"group law on \({s},{t}\)$"):
                gcw_from_cells(S3, cells, bnds, table)


@pytest.mark.parametrize("face", [5, 2, -1])
def test_boundary_face_outside_the_cells_is_rejected(face):
    # an interval with its two endpoints, one 1-cell naming a face that is
    # not one of the two 0-cells
    from equimorse.gcw import gcw_from_cells

    G = FiniteGroup.trivial()
    with pytest.raises(ValueError, match=rf"names face {face}, not one of 2 0-cells"):
        gcw_from_cells(G, {0: 2, 1: 1}, {1: [[(0, -1), (face, 1)]]},
                       {0: {0: (0, 1), 1: (0,)}})


@pytest.mark.parametrize("bnds, count", [({1: []}, 0), ({}, 0),
                                          ({1: [[], []]}, 2)])
def test_boundary_list_of_the_wrong_length_is_rejected(bnds, count):
    # C2 swapping two vertices and fixing the edge between them: a list of
    # edge boundaries that is empty, missing or one too long names degree 1,
    # where the empty one used to end in an IndexError
    G = FiniteGroup.cyclic(2)
    perms = {0: {0: (0, 1), 1: (0,)}, 1: {0: (1, 0), 1: (0,)}}
    with pytest.raises(ValueError,
                       match=rf"^{count} boundaries in degree 1 for 1 1-cells$"):
        CellAction(G, {0: 2, 1: 1}, bnds, perms).orbits()


@pytest.mark.parametrize("key", [(-1, 0), (5, 0), (0, -1)])
def test_boundary_key_outside_the_orbit_pairs_is_rejected(key):
    # circle_reflection's record from its one 1-cell-orbit to the second
    # vertex orbit, moved to a key that names no orbit pair
    X = circle_reflection()
    recs = dict(X.boundary[1])
    recs[key] = recs.pop((0, 1))
    a, b = key
    with pytest.raises(ValueError, match=rf"boundary key \({a}, {b}\) in degree 1 names "
                                         r"no pair of 1 1-cell-orbits and 2 0-cell-orbits$"):
        GCWComplex(group=X.group, cells=X.cells, boundary={1: recs})


def test_boundary_record_with_a_mismatched_morphism_is_rejected():
    # circle_reflection's record 1:0->1 given a morphism out of the vertex
    # stabilizer C2 instead of the edge's trivial stabilizer
    X = circle_reflection()
    recs = dict(X.boundary[1])
    (m, deg), *rest = recs[(0, 1)]
    vertex = X.cells[0][1].stabilizer
    recs[(0, 1)] = ((OrbitMorphism(vertex, m.target, m.coset), deg), *rest)
    with pytest.raises(ValueError,
                       match=r"^boundary record 1:0->1 has mismatched morphism$"):
        GCWComplex(group=X.group, cells=X.cells, boundary={1: recs})


@pytest.mark.parametrize("perms, s, n", [
    ({0: {0: (0, 1), 1: (0,)}}, 1, 0),
    ({0: {0: (0, 1), 1: (0,)}, 1: {0: (0, 1)}}, 1, 1),
])
def test_permutation_table_missing_an_element_or_a_degree_is_rejected(perms, s, n):
    # C2 on an interval with its endpoints: a table without element 1, or
    # without element 1's permutation of the edge, used to end in a KeyError
    C2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError,
                       match=rf"^element {s} has no permutation of {n}-cells$"):
        gcw_from_cells(C2, {0: 2, 1: 1}, {1: [[(0, -1), (1, 1)]]}, perms)


def _generated_actions(seed):
    """(group, cell action) of each complex of one generated Bredon pass:
    grid tori and band spheres, renumbered and reoriented by the seed."""
    from test_spectral import _load_gen

    for desc, _, _ in _load_gen().bredon_pass(random.Random(f"cells/{seed}")):
        G = FiniteGroup(tuple(tuple(r) for r in desc["table"]), name=desc["name"])
        yield G, CellAction(G, desc["cells"], desc["boundaries"],
                            dict(enumerate(desc["perms"])))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_induction_from_the_whole_group_is_the_complex(seed):
    # G x_G X, built over the abstract table of the full subgroup and read
    # back through it, has X's cell-orbits and records
    for G, X in _generated_actions(seed):
        full = full_subgroup(G)
        up = CellAction(full.as_group(), X.cells, X.bnds, X.perms).gcw(H=full)
        want = X.gcw()
        assert up.group == G
        assert up.cells == want.cells
        assert up.boundary == want.boundary


def test_induction_needs_the_action_over_the_subgroup_table():
    # a C2 action induced along the trivial subgroup of C2
    C2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError, match=r"must be over H\.as_group\(\)$"):
        CellAction.disk(C2, 0).gcw(H=trivial_subgroup(C2))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_point_is_the_unit_of_product(seed):
    for G, X in _generated_actions(seed):
        assert CellAction.disk(G, 0).product(X).orbits() == X.orbits()


def test_product_reads_a_missing_degree_as_empty_boundary_rows():
    # an interval over the trivial group written without its degree-0 rows,
    # which orbits() and gcw() do not require: the product with the point
    # reads them as empty, on either side, and is the interval again
    trivial = FiniteGroup.trivial()
    X = CellAction(trivial, {0: 2, 1: 1}, {1: [[(0, -1), (1, 1)]]},
                   {0: {0: (0, 1), 1: (0,)}})
    X.gcw()
    for P in (CellAction.disk(trivial, 0).product(X),
              X.product(CellAction.disk(trivial, 0))):
        assert (P.cells, P.bnds) == ({0: 2, 1: 1},
                                     {0: [[], []], 1: [[(0, -1), (1, 1)]]})
        assert P.orbits() == X.orbits()


def _full_check_failure(G, cells, bnds, perms):
    """The message of the first failure of the all-elements check of a
    cell action, in its order: the permutations, the group law on every
    pair, the faces, then boundary equivariance under every element; None
    if the action passes."""
    for s in G.elements():
        for n, count in cells.items():
            if sorted(perms[s][n]) != list(range(count)):
                return f"element {s} does not permute {n}-cells"
    pair = _first_law_failure(G, cells, perms)
    if pair:
        return f"cell action violates the group law on ({pair[0]},{pair[1]})"
    red = {}
    for n in cells:
        if n - 1 in cells:
            red[n] = []
            for faces in bnds[n]:
                acc = {}
                for f, d in faces:
                    if not 0 <= f < cells[n - 1]:
                        return (f"{n}-cell boundary names face {f}, "
                                f"not one of {cells[n - 1]} {n - 1}-cells")
                    acc[f] = acc.get(f, 0) + d
                red[n].append({f: d for f, d in acc.items() if d})
    for s in G.elements():
        for n in red:
            p, q = perms[s][n], perms[s][n - 1]
            for i in range(cells[n]):
                if {q[f]: d for f, d in red[n][i].items()} != red[n][p[i]]:
                    return f"boundary not equivariant on {n}-cell {i} under {s}"
    return None


def _coset_graph(G, rng):
    """A 1-dimensional G-complex: vertices G/H for a random subgroup H, a
    free orbit of vertices and a fixed vertex; edges g -> gH, g -> gx and
    gK -> gH for K a subgroup of H.  Returns (cells, boundaries, perms)."""
    subs = enumerate_subgroups(G)
    H = rng.choice(subs)
    K = rng.choice([L for L in subs if set(L.elements) <= set(H.elements)])
    x = rng.choice(G.elements())
    cosH, cosK = left_cosets(G, H), left_cosets(G, K)
    nH, nK, order = len(cosH), len(cosK), G.order
    atH = {g: t for t, c in enumerate(cosH) for g in c}
    atK = {g: t for t, c in enumerate(cosK) for g in c}
    # vertices: [cosets of H | elements | the fixed vertex]
    cells = {0: nH + order + 1, 1: 2 * order + nK}
    bnds = {0: [[] for _ in range(cells[0])],
            1: [[(nH + g, 1), (atH[g], -1)] for g in G.elements()]
            + [[(nH + G.mul[g][x], 1), (nH + g, -1)] for g in G.elements()]
            + [[(atH[c[0]], 1), (nH + order, -1)] for c in cosK]}
    perms = {}
    for s in G.elements():
        left = [G.mul[s][g] for g in G.elements()]
        perms[s] = {0: tuple([atH[G.mul[s][c[0]]] for c in cosH]
                             + [nH + y for y in left] + [nH + order]),
                    1: tuple(left + [order + y for y in left]
                             + [2 * order + atK[G.mul[s][c[0]]] for c in cosK])}
    return cells, bnds, perms


_ACTION_GROUPS = {
    "C2": FiniteGroup.cyclic(2), "C3": FiniteGroup.cyclic(3), "C4": FiniteGroup.cyclic(4),
    "C2xC2": FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
    "S3": FiniteGroup.symmetric(3),
    "C3xC3": FiniteGroup.product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3)),
}


@pytest.mark.parametrize("name", _ACTION_GROUPS)
def test_generator_check_rejects_what_the_full_check_rejects(name):
    # the group law on the identity and a generating set, and equivariance
    # on the generators, reject exactly the actions that the all-pairs
    # check rejects, naming the same first failure
    from equimorse.gcw import _generators

    G = _ACTION_GROUPS[name]
    gens = _generators(G)
    outside = [s for s in G.elements() if s not in gens and s != G.identity] or gens
    rng = random.Random(name)
    for trial in range(40):
        cells, bnds, perms = _coset_graph(G, rng)
        assert _full_check_failure(G, cells, bnds, perms) is None
        gcw_from_cells(G, cells, bnds, perms)
        if trial % 2:
            # one element's permutation of one dimension replaced
            s, n = rng.choice(G.elements()), rng.choice((0, 1))
            p = list(perms[s][n])
            rng.shuffle(p)
            perms[s] = {**perms[s], n: tuple(p)}
        else:
            # the boundary of the image of an edge under an element outside
            # the generating set, one face degree changed
            s, i = rng.choice(outside), rng.randrange(cells[1])
            j = perms[s][1][i]
            faces = [(perms[s][0][f], d) for f, d in bnds[1][i]]
            k = rng.randrange(len(faces))
            faces[k] = (faces[k][0], faces[k][1] * rng.choice((-1, 2)))
            bnds[1] = bnds[1][:j] + [faces] + bnds[1][j + 1:]
        want = _full_check_failure(G, cells, bnds, perms)
        if want is None:
            gcw_from_cells(G, cells, bnds, perms)
        else:
            with pytest.raises(ValueError) as exc:
                gcw_from_cells(G, cells, bnds, perms)
            assert str(exc.value) == want
