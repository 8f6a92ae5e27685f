import itertools

import pytest

from equimorse.groups import (
    FiniteGroup,
    GroupTableError,
    InvalidMorphism,
    OrbitCategory,
    OrbitMorphism,
    Subgroup,
    compose,
    enumerate_subgroups,
    full_subgroup,
    left_cosets,
    normalizer,
    orbit_homs,
    trivial_subgroup,
    weyl_group,
)


def brute_force_subgroups(G):
    """Oracle: test every subset containing the identity for closure."""
    out = []
    others = [x for x in G.elements() if x != G.identity]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            s = set(extra) | {G.identity}
            closed = all(G.mul[a][b] in s for a in s for b in s) and all(
                G.inverse[a] in s for a in s
            )
            if closed:
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda t: (len(t), t))


def test_table_validation():
    with pytest.raises(GroupTableError):
        FiniteGroup(((0, 1), (1, 1)))
    # C2 is fine
    FiniteGroup(((0, 1), (1, 0)))


def test_cyclic_symmetric_orders():
    assert FiniteGroup.trivial().order == 1
    assert FiniteGroup.cyclic(4).order == 4
    assert FiniteGroup.symmetric(3).order == 6
    assert FiniteGroup.dihedral(3).order == 6
    assert FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)).order == 4


def test_inverse_table():
    G = FiniteGroup.symmetric(3)
    e = G.identity
    for a in G.elements():
        assert G.mul[a][G.inverse[a]] == e
        assert G.mul[G.inverse[a]][a] == e


def test_enumerate_subgroups_trivial_and_c2():
    T = FiniteGroup.trivial()
    assert [H.elements for H in enumerate_subgroups(T)] == [(0,)]
    C2 = FiniteGroup.cyclic(2)
    assert [H.elements for H in enumerate_subgroups(C2)] == [(0,), (0, 1)]


def test_enumerate_subgroups_s3_counts():
    G = FiniteGroup.symmetric(3)
    subs = enumerate_subgroups(G)
    assert len(subs) == 6
    orders = sorted(H.order for H in subs)
    assert orders == [1, 2, 2, 2, 3, 6]


@pytest.mark.parametrize(
    "G",
    [
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
        FiniteGroup.symmetric(3),
        FiniteGroup.dihedral(4),
    ],
)
def test_enumerate_subgroups_matches_bruteforce(G):
    # exhaustive subset oracle, viable for |G| <= 8
    assert G.order <= 8
    got = [H.elements for H in enumerate_subgroups(G)]
    assert got == brute_force_subgroups(G)


def test_orbit_homs_c2_examples():
    G = FiniteGroup.cyclic(2)
    e = trivial_subgroup(G)
    full = full_subgroup(G)
    assert len(orbit_homs(G, e, e)) == 2
    assert orbit_homs(G, full, e) == ()
    assert len(orbit_homs(G, full, full)) == 1


def test_orbit_homs_s3_reflection():
    G = FiniteGroup.symmetric(3)
    # order-2 subgroups are the transposition subgroups
    H = next(S for S in enumerate_subgroups(G) if S.order == 2)
    # oracle: enumerate cosets xK and check h*xK == xK for all h in H
    expected = 0
    for c in left_cosets(G, H):
        x = c[0]
        if all(tuple(sorted(G.mul[G.mul[h][x]][k] for k in H.elements)) == c
               for h in H.elements):
            expected += 1
    ms = orbit_homs(G, H, H)
    assert len(ms) == expected == 1


def test_hom_counts_to_trivial_target():
    # Hom(G/H, G/e) has |G| elements for H = e and is empty otherwise
    for G in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        e = trivial_subgroup(G)
        for H in enumerate_subgroups(G):
            n = len(orbit_homs(G, H, e))
            assert n == (G.order if H.order == 1 else 0)


def test_composition_closure_exhaustive():
    for G in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        cat = OrbitCategory(G)
        for H in cat.objects:
            for K in cat.objects:
                for L in cat.objects:
                    for f in cat.hom(H, K):
                        for g in cat.hom(K, L):
                            gf = compose(g, f)
                            assert gf in cat.hom(H, L)


def identity_morphism(H):
    return OrbitMorphism(H, H, (H.group.identity,))


def test_identity_morphism_neutral():
    G = FiniteGroup.symmetric(3)
    cat = OrbitCategory(G)
    for H in cat.objects:
        idm = identity_morphism(H)
        assert idm in cat.hom(H, H)
        for K in cat.objects:
            for f in cat.hom(H, K):
                assert compose(f, idm) == f
                assert compose(identity_morphism(K), f) == f


def test_morphism_identity_is_by_coset():
    G = FiniteGroup.cyclic(2)
    full = full_subgroup(G)
    e = trivial_subgroup(G)
    from equimorse.groups import OrbitMorphism

    a = OrbitMorphism(e, full, (0,))
    b = OrbitMorphism(e, full, (1,))
    assert a == b  # 0*C2 and 1*C2 are the same coset


def test_invalid_morphism_rejected():
    G = FiniteGroup.cyclic(2)
    from equimorse.groups import OrbitMorphism

    with pytest.raises(InvalidMorphism):
        OrbitMorphism(full_subgroup(G), trivial_subgroup(G), (0,))


def test_weyl_group_cases():
    G = FiniteGroup.symmetric(3)
    assert weyl_group(G, full_subgroup(G)).group.order == 1
    C4 = FiniteGroup.cyclic(4)
    H2 = next(S for S in enumerate_subgroups(C4) if S.order == 2)
    assert weyl_group(C4, H2).group.order == 2
    # normalizer oracle: conjugation test over all elements
    H3 = next(S for S in enumerate_subgroups(G) if S.order == 3)
    nor = [g for g in G.elements()
           if {G.conj(g, h) for h in H3.elements} == set(H3.elements)]
    assert set(normalizer(G, H3).elements) == set(nor)
    W = weyl_group(G, H3)
    assert W.group.order == 2
    # representative map lands in the right cosets
    for i, r in enumerate(W.reps):
        assert r in W.cosets[i]


def test_subgroup_rejects_nonclosed():
    G = FiniteGroup.cyclic(4)
    with pytest.raises(Exception):
        Subgroup(G, (0, 1))  # 1+1=2 missing


_TABLE_GROUPS = {
    "C1": FiniteGroup.cyclic(1),
    "C2": FiniteGroup.cyclic(2),
    "C3": FiniteGroup.cyclic(3),
    "C4": FiniteGroup.cyclic(4),
    "C2xC2": FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
    "S3": FiniteGroup.symmetric(3),
    "D4": FiniteGroup.dihedral(4),
    "C3xC3": FiniteGroup.product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3)),
}


@pytest.mark.parametrize("G", _TABLE_GROUPS.values(), ids=_TABLE_GROUPS)
def test_coset_tables_match_brute_force(G):
    # every double coset HgL by its definition, and the K-fixed H-classes
    # of G/L as the double cosets that k(HgL) = HgL leaves in place, for
    # every (L, H, K) with K normalizing H
    subs = G.subgroups
    mul = G.mul
    checked = 0
    for H in subs:
        for L in subs:
            want = [tuple(sorted({mul[mul[h][g]][l] for h in H.elements for l in L.elements}))
                    for g in G.elements()]
            table = G.double_cosets(H, L)
            assert list(table) == want
            assert G.double_cosets(H, L) is table
            for K in subs:
                if not set(K.elements) <= set(normalizer(G, H).elements):
                    continue
                fixed = sorted({dc for dc in want
                                if {mul[k][x] for k in K.elements for x in dc} == set(dc)})
                classes = G.orbit_classes(L, H, K)
                assert list(classes) == fixed
                assert G.orbit_classes(L, H, K) is classes
                checked += 1
    assert checked >= len(subs) ** 2


def test_coset_tables_are_computed_once_per_group(monkeypatch):
    # the admission check, every system over a second category of the same
    # group (as the benchmark builds one) and every subquotient complex read
    # the group's tables: the double coset primitive runs once per distinct
    # HgL, and a category holds nothing but its group
    import equimorse.groups as groups
    from equimorse.coefficients import SYSTEM_KINDS, build_system
    from equimorse.fixtures import torus_double
    from equimorse.gcw import bredon_chain_complex, subquotient_complex

    calls = []
    real = groups.double_coset

    def counted(G, H, x, K):
        calls.append((H.elements, K.elements, real(G, H, x, K)))
        return calls[-1][2]

    monkeypatch.setattr(groups, "double_coset", counted)
    X = torus_double()
    G = X.group
    admitted = len(calls)
    assert admitted and not hasattr(X, "category")
    cat = OrbitCategory(G)
    pairs = [(H, K) for H in G.subgroups for K in G.subgroups
             if set(K.elements) <= set(normalizer(G, H).elements)]
    for _ in range(2):
        for kind in SYSTEM_KINDS[:-1]:
            bredon_chain_complex(X, build_system(cat, kind, char=2))
        for H, K in pairs:
            bredon_chain_complex(X, build_system(cat, "general", 2, H, K))
            subquotient_complex(X, H, K, char=2)
    assert len(calls) > admitted and len(calls) == len(set(calls))
    assert vars(cat) == {"group": G}


def test_hash_is_the_generated_one_computed_once():
    # the value the dataclass would generate, so no set or dict order moves
    for G in _TABLE_GROUPS.values():
        assert hash(G) == hash((G.mul,))
        assert hash(FiniteGroup(G.mul, name="other")) == hash(G)
        for H in enumerate_subgroups(G):
            assert hash(H) == hash((H.group, H.elements))
            assert hash(Subgroup(G, tuple(reversed(H.elements)))) == hash(H)
