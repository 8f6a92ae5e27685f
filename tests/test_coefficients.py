import pytest

from equimorse.coefficients import build_system
from equimorse.groups import (
    FiniteGroup,
    InvalidPair,
    OrbitCategory,
    OrbitMorphism,
    compose,
    enumerate_subgroups,
    full_subgroup,
    normalizer,
    trivial_subgroup,
)


@pytest.fixture(scope="module")
def c2cat():
    return OrbitCategory(FiniteGroup.cyclic(2))


@pytest.fixture(scope="module")
def s3cat():
    return OrbitCategory(FiniteGroup.symmetric(3))


def morphisms(cat):
    for A in cat.objects:
        for B in cat.objects:
            yield from cat.hom(A, B)


def systems(cat, kind):
    """The systems of one kind over cat: "general" once per pair (H, K) of
    subgroups with K normalizing H."""
    if kind != "general":
        yield build_system(cat, kind)
        return
    for H in cat.objects:
        nset = set(normalizer(cat.group, H).elements)
        for K in cat.objects:
            if set(K.elements) <= nset:
                yield build_system(cat, kind, H=H, K=K)


def test_constant_system(c2cat):
    M = build_system(c2cat, "constant")
    for H in c2cat.objects:
        assert M.rank(H) == 1
    for m in morphisms(c2cat):
        assert M.images(m) == (0,)


def test_singular_ranks_c2(c2cat):
    M = build_system(c2cat, "singular")
    e = trivial_subgroup(c2cat.group)
    full = full_subgroup(c2cat.group)
    assert M.rank(e) == 2
    assert M.rank(full) == 1


def test_fixed_point_ranks_c2(c2cat):
    M = build_system(c2cat, "fixed-point")
    e = trivial_subgroup(c2cat.group)
    full = full_subgroup(c2cat.group)
    assert M.rank(e) == 0
    assert M.rank(full) == 1


def test_quotient_rel_fixed_c2(c2cat):
    M = build_system(c2cat, "quotient-rel-fixed")
    e = trivial_subgroup(c2cat.group)
    full = full_subgroup(c2cat.group)
    assert M.rank(e) == 1
    assert M.rank(full) == 0
    # the class of G/e maps to the killed value at G/G
    (proj,) = c2cat.hom(e, full)
    assert M.images(proj) == (None,)


def test_singular_projection_matrix_c2(c2cat):
    # G/e -> G/C2 induces the fold map [1 1] on H_0: both classes of G/e
    # go to the one class of G/C2
    M = build_system(c2cat, "singular")
    e = trivial_subgroup(c2cat.group)
    full = full_subgroup(c2cat.group)
    (proj,) = c2cat.hom(e, full)
    assert M.images(proj) == (0, 0)


def test_identity_morphisms_give_identity(s3cat):
    for kind in ("constant", "singular", "fixed-point", "quotient-rel-fixed",
                 "general"):
        for M in systems(s3cat, kind):
            for H in s3cat.objects:
                assert M.images(OrbitMorphism(H, H, (H.group.identity,))) == \
                    tuple(range(M.rank(H)))


@pytest.mark.parametrize("kind", ["constant", "singular", "fixed-point",
                                  "quotient-rel-fixed", "general"])
@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_functoriality_exhaustive(kind, order):
    # images(g∘f)[j] = images(g)[images(f)[j]], a class sent to 0 staying 0
    G = FiniteGroup.symmetric(3) if order == 6 else FiniteGroup.cyclic(order)
    cat = OrbitCategory(G)
    for M in systems(cat, kind):
        for A in cat.objects:
            for B in cat.objects:
                for C in cat.objects:
                    for f in cat.hom(A, B):
                        fi = M.images(f)
                        assert len(fi) == M.rank(A)
                        assert all(i is None or 0 <= i < M.rank(B) for i in fi)
                        for g in cat.hom(B, C):
                            gi = M.images(g)
                            assert M.images(compose(g, f)) == tuple(
                                None if i is None else gi[i] for i in fi)


def test_general_recovers_singular(s3cat):
    G = s3cat.group
    e = trivial_subgroup(G)
    M1 = build_system(s3cat, "singular")
    M2 = build_system(s3cat, "general", H=e, K=e)
    for L in s3cat.objects:
        assert M1.rank(L) == M2.rank(L)
    for m in morphisms(s3cat):
        assert M1.images(m) == M2.images(m)


def test_general_recovers_fixed_point(s3cat):
    G = s3cat.group
    e = trivial_subgroup(G)
    M1 = build_system(s3cat, "fixed-point")
    M2 = build_system(s3cat, "general", H=e, K=full_subgroup(G))
    for L in s3cat.objects:
        assert M1.rank(L) == M2.rank(L)


def test_general_weyl_constraint(s3cat):
    G = s3cat.group
    H3 = next(S for S in enumerate_subgroups(G) if S.order == 3)
    H2 = next(S for S in enumerate_subgroups(G) if S.order == 2)
    # the order-2 subgroup does not normalize... it does (index 2 normal H3);
    # but H2 is not normalized by H3
    with pytest.raises(InvalidPair, match="K must normalize H"):
        build_system(s3cat, "general", H=H2, K=H3)
    # K inside the normalizer works
    build_system(s3cat, "general", H=H3, K=H2)
    # the general kind needs both subgroups, and of the category's group
    with pytest.raises(InvalidPair, match="general kind needs subgroups H and K"):
        build_system(s3cat, "general", H=H3)
    C2 = FiniteGroup.cyclic(2)
    with pytest.raises(InvalidPair, match="H and K must be subgroups of S3"):
        build_system(s3cat, "general", H=H3, K=trivial_subgroup(C2))
    with pytest.raises(ValueError, match="unknown system kind 'bogus'"):
        build_system(s3cat, "bogus")


def test_char_flag(c2cat):
    M = build_system(c2cat, "singular", char=2)
    assert M.char == 2
