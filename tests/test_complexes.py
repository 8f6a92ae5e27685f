import random
from itertools import combinations
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from equimorse import _intlinalg as la
from equimorse.complexes import (
    ChainComplex,
    ChainComplexError,
    HomologySummary,
    homology,
)

from intmat import (columns, det, dual_complex, identity, is_zero, low_reduction, mat_mod,
                    mat_mul, random_sparse_complex, rank, rref, rref_nullspace,
                    snf_diagonal)


def sympy_invariant_factors(A, n):
    """The nonzero diagonal of sympy's Smith form of the dense rows A, n
    wide."""
    if not A or not n:
        return []
    D = smith_normal_form(sympy.Matrix(A), domain=sympy.ZZ)
    return [int(D[i, i]) for i in range(min(len(A), n)) if D[i, i]]


def assert_invariant_factors(A, n, want=None):
    """Both Smith form routes, the sparse snf_diagonal and the dense
    _invariant_factors alone, give sympy's invariant factors of A (and want,
    when given)."""
    ref = sympy_invariant_factors(A, n)
    if want is not None:
        assert ref == want
    assert snf_diagonal(columns(A, n)) == ref
    assert la._invariant_factors(A) == ref


def test_snf_zero_matrix():
    assert_invariant_factors(((0, 0, 0), (0, 0, 0)), 3, want=[])


def test_snf_diag_2_3():
    # hand row/column reduction gives diag(1, 6)
    assert_invariant_factors(((2, 0), (0, 3)), 2, want=[1, 6])


@pytest.mark.parametrize("seed", range(20))
def test_snf_random_selfverifying(seed):
    rng = random.Random(seed)
    m, n = 5, 7
    A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
    assert_invariant_factors(A, n)


@pytest.mark.parametrize("seed", range(40))
def test_invariant_factors_are_quotients_of_determinantal_divisors(seed):
    # d_1 ... d_k is the gcd of the k x k minors (Smith 1861), for every k:
    # an oracle that uses neither sympy nor _intlinalg
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    bound = rng.choice((2, 4, 9))
    A = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(n)]
         for _ in range(m)]
    for diag in (snf_diagonal(columns(A, n)), la._invariant_factors(A)):
        diag = diag + [0] * (min(m, n) - len(diag))
        for k in range(1, min(m, n) + 1):
            minors = (det([[A[i][j] for j in cs] for i in rs])
                      for rs in combinations(range(m), k)
                      for cs in combinations(range(n), k))
            assert prod(diag[:k]) == gcd(*minors)


def circle_complex(char=0):
    return ChainComplex(char=char, ranks={0: 1, 1: 1}, boundary={1: ((),)})


def rp2_complex(char=0):
    return ChainComplex(
        char=char,
        ranks={0: 1, 1: 1, 2: 1},
        boundary={1: ((),), 2: (((0, 2),),)},
    )


def test_homology_circle():
    h = homology(circle_complex())
    assert h.group(0) == (1, ())
    assert h.group(1) == (1, ())


def test_homology_rp2_integral():
    h = homology(rp2_complex())
    assert h.group(0) == (1, ())
    assert h.group(1) == (0, (2,))
    assert h.group(2) == (0, ())
    assert h.describe(1) == "Z/2"


def test_homology_rp2_mod2():
    h = homology(rp2_complex(char=2))
    assert [h.dim(n) for n in (0, 1, 2)] == [1, 1, 1]


def test_dd_nonzero_rejected():
    with pytest.raises(ChainComplexError) as exc:
        ChainComplex(
            char=0,
            ranks={0: 1, 1: 1, 2: 1},
            boundary={1: (((0, 1),),), 2: (((0, 1),),)},
        )
    assert exc.value.degree == 2


def test_euler_characteristic_consistency():
    for C in (circle_complex(), rp2_complex(), rp2_complex(char=2)):
        h = homology(C)
        assert C.euler_characteristic() == h.euler_characteristic()


def test_universal_coefficients_mod2():
    # dim_Fp H_n = betti_n + #{p | torsion of H_n} + #{p | torsion of H_{n-1}}
    # (tensor term plus Tor term one degree down)
    C = rp2_complex()
    hz = homology(C)
    hp = homology(C.reduce_mod(2))
    for n in (0, 1, 2):
        t_here = sum(1 for d in hz.torsion(n) if d % 2 == 0)
        t_below = sum(1 for d in hz.torsion(n - 1) if d % 2 == 0)
        assert hp.dim(n) == hz.betti(n) + t_here + t_below


def test_summary_formatting():
    h = HomologySummary(char=0, entries={0: (1, ()), 1: (2, (2, 4))})
    assert h.describe(1) == "Z^2 + Z/2 + Z/4"
    assert "degree" in h.text_table()
    assert h.csv_rows()[1] == "0,1,"


def test_klein_bottle_integral():
    # cellular Klein bottle: one 0-cell, two 1-cells a,b, one 2-cell, d2 = (0, 2)
    C = ChainComplex(
        char=0,
        ranks={0: 1, 1: 2, 2: 1},
        boundary={1: ((), ()), 2: (((1, 2),),)},
    )
    h = homology(C)
    assert h.group(0) == (1, ())
    assert h.group(1) == (1, (2,))
    assert h.group(2) == (0, ())


@pytest.mark.parametrize("char, expected", [
    (0, {1: (0, (2,))}),
    (2, {1: (1, ()), 2: (1, ())}),
    (3, {}),
])
def test_homology_reduces_each_boundary_map_once(monkeypatch, char, expected):
    # three nonzero boundary maps; H_1 = Z/2 over Z
    C = ChainComplex(
        char=char,
        ranks={0: 1, 1: 2, 2: 2, 3: 1},
        boundary={1: columns(((1, -1),)), 2: columns(((2, 2), (2, 2))),
                  3: columns(((1,), (-1,)))},
    )
    calls = []
    real = la.eliminate

    def counted(cols, p, integral=False, low=None):
        calls.append((p, integral))
        return real(cols, p, integral, low)

    monkeypatch.setattr(la, "eliminate", counted)
    h = homology(C)
    # one elimination per map: over Z the integral one
    assert calls == [(char, not char)] * 3
    assert h.entries == expected


def test_rref_nullspace_rank_mod_p():
    rows = [[1, 2, 0], [2, 4, 1]]
    assert rank(columns(rows), 5) == 2
    ns = rref_nullspace(rows, 3, 5)
    assert len(ns) == 1
    v = dict(ns[0])
    for row in rows:
        assert sum(a * v.get(j, 0) for j, a in enumerate(row)) % 5 == 0


# -- oracles: sympy's Smith form, the textbook pairing, dense d∘d, Euler ------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_snf_identities_random(data):
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 8))
    entry = st.integers(-6, 6) | st.sampled_from((0, 0, 1, -1))
    A = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(m))
    assert_invariant_factors(A, n)


# entries about 80 % zero; 2, 3 and 6 leave a remainder for the dense Smith
# form once the units are gone
SPARSE_ENTRY = st.sampled_from((0,) * 28 + (1, -1, 2, -2, 3, -3, 6))


@st.composite
def sparse_matrices(draw):
    """(dense rows, width): up to 9 x 9, with 0 x n and m x 0 shapes, and a
    zero row and a zero column now and then."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    A = [[draw(SPARSE_ENTRY) for _ in range(n)] for _ in range(m)]
    if m and draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in A:
            row[j] = 0
    return A, n


@seed(29)
@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.sampled_from((2, 3, 5, 0)))
def test_sparse_elimination_matches_dense_reference(matrix, p):
    A, n = matrix
    cols = columns(A, n)
    assert_invariant_factors(A, n)
    _, piv = rref(A, p)
    assert rank(cols, p) == len(piv)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.sampled_from((2, 3, 0)), st.data())
def test_low_pivots_are_the_textbook_pairing(matrix, p, data):
    # rows and columns in (filtration, index) order, with ties: the pivot
    # rows of eliminate under the low rule are the lows of the left-to-right
    # column reduction
    A, n = matrix
    degree = st.integers(-1, 2)
    rf = data.draw(st.lists(degree, min_size=len(A), max_size=len(A)))
    cf = data.draw(st.lists(degree, min_size=n, max_size=n))
    rows = sorted(range(len(A)), key=rf.__getitem__)
    order = sorted(range(n), key=cf.__getitem__)
    cols = columns(A, n)
    pivots, rest = la.eliminate([cols[j] for j in order], p, low=rf)
    _, _, pairs = low_reduction([[A[i][j] for j in order] for i in rows], n, p)
    assert sorted((order[c], i) for c, i in pivots) == sorted(
        (order[j], rows[i]) for i, j in pairs)
    assert not any(a for _, a in rest)


def unimodular_pair(rng, n):
    """A random unimodular integer matrix with its inverse."""
    P = [list(r) for r in identity(n)]
    Q = [list(r) for r in identity(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- (I + c e_i e_j^T) P,  Q <- Q (I - c e_i e_j^T)
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
        for row in Q:
            row[j] -= c * row[i]
    return tuple(map(tuple, P)), tuple(map(tuple, Q))


def standard_complex_data(rng, top=3):
    """Boundary maps of a complex with d∘d = 0 in degrees 0..top, as a
    split standard complex (t_k times one generator onto another) seen
    through random unimodular changes of basis; returns (ranks, boundary,
    free homology ranks)."""
    out = {n: rng.randint(0, 2) for n in range(1, top + 1)}   # rank of d_n
    out[top + 1] = 0
    free = {n: rng.randint(0, 2) for n in range(top + 1)}
    ranks = {n: out[n + 1] + free[n] + (out[n] if n else 0) for n in range(top + 1)}
    # layout in degree n: [targets of d_{n+1} | free | sources of d_n]
    base = {}
    for n in range(1, top + 1):
        d = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        src0 = out[n + 1] + free[n]
        for k in range(out[n]):
            d[k][src0 + k] = rng.choice((1, 1, 2, 3, 4, 6))
        base[n] = tuple(map(tuple, d))
    pairs = {n: unimodular_pair(rng, ranks[n]) for n in range(top + 1)}
    boundary = {n: mat_mul(mat_mul(pairs[n - 1][0], base[n]), pairs[n][1])
                for n in range(1, top + 1) if ranks[n] and ranks[n - 1]}
    return ranks, boundary, free


def dense_dd_degree(boundary, char):
    """The degree of the first d_n∘d_{n+1} != 0 in the order the complex
    checks, from the dense product; None if the complex is square zero."""
    for n, d in boundary.items():
        if n + 1 in boundary:
            sq = mat_mul(d, boundary[n + 1])
            if char:
                sq = mat_mod(sq, char)
            if not is_zero(sq):
                return n + 1
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((0, 2, 3)), st.integers(0, 3))
def test_dd_check_matches_dense_product(seed, char, perturb):
    rng = random.Random(seed)
    ranks, boundary, _ = standard_complex_data(rng)
    rows = {n: [list(r) for r in d] for n, d in boundary.items()}
    for _ in range(perturb if rows else 0):
        n = rng.choice(sorted(rows))
        i, j = rng.randrange(len(rows[n])), rng.randrange(len(rows[n][0]))
        rows[n][i][j] += rng.choice((-1, 1, char or 1))
    want = dense_dd_degree(rows, char)
    boundary = {n: columns(r) for n, r in rows.items()}
    if want is None:
        ChainComplex(char=char, ranks=ranks, boundary=boundary)
    else:
        with pytest.raises(ChainComplexError) as exc:
            ChainComplex(char=char, ranks=ranks, boundary=boundary)
        assert exc.value.degree == want


@pytest.mark.parametrize("char", [0, 2, 3])
def test_dd_check_square_zero_and_not(char):
    # over F_2 the pair (1 1) * (1 1)^T is zero, over Z and F_3 it is 2
    ranks = {0: 1, 1: 2, 2: 1}
    boundary = {1: columns(((1, 1),)), 2: columns(((1,), (1,)))}
    if char == 2:
        ChainComplex(char=char, ranks=ranks, boundary=boundary)
    else:
        with pytest.raises(ChainComplexError) as exc:
            ChainComplex(char=char, ranks=ranks, boundary=boundary)
        assert exc.value.degree == 2
    ChainComplex(char=char, ranks=ranks,
                 boundary={1: columns(((1, 1),)), 2: columns(((1,), (-1,)))})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3, 5)))
def test_euler_characteristic_of_random_complexes(seed, p):
    rng = random.Random(seed)
    ranks, boundary, free = standard_complex_data(rng)
    C = ChainComplex(char=0, ranks=ranks,
                     boundary={n: columns(d) for n, d in boundary.items()})
    hz = homology(C)
    assert hz.euler_characteristic() == C.euler_characteristic()
    assert {n: hz.betti(n) for n in free} == free
    Cp = C.reduce_mod(p)
    assert homology(Cp).euler_characteristic() == Cp.euler_characteristic()


def uncleared_homology(C):
    """Homology from the rank (F_p) or the Smith diagonal (Z) of every
    full boundary map, each reduced on its own: the route without
    clearing."""
    diag = {n: snf_diagonal(d) if not C.char else [1] * rank(d, C.char)
            for n, d in C.boundary.items()}
    entries = {}
    for n in C.degrees():
        betti = C.rank(n) - len(diag.get(n, ())) - len(diag.get(n + 1, ()))
        torsion = tuple(x for x in diag.get(n + 1, ()) if x > 1)
        if betti or torsion:
            entries[n] = (betti, torsion)
    return HomologySummary(char=C.char, entries=entries)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("standard", "sparse")),
       st.sampled_from((0, 2, 3)), st.booleans())
def test_cleared_homology_matches_every_full_map(seed, kind, char, dual):
    # clearing d_n by the pivot rows of d_{n+1} keeps every rank and
    # invariant factor of the maps reduced in full
    rng = random.Random(seed)
    ranks, boundary = (standard_complex_data(rng)[:2] if kind == "standard"
                       else random_sparse_complex(rng))
    if dual:
        ranks, boundary = dual_complex(ranks, boundary)
    C = ChainComplex(char=0, ranks=ranks,
                     boundary={n: columns(d) for n, d in boundary.items()})
    if char:
        C = C.reduce_mod(char)
    assert homology(C) == uncleared_homology(C)


@pytest.mark.parametrize("char", [4, 1, -3])
def test_char_must_be_zero_or_prime(char):
    with pytest.raises(ValueError, match="0 or a prime"):
        ChainComplex(char=char, ranks={0: 1}, boundary={})


@pytest.mark.parametrize("rank", [-2, 2.5, True, "1"])
def test_rank_must_be_an_integer_at_least_zero(rank):
    # a negative rank would be read as the zero module, and 2.5 as a Betti
    # number of 2.5
    with pytest.raises(ValueError, match="rank in degree 0 must be an integer >= 0"):
        ChainComplex(char=0, ranks={0: rank}, boundary={})


def test_char_p_entries_are_residues():
    # entries are stored in [0, p), whatever integers they were built from
    C = ChainComplex(char=3, ranks={0: 1, 1: 2}, boundary={1: (((0, -1),), ((0, 4),))})
    assert C.d(1) == (((0, 2),), ((0, 1),))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3, 5)))
def test_reduce_mod_stores_the_residues(seed, p):
    # the random complexes have negative entries and entries above p
    rng = random.Random(seed)
    ranks, boundary, _ = standard_complex_data(rng)
    C = ChainComplex(char=0, ranks=ranks,
                     boundary={n: columns(d) for n, d in boundary.items()})
    Cp = C.reduce_mod(p)
    assert Cp.boundary == ChainComplex(char=p, ranks=C.ranks,
                                       boundary=C.boundary).boundary
    assert Cp.boundary == {n: columns(mat_mod(d, p)) for n, d in boundary.items()
                           if n in C.boundary}


def test_reduce_mod_needs_integers_or_the_same_prime():
    # d = 2 over F_3 is invertible, so the homology is 0; a "reduction mod 2"
    # of it would read F2, F2
    C = ChainComplex(char=3, ranks={0: 1, 1: 1}, boundary={1: (((0, 2),),)})
    assert homology(C).degrees() == []
    assert C.reduce_mod(3).boundary == C.boundary
    with pytest.raises(ValueError, match="no reduction mod 2"):
        C.reduce_mod(2)


def test_is_prime_matches_a_sieve_below_1e5():
    N = 10**5
    sieve = bytearray([1]) * N
    sieve[0] = sieve[1] = 0
    for i in range(2, int(N ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, N, i)))
    assert [n for n in range(N) if la.is_prime(n)] == [n for n in range(N) if sieve[n]]


@pytest.mark.parametrize("bits", [64, 80])
def test_is_prime_matches_sympy_on_seeded_samples(bits):
    # odd samples, about one in 22 of them prime, and products of two
    # primes of half the size, the composites a weak test would pass
    rng = random.Random(bits)
    samples = [rng.getrandbits(bits) | 1 for _ in range(1500)]
    samples += [sympy.nextprime(rng.getrandbits(bits // 2))
                * sympy.nextprime(rng.getrandbits(bits // 2)) for _ in range(100)]
    assert [la.is_prime(n) for n in samples] == [sympy.isprime(n) for n in samples]


def test_is_prime_refuses_past_its_exact_bound():
    # from _MR_EXACT on the bases decide only a factor among them: such an n
    # is composite, and any other is refused at once
    assert not la.is_prime(la._MR_EXACT + 1) and not la.is_prime(3 * 10**30)
    for n in (la._MR_EXACT, sympy.nextprime(la._MR_EXACT), 2**89 - 1):
        with pytest.raises(ValueError, match=f"only below {la._MR_EXACT}$"):
            la.is_prime(n)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the prime bases up to 7, 23 and 37: the bases
    # up to 41 expose each
    assert not la.is_prime(n)
