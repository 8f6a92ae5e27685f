import random

import pytest

from equimorse import _intlinalg as la
from equimorse.complexes import (
    ChainComplex,
    ChainComplexError,
    HomologySummary,
    homology,
    smith_normal_form,
)


def test_snf_zero_matrix():
    A = la.zeros(2, 3)
    D, U, V = smith_normal_form(A)
    assert la.is_zero(D)
    assert U == la.identity(2)
    assert V == la.identity(3)


def test_snf_diag_2_3():
    # hand row/column reduction gives diag(1, 6)
    A = ((2, 0), (0, 3))
    D, U, V = smith_normal_form(A)
    assert (D[0][0], D[1][1]) == (1, 6)
    assert la.mat_mul(la.mat_mul(U, A), V) == D


@pytest.mark.parametrize("seed", range(20))
def test_snf_random_selfverifying(seed):
    rng = random.Random(seed)
    m, n = 5, 7
    A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
    D, U, V = smith_normal_form(A)
    assert la.mat_mul(la.mat_mul(U, A), V) == D
    assert abs(la.det(U)) == 1
    assert abs(la.det(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    nz = [d for d in diag if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # no zero sandwiched before a nonzero
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero


def circle_complex(char=0):
    return ChainComplex(char=char, ranks={0: 1, 1: 1}, boundary={1: ((0,),)})


def rp2_complex(char=0):
    return ChainComplex(
        char=char,
        ranks={0: 1, 1: 1, 2: 1},
        boundary={1: ((0,),), 2: ((2,),)},
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
            boundary={1: ((1,),), 2: ((1,),)},
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
        boundary={1: ((0, 0),), 2: ((0,), (2,))},
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
        boundary={1: ((1, -1),), 2: ((2, 2), (2, 2)), 3: ((1,), (-1,))},
    )
    calls = []
    for name in ("snf_diagonal", "rank"):
        real = getattr(la, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(la, name, counted)
    h = homology(C)
    assert calls == ["rank" if char else "snf_diagonal"] * 3
    assert h.entries == expected


def test_rref_nullspace_rank_mod_p():
    rows = [[1, 2, 0], [2, 4, 1]]
    assert la.rank(rows, 5) == 2
    ns = la.nullspace(rows, 5)
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        assert sum(a * x for a, x in zip(row, v)) % 5 == 0


def test_solve_rational():
    rows = [[2, 0], [0, 4]]
    x = la.solve(rows, [1, 2], 0)
    assert [float(v) for v in x] == [0.5, 0.5]
    assert la.solve([[1, 1], [1, 1]], [0, 1], 0) is None
