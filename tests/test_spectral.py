import importlib.util
import random
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse import _intlinalg as la
from equimorse.complexes import ChainComplex, homology
from equimorse.spectral import (
    FilteredComplex,
    FiltrationViolation,
    _bars,
    einfty_check,
    skeletal_filtration,
    spectral_pages,
)

from intmat import (columns, dual_complex, low_reduction, random_sparse_complex, rank,
                    rref, rref_nullspace)


def one_step(char=2):
    # circle complex, everything in filtration 0
    C = ChainComplex(char=char, ranks={0: 1, 1: 1}, boundary={1: ((),)})
    return FilteredComplex(base=C, filt={0: (0,), 1: (0,)})


def sphere_skeletal(char=2):
    # S^2 with a 0-cell at p=0 and a 2-cell at p=2
    C = ChainComplex(char=char, ranks={0: 1, 2: 1}, boundary={})
    return FilteredComplex(base=C, filt={0: (0,), 2: (2,)})


def torus_morse(char=2):
    # Morse filtration of the torus: generators at p = index 0,1,1,2,
    # boundaries all zero mod 2 (each flow count is even)
    C = ChainComplex(
        char=char,
        ranks={0: 1, 1: 2, 2: 1},
        boundary={1: ((), ()), 2: ((),)},
    )
    return FilteredComplex(base=C, filt={0: (0,), 1: (1, 1), 2: (2,)})


def interval_two_step(char=2):
    # interval: two 0-cells at p=0, one 1-cell at p=1; a nontrivial d_1
    C = ChainComplex(char=char, ranks={0: 2, 1: 1},
                     boundary={1: (((0, 1), (1, 1)),)})  # mod 2: both endpoints
    return FilteredComplex(base=C, filt={0: (0, 0), 1: (1,)})


def test_one_step_pages_equal_homology():
    F = one_step()
    pages = spectral_pages(F, 3)
    h = homology(F.base)
    for page in pages:
        assert page.total_dim(0) == h.dim(0)
        assert page.total_dim(1) == h.dim(1)
        assert not page.differentials


def test_sphere_skeletal_pages():
    F = sphere_skeletal()
    pages = spectral_pages(F, 4)
    e1 = pages[0]
    assert e1.groups == {(0, 0): 1, (2, 0): 1}
    for page in pages:
        assert not page.differentials
    assert pages[-1].total_dim(0) == 1
    assert pages[-1].total_dim(1) == 0
    assert pages[-1].total_dim(2) == 1


def test_torus_morse_einfty_dims():
    F = torus_morse()
    pages = spectral_pages(F, 4)
    last = pages[-1]
    assert [last.total_dim(n) for n in (0, 1, 2)] == [1, 2, 1]
    ok, report = einfty_check(F)
    assert ok


def test_interval_differential_kills_pair():
    F = interval_two_step()
    pages = spectral_pages(F, 3)
    e1 = pages[0]
    # E^1: two classes at (0,0), one at (1,0); d_1 kills a pair
    assert e1.groups == {(0, 0): 2, (1, 0): 1}
    assert (1, 0) in e1.differentials
    e2 = pages[1]
    assert e2.groups == {(0, 0): 1}
    ok, _ = einfty_check(F)
    assert ok


def test_einfty_with_negative_filtration_degrees():
    # the interval's 0-cells at filtration -3 and its 1-cell at 0: a bar of
    # length 3, alive on E^2 and E^3, so E^infinity is E^4, not E^2
    C = ChainComplex(char=2, ranks={0: 2, 1: 1}, boundary={1: (((0, 1), (1, 1)),)})
    F = FilteredComplex(base=C, filt={0: (-3, -3), 1: (0,)})
    ok, report = einfty_check(F)
    assert ok and report.per_degree == {0: (1, 1), 1: (0, 0)}
    assert "convergence: ok" in report.text()
    pages = spectral_pages(F, 4)
    assert [pg.groups for pg in pages[:3]] == [{(-3, 3): 2, (0, 1): 1}] * 3
    assert [pg.differentials for pg in pages] == [{}, {}, {(0, 1): (((1, 1),),)}, {}]
    assert pages[3].groups == {(-3, 3): 1}


def test_page_dims_monotone_nonincreasing():
    for F in (one_step(), sphere_skeletal(), torus_morse(), interval_two_step()):
        pages = spectral_pages(F, 5)
        for a, b in zip(pages, pages[1:]):
            keys = set(a.groups) | set(b.groups)
            for k in keys:
                assert b.dim(*k) <= a.dim(*k)


def test_dr_squares_to_zero():
    # d_r composed with d_r lands two pages over: verify on every fixture by
    # chasing each differential's image through the next one
    for F in (one_step(), sphere_skeletal(), torus_morse(), interval_two_step()):
        pages = spectral_pages(F, 5)
        for page in pages:
            r = page.r
            for (p, q), mat in page.differentials.items():
                nxt = page.differentials.get((p - r, q + r - 1))
                if nxt is not None:
                    assert la.product_is_zero(nxt, mat, 2)


def test_next_page_is_homology_of_previous():
    # dimension check: dim E^{r+1}_{p,q} = dim ker d_r - dim im d_r at (p,q)
    F = interval_two_step()
    pages = spectral_pages(F, 3)
    for cur, nxt in zip(pages, pages[1:]):
        r = cur.r
        for (p, q), dim in cur.groups.items():
            out = cur.differentials.get((p, q))
            rank_out = rank(out, 2) if out else 0
            inc = cur.differentials.get((p + r, q - r + 1))
            rank_in = rank(inc, 2) if inc else 0
            assert nxt.dim(p, q) == dim - rank_out - rank_in


def test_filtration_violation_raised():
    # checked once, when the filtered complex is built
    C = ChainComplex(char=2, ranks={0: 1, 1: 1}, boundary={1: (((0, 1),),)})
    with pytest.raises(FiltrationViolation,
                       match=r"generator 0 \(filtration 0\) hits filtration 1"):
        FilteredComplex(base=C, filt={0: (1,), 1: (0,)})  # boundary raises
    assert FilteredComplex(base=C, filt={0: (0,), 1: (1,)}).max_filtration() == 1


def test_einfty_needs_field():
    C = ChainComplex(char=0, ranks={0: 1}, boundary={})
    F = FilteredComplex(base=C, filt={0: (0,)})
    with pytest.raises(ValueError):
        einfty_check(F)


def test_rational_mode_reports_ranks():
    # char 0: rank-only mode still produces pages
    C = ChainComplex(char=0, ranks={0: 2, 1: 1}, boundary={1: (((0, 1), (1, -1)),)})
    F = FilteredComplex(base=C, filt={0: (0, 0), 1: (1,)})
    pages = spectral_pages(F, 3)
    assert pages[-1].groups == {(0, 0): 1}


def test_skeletal_filtration_of_gcw_bredon():
    # Atiyah-Hirzebruch style: cellular filtration of the Bredon complex of
    # the reflection circle; E^infty totals must match its Bredon homology
    from equimorse.coefficients import build_system
    from equimorse.fixtures import circle_reflection
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    X = circle_reflection()
    cat = OrbitCategory(X.group)
    M = build_system(cat, "singular", char=2)
    C = bredon_chain_complex(X, M)
    F = skeletal_filtration(C)
    ok, report = einfty_check(F)
    assert ok, report.text()


def test_report_and_grid_formatting():
    F = sphere_skeletal()
    pages = spectral_pages(F, 2)
    txt = pages[0].grid_text()
    assert "E^1" in txt
    rows = pages[0].csv_rows()
    assert rows[0] == "r,p,q,dim"
    ok, rep = einfty_check(F)
    assert "convergence: ok" in rep.text()


# -- page identities on G-CW and generated Bredon complexes -------------------


def _load_gen():
    # the benchmark's seeded G-CW generators (they do not import equimorse)
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _gcw_spaces():
    """(id, G-CW complex, prime): the seven fixtures, then the generated
    Bredon workload's complexes for two seeds (its C3xC3 torus left out)."""
    from equimorse.fixtures import GCW_FIXTURES
    from equimorse.gcw import gcw_from_cells
    from equimorse.groups import FiniteGroup

    for name, build in GCW_FIXTURES.items():
        X = build()
        yield name, X, 3 if X.group.order % 3 == 0 else 2
    gen = _load_gen()
    for seed in (0, 1):
        for desc, p, _ in gen.bredon_pass(random.Random(f"pages/{seed}"))[1:]:
            G = FiniteGroup(tuple(tuple(r) for r in desc["table"]), name=desc["name"])
            X = gcw_from_cells(G, desc["cells"], desc["boundaries"],
                               dict(enumerate(desc["perms"])), name=desc["name"])
            yield f"{desc['name']}-seed{seed}", X, p


def _admissible_filtration(C, rng):
    """A random filtration the boundary does not raise: each generator sits
    at the top filtration of its faces, or one above."""
    filt = {}
    for n in C.degrees():
        filt[n] = tuple(
            max((filt[n - 1][i] for i, _ in col), default=0) + rng.randint(0, 1)
            for col in C.d(n)
        )
    return FilteredComplex(base=C, filt=filt)


def _check_page_identities(F):
    char = F.base.char
    pages = spectral_pages(F, F.max_filtration() + 2)
    for cur, nxt in zip(pages, pages[1:]):
        r = cur.r
        for (p, q), mat in cur.differentials.items():
            after = cur.differentials.get((p - r, q + r - 1))
            if after is not None:
                assert la.product_is_zero(after, mat, char)
        for (p, q) in set(cur.groups) | set(nxt.groups):
            out = cur.differentials.get((p, q))
            inc = cur.differentials.get((p + r, q - r + 1))
            rank_out = rank(out, char) if out else 0
            rank_in = rank(inc, char) if inc else 0
            assert nxt.dim(p, q) == cur.dim(p, q) - rank_out - rank_in
    h = homology(F.base)
    for n in F.base.degrees():
        assert pages[-1].total_dim(n) == h.dim(n)
    return pages


@pytest.mark.parametrize("name, X, p", [pytest.param(*s, id=s[0]) for s in _gcw_spaces()])
def test_page_identities_on_gcw_complexes(name, X, p):
    from equimorse.coefficients import build_system
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=p))
    _check_page_identities(skeletal_filtration(C))
    pages = _check_page_identities(_admissible_filtration(C, random.Random(name)))
    assert pages[0].groups


def _counted_eliminations(monkeypatch):
    """A list that records, per call of la.eliminate, whether it was a
    low-pivot (pairing) elimination."""
    calls = []
    real = la.eliminate

    def counted(cols, p, integral=False, low=None):
        calls.append(low is not None)
        return real(cols, p, integral, low)

    monkeypatch.setattr(la, "eliminate", counted)
    return calls


def _rotation_sphere_filtration():
    from equimorse.coefficients import build_system
    from equimorse.fixtures import sphere_rotation_c3
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    X = sphere_rotation_c3()
    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=3))
    return C, _admissible_filtration(C, random.Random("sphere_rotation_c3"))


def test_each_differential_reduces_once_per_target(monkeypatch):
    # the d_r cost no elimination of their own: however many (source,
    # target) pairs the pages carry, each boundary map is reduced once
    C, F = _rotation_sphere_filtration()
    calls = _counted_eliminations(monkeypatch)
    pages = spectral_pages(F, F.max_filtration() + 2)
    pairs = [(page, p, q) for page in pages for (p, q) in page.groups
             if page.dim(p - page.r, q + page.r - 1)]
    assert any(page.dim(p, q) > 1 for page, p, q in pairs)
    assert len(C.boundary) == 2 and any(pg.differentials for pg in pages)
    assert calls == [True] * len(C.boundary)


def test_page_data_reduces_each_bidegree_once(monkeypatch):
    # the groups of a page sit only at the filtration degrees that C_n
    # carries, and a fresh complex's pages up to any r cost one elimination
    # per boundary map, not one per bidegree
    C, F = _rotation_sphere_filtration()
    rs = range(1, F.max_filtration() + 3)
    calls = _counted_eliminations(monkeypatch)
    bidegrees = 0
    for r in rs:
        calls.clear()
        pages = spectral_pages(FilteredComplex(base=C, filt=F.filt), r)
        assert calls == [True] * len(C.boundary)
        for page in pages:
            assert all(p in F.filt[p + q] for p, q in page.groups)
        bidegrees += len(pages[-1].groups)
    assert any(len(set(v)) <= F.max_filtration() for v in F.filt.values())
    assert bidegrees > len(rs) * len(C.boundary)


def test_each_cycle_basis_is_computed_once(monkeypatch):
    # every page, the E^infinity check and a second call share the pairing
    # kept on the filtered complex: one elimination per boundary map, beside
    # the one of homology's own
    from equimorse.coefficients import build_system
    from equimorse.fixtures import torus_double
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    X = torus_double()
    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=2))
    F = _admissible_filtration(C, random.Random("torus_double"))
    calls = _counted_eliminations(monkeypatch)
    spectral_pages(F, F.max_filtration() + 2)
    bars = F._bars
    einfty_check(F)
    spectral_pages(F, 2)
    assert bars is not None and F._bars is bars
    assert len(C.boundary) == 2
    assert calls.count(True) == len(C.boundary)
    assert len(calls) == 2 * len(C.boundary)


def test_pages_of_the_large_grid_torus_take_under_a_second():
    # the 1296/2592/1296-cell C3xC3 grid torus over F_3, skeletal: the pages
    # up to r = 4 and the E^infinity check in well under a second (the
    # pairing takes a few hundredths on a desktop core)
    from equimorse.coefficients import build_system
    from equimorse.gcw import bredon_chain_complex, gcw_from_cells
    from equimorse.groups import FiniteGroup, OrbitCategory

    desc = _load_gen().grid_torus(random.Random(0), (3, 3), (12, 12))
    G = FiniteGroup(tuple(tuple(r) for r in desc["table"]), name=desc["name"])
    X = gcw_from_cells(G, desc["cells"], desc["boundaries"],
                       dict(enumerate(desc["perms"])), name=desc["name"])
    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=3))
    assert C.ranks == {0: 1296, 1: 2592, 2: 1296}
    F = skeletal_filtration(C)
    start = time.perf_counter()
    pages = spectral_pages(F, 4)
    ok, _ = einfty_check(F)
    elapsed = time.perf_counter() - start
    assert ok and pages[-1].groups == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    assert elapsed < 1.0, elapsed


def test_clearing_work_counts_on_the_9x9_grid_torus(monkeypatch):
    # V, E, F = 81, 162, 81: d_2 has rank 80, all of it on +-1 pivots, so
    # homology and the pairing reduce d_2 whole and d_1 on 162 - 80 columns
    desc = _load_gen().grid_torus(random.Random(0), (3, 3), (3, 3))
    assert desc["cells"] == {0: 81, 1: 162, 2: 81}
    sizes = []
    real = la.eliminate

    def counted(cols, p, integral=False, low=None):
        sizes.append(len(cols))
        return real(cols, p, integral, low)

    monkeypatch.setattr(la, "eliminate", counted)
    for char in (3, 0):
        C = ChainComplex(char=char, ranks=desc["cells"],
                         boundary={n: desc["boundaries"][n] for n in (1, 2)})
        sizes.clear()
        assert homology(C).entries == {0: (1, ()), 1: (2, ()), 2: (1, ())}
        assert sizes == [81, 82]
        if char:
            sizes.clear()
            _bars(skeletal_filtration(C))
            assert sizes == [81, 82]


def _uncleared_bars(F):
    """(kills, life) from the low-rule elimination of every full boundary
    map, columns in (filtration, index) order: the pairing without
    clearing."""
    kills, life = {}, {n: {} for n in F.base.degrees()}
    for n, d in F.base.boundary.items():
        top, low = F.filt[n], F.filt[n - 1]
        order = sorted(range(len(d)), key=top.__getitem__)
        pivots, _ = la.eliminate([d[j] for j in order], F.base.char, low=low)
        kills[n] = {order[c]: i for c, i in pivots}
        for j, i in kills[n].items():
            life[n][j] = life[n - 1][i] = top[j] - low[i]
    return kills, life


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3, 0)), st.booleans(), st.booleans())
def test_cleared_pairing_matches_every_full_map(seed, char, gapped, dual):
    # the twist: a column of d_n whose generator d_{n+1} kills onto would
    # reduce to zero, so clearing it keeps kills, life, every page and d_r,
    # and the E^infinity check
    rng = random.Random(seed)
    ranks, boundary = random_sparse_complex(rng)
    if dual:
        ranks, boundary = dual_complex(ranks, boundary)
    C = ChainComplex(char=char, ranks=ranks,
                     boundary={n: columns(d) for n, d in boundary.items()})
    F = (_gapped_filtration if gapped else _admissible_filtration)(C, rng)
    shift = rng.randint(-3, 0)
    F = FilteredComplex(base=C, filt={n: tuple(p + shift for p in v)
                                      for n, v in F.filt.items()})
    want = _uncleared_bars(F)
    assert _bars(F) == want
    ref = FilteredComplex(base=C, filt=F.filt)
    ref._bars = want
    r_max = F.max_filtration() - shift + 2
    for got, page in zip(spectral_pages(F, r_max), spectral_pages(ref, r_max)):
        assert (got.groups, got.differentials) == (page.groups, page.differentials)
    if char:
        ranks = {n: rank(d, char) for n, d in C.boundary.items()}
        dims = {n: C.rank(n) - ranks.get(n, 0) - ranks.get(n + 1, 0) for n in C.degrees()}
        _, report = einfty_check(F)
        assert report.per_degree == {n: (C.rank(n) - len(want[1][n]), dims[n])
                                     for n in C.degrees()}


def _gapped_filtration(C, rng):
    """A random admissible filtration whose degrees skip levels: each
    generator sits at the top filtration of its faces plus 0, 1, 2 or 5."""
    filt = {}
    for n in C.degrees():
        filt[n] = tuple(
            max((filt[n - 1][i] for i, _ in col), default=0) + rng.choice((0, 0, 1, 2, 5))
            for col in C.d(n)
        )
    return FilteredComplex(base=C, filt=filt)


def _reference_pages(F, r_max):
    """E^1 .. E^r_max by the definition, on dense chains, at every p from
    the least to the greatest filtration: per page, ({(p, q): (Z, B)},
    {(p, q): rank of d_r}), Z a basis of Z^r_{p,q} and B spanning its
    denominator Z^{r-1}_{p-1,q+1} + d Z^{r-1}_{p+r-1,q-r+2}, wherever Z is
    nonzero, and the nonzero ranks of d_r."""
    char = F.base.char
    degrees = [p for v in F.filt.values() for p in v]
    span = range(min(degrees, default=0), max(degrees, default=0) + 1)

    @cache
    def zr(n, p, r):
        cols = [j for j, pj in enumerate(F.filt.get(n, ())) if pj <= p]
        low = F.filt.get(n - 1, ())
        d = F.base.d(n)
        A = [[dict(d[j]).get(i, 0) for j in cols] for i, pi in enumerate(low) if pi > p - r]
        out = []
        for vec in rref_nullspace(A, len(cols), char):
            x = [0] * F.base.rank(n)
            for t, a in vec:
                x[cols[t]] = a
            out.append(x)
        return out

    pages = []
    for r in range(1, r_max + 1):
        spaces = {}
        for n in F.base.degrees():
            for p in span:
                Z = zr(n, p, r)
                if Z:
                    B = zr(n, p - 1, r - 1) + [_apply_d(F, n + 1, w)
                                               for w in zr(n + 1, p + r - 1, r - 1)]
                    spaces[(p, n - p)] = (Z, B)
        ranks = {}
        for (p, q), (Z, _) in spaces.items():
            B = spaces.get((p - r, q + r - 1), ((), []))[1]
            got = _rank(B + [_apply_d(F, p + q, z) for z in Z], char) - _rank(B, char)
            if got:
                ranks[(p, q)] = got
        pages.append((spaces, ranks))
    return pages


def _apply_d(F, n, x):
    """d(x) for a dense chain x of degree n, as a dense chain of degree n - 1."""
    out = [0] * F.base.rank(n - 1)
    for j, col in enumerate(F.base.d(n)):
        if x[j]:
            for i, a in col:
                out[i] += a * x[j]
    return [y % F.base.char for y in out] if F.base.char else out


def _rank(vectors, char):
    return len(rref(vectors, char)[1])


def _groups(spaces, char):
    dims = {k: len(Z) - _rank(B, char) for k, (Z, B) in spaces.items()}
    return {k: d for k, d in dims.items() if d}


@cache
def _gapped_cases(kind, char):
    """(base complex, gapped filtration, reference pages) for every G-CW
    fixture and six seeds."""
    from equimorse.coefficients import build_system
    from equimorse.fixtures import GCW_FIXTURES
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    out = []
    for name, build in GCW_FIXTURES.items():
        X = build()
        C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), kind, char=char))
        for seed in range(6):
            F = _gapped_filtration(C, random.Random(f"{name}/{kind}/{char}/{seed}"))
            out.append((C, F.filt, _reference_pages(F, F.max_filtration() + 2)))
    return out


@pytest.mark.parametrize("kind", ["singular", "constant", "fixed-point"])
@pytest.mark.parametrize("char", [2, 3])
def test_pages_at_carried_degrees_equal_the_full_range(kind, char):
    # on filtrations with gaps, the page dimensions, the ranks of d_r and
    # the E^infinity report read off the pairing equal the definition over
    # every p
    gaps = 0
    for C, filt, ref in _gapped_cases(kind, char):
        F = FilteredComplex(base=C, filt=filt)
        top = F.max_filtration()
        gaps += sum(top + 1 - len(set(filt.get(n, ()))) for n in C.degrees())
        pages = spectral_pages(F, top + 2)
        assert [pg.groups for pg in pages] == [_groups(sp, char) for sp, _ in ref]
        assert [{k: rank(m, char) for k, m in pg.differentials.items()}
                for pg in pages] == [ranks for _, ranks in ref]
        h = homology(C)
        last = _groups(ref[-1][0], char)
        want = {n: (sum(d for (p, q), d in last.items() if p + q == n), h.dim(n))
                for n in set(C.degrees()) | {p + q for p, q in last}}
        ok, report = einfty_check(F)
        assert ok and report.per_degree == want
    assert gaps


def _textbook_representatives(F):
    """The chain that stands for each generator in the pairing basis, from
    the dense textbook reduction R = D V of each boundary map (rows and
    columns in (filtration, index) order): V_g for a generator g that is
    unpaired or kills, R_j for a generator killed by j.  Returns (reps,
    life): reps[n][g] a dense chain, life[n] the bar length of each paired
    generator of C_n."""
    char = F.base.char
    reps = {n: {g: [int(g == i) for i in range(F.base.rank(n))]
                for g in range(F.base.rank(n))} for n in F.base.degrees()}
    life = {n: {} for n in F.base.degrees()}
    for n in F.base.boundary:
        top, low = F.filt[n], F.filt[n - 1]
        rows = sorted(range(len(low)), key=low.__getitem__)
        order = sorted(range(len(top)), key=top.__getitem__)
        d = F.base.d(n)
        A = [[dict(d[j]).get(i, 0) for j in order] for i in rows]
        R, V, pairs = low_reduction(A, len(order), char)
        for t, j in enumerate(order):
            reps[n][j] = [0] * len(top)
            for s, k in enumerate(order):
                reps[n][j][k] = V[t][s]
        for i, t in pairs:
            j, g = order[t], rows[i]
            life[n][j] = life[n - 1][g] = top[j] - low[g]
            reps[n - 1][g] = [0] * len(low)
            for s, k in enumerate(rows):
                reps[n - 1][g][k] = R[t][s]
    return reps, life


@pytest.mark.parametrize("kind", ["singular", "constant", "fixed-point"])
@pytest.mark.parametrize("char", [2, 3])
def test_dr_columns_are_d_in_the_pairing_basis(kind, char):
    # the generators alive on E^r stand for chains of the definition's
    # Z^r that are a basis modulo its denominator, and d of each, less the
    # target its d_r column names, lies in the target's denominator
    bars = 0
    for C, filt, ref in _gapped_cases(kind, char):
        F = FilteredComplex(base=C, filt=filt)
        reps, life = _textbook_representatives(F)
        pages = spectral_pages(F, F.max_filtration() + 2)
        for page, (spaces, _) in zip(pages, ref):
            r = page.r
            basis = {}
            for n in C.degrees():
                for g, p in enumerate(filt[n]):
                    if life[n].get(g, r) >= r:
                        basis.setdefault((p, n - p), []).append(g)
            assert {k: len(v) for k, v in basis.items()} == page.groups
            for (p, q), gens in basis.items():
                n = p + q
                Z, B = spaces[(p, q)]
                X = [reps[n][g] for g in gens]
                assert _rank(Z + X, char) == len(Z)
                assert _rank(B + X, char) == _rank(B, char) + len(X) == len(Z)
                mat = page.differentials.get((p, q), ((),) * len(gens))
                target = (p - r, q + r - 1)
                for x, col in zip(X, mat):
                    y = _apply_d(F, n, x)
                    for t, a in col:
                        g = basis[target][t]
                        y = [(u - a * v) % char for u, v in zip(y, reps[n - 1][g])]
                        bars += 1
                    if target in spaces:
                        TB = spaces[target][1]
                        assert _rank(TB + [y], char) == _rank(TB, char)
                    else:
                        assert not any(y)
    assert bars or kind == "fixed-point"  # whose complexes have no d_r
