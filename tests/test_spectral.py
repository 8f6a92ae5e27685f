import importlib.util
import random
from pathlib import Path

import pytest

from equimorse import _intlinalg as la
from equimorse.complexes import ChainComplex, homology
from equimorse.spectral import (
    FilteredComplex,
    FiltrationViolation,
    einfty_check,
    skeletal_filtration,
    spectral_pages,
)

from intmat import columns, is_zero, mat_mod, mat_mul


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
                if nxt is None:
                    continue
                rows = len(nxt)
                mid = len(mat)
                cols = len(mat[0])
                prod = [
                    [sum(nxt[i][t] * mat[t][j] for t in range(mid)) % 2
                     for j in range(cols)]
                    for i in range(rows)
                ]
                assert all(not any(row) for row in prod)


def test_next_page_is_homology_of_previous():
    # dimension check: dim E^{r+1}_{p,q} = dim ker d_r - dim im d_r at (p,q)
    from equimorse import _intlinalg as la

    F = interval_two_step()
    pages = spectral_pages(F, 3)
    for cur, nxt in zip(pages, pages[1:]):
        r = cur.r
        for (p, q), dim in cur.groups.items():
            out = cur.differentials.get((p, q))
            rank_out = la.rank(columns(out), 2) if out else 0
            inc = cur.differentials.get((p + r, q - r + 1))
            rank_in = la.rank(columns(inc), 2) if inc else 0
            assert nxt.dim(p, q) == dim - rank_out - rank_in


def test_filtration_violation_raised():
    C = ChainComplex(char=2, ranks={0: 1, 1: 1}, boundary={1: (((0, 1),),)})
    F = FilteredComplex(base=C, filt={0: (1,), 1: (0,)})  # boundary raises
    with pytest.raises(FiltrationViolation):
        spectral_pages(F, 2)
    with pytest.raises(FiltrationViolation):
        einfty_check(F)


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
                assert is_zero(mat_mod(mat_mul(after, mat), char))
        for (p, q) in set(cur.groups) | set(nxt.groups):
            out = cur.differentials.get((p, q))
            inc = cur.differentials.get((p + r, q - r + 1))
            rank_out = la.rank(columns(out), char) if out else 0
            rank_in = la.rank(columns(inc), char) if inc else 0
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


def test_each_differential_reduces_once_per_target(monkeypatch):
    import equimorse.spectral as ss
    from equimorse.coefficients import build_system
    from equimorse.fixtures import sphere_rotation_c3
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    X = sphere_rotation_c3()
    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=3))
    F = _admissible_filtration(C, random.Random("sphere_rotation_c3"))
    calls = []
    real_eliminate, real_page_data = la.eliminate, ss._page_data

    def counted_eliminate(*args, **kwargs):
        calls.append(args)
        return real_eliminate(*args, **kwargs)

    in_page_data = []

    def counted_page_data(*args):
        before = len(calls)
        out = real_page_data(*args)
        in_page_data.append(len(calls) - before)
        return out

    monkeypatch.setattr(la, "eliminate", counted_eliminate)
    monkeypatch.setattr(ss, "_page_data", counted_page_data)
    pages = spectral_pages(F, F.max_filtration() + 2)
    # one reduction per source (p, q) whose target (p - r, q + r - 1) is nonzero
    pairs = [(page, p, q) for page in pages for (p, q) in page.groups
             if page.dim(p - page.r, q + page.r - 1)]
    assert any(page.dim(p, q) > 1 for page, p, q in pairs)
    assert len(calls) - sum(in_page_data) == len(pairs)


def test_page_data_reduces_each_bidegree_once(monkeypatch):
    # the denominator and the representatives of a bidegree come from one
    # elimination of [D1 + D2 | Z], and only at the filtration degrees that
    # C_n carries (E^r is zero at every other p); the eliminations inside
    # the Z^r bases (nullspace) are not counted
    import equimorse.spectral as ss
    from equimorse.coefficients import build_system
    from equimorse.fixtures import sphere_rotation_c3
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    X = sphere_rotation_c3()
    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=3))
    F = _admissible_filtration(C, random.Random("sphere_rotation_c3"))
    rs = range(1, F.max_filtration() + 3)
    bidegrees = {r: sum(1 for n in C.degrees() for p in F.levels.get(n, ())
                        if ss._zr_basis(F, n, p, r))
                 for r in rs}
    assert any(len(F.levels[n]) <= F.max_filtration() for n in C.degrees())
    calls, in_nullspace = [], []
    real_eliminate, real_nullspace = la.eliminate, la.nullspace

    def counted_eliminate(*args, **kwargs):
        calls.append(args)
        return real_eliminate(*args, **kwargs)

    def nullspace(*args):
        before = len(calls)
        out = real_nullspace(*args)
        in_nullspace.append(len(calls) - before)
        return out

    monkeypatch.setattr(la, "eliminate", counted_eliminate)
    monkeypatch.setattr(la, "nullspace", nullspace)
    for r in rs:
        calls.clear()
        in_nullspace.clear()
        ss._page_data(F, r, 3)
        assert len(calls) - sum(in_nullspace) == bidegrees[r]
    assert sum(bidegrees.values()) > len(rs)


def test_each_cycle_basis_is_computed_once(monkeypatch):
    # every page and the E^infinity check share the Z^r bases kept on the
    # filtered complex: one null space per distinct (n, p, r)
    import equimorse.spectral as ss
    from equimorse.coefficients import build_system
    from equimorse.fixtures import torus_double
    from equimorse.gcw import bredon_chain_complex
    from equimorse.groups import OrbitCategory

    X = torus_double()
    C = bredon_chain_complex(X, build_system(OrbitCategory(X.group), "singular", char=2))
    F = _admissible_filtration(C, random.Random("torus_double"))
    calls, in_differential = [], []
    real_nullspace, real_differential = la.nullspace, ss._differential

    def nullspace(*args):
        calls.append(args)
        return real_nullspace(*args)

    def differential(*args):
        before = len(calls)
        out = real_differential(*args)
        in_differential.append(len(calls) - before)
        return out

    monkeypatch.setattr(la, "nullspace", nullspace)
    monkeypatch.setattr(ss, "_differential", differential)
    spectral_pages(F, F.max_filtration() + 2)
    einfty_check(F)
    spectral_pages(F, 2)
    assert in_differential and set(in_differential) == {1}
    assert len(calls) - len(in_differential) == len(F._cycles)
    assert all(F._cycles[key] is ss._zr_basis(F, *key) for key in F._cycles)


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
    """(groups, differentials) of E^1 .. E^r_max by the definition: every
    p from 0 to the maximum filtration in every degree, each Z^r basis
    eliminated afresh."""
    import equimorse.spectral as ss

    char = F.base.char

    def zr(n, p, r):
        cols = [j for j, pj in enumerate(F.filt.get(n, ())) if pj <= p]
        low = F.filt.get(n - 1, ())
        d = F.base.d(n)
        sub = [tuple((i, x) for i, x in d[j] if low[i] > p - r) for j in cols]
        return [tuple((cols[t], x) for t, x in vec) for vec in la.nullspace(sub, char)]

    out = []
    for r in range(1, r_max + 1):
        groups, reps, dens, diffs = {}, {}, {}, {}
        for n in F.base.degrees():
            for p in range(F.max_filtration() + 1):
                Z = zr(n, p, r)
                if not Z:
                    continue
                D1 = zr(n, p - 1, r - 1)
                D2 = [ss._apply_d(F, n + 1, w) for w in zr(n + 1, p + r - 1, r - 1)]
                den, qreps = la.extend_basis(D1 + D2, Z, char)
                if qreps:
                    groups[(p, n - p)] = len(qreps)
                    reps[(p, n - p)], dens[(p, n - p)] = qreps, den
        for (p, q), qreps in reps.items():
            tgt = (p - r, q + r - 1)
            if tgt in reps:
                mat = ss._differential(F, p + q, qreps, dens[tgt], reps[tgt], char)
                if any(any(row) for row in mat):
                    diffs[(p, q)] = mat
        out.append((groups, diffs))
    return out


@pytest.mark.parametrize("kind", ["singular", "constant", "fixed-point"])
@pytest.mark.parametrize("char", [2, 3])
def test_pages_at_carried_degrees_equal_the_full_range(kind, char):
    # pages, differentials and the E^infinity report visit only the
    # filtration degrees each C_n carries; on filtrations with gaps they
    # must equal the definition over every p
    from equimorse.coefficients import build_system
    from equimorse.fixtures import GCW_FIXTURES
    from equimorse.gcw import bredon_chain_complex

    gaps = 0
    for name, build in GCW_FIXTURES.items():
        X = build()
        C = bredon_chain_complex(X, build_system(X.category, kind, char=char))
        for seed in range(6):
            F = _gapped_filtration(C, random.Random(f"{name}/{kind}/{char}/{seed}"))
            top = F.max_filtration()
            gaps += sum(top + 1 - len(F.levels.get(n, ())) for n in C.degrees())
            ref = _reference_pages(F, top + 2)
            pages = spectral_pages(F, top + 2)
            assert [(pg.groups, pg.differentials) for pg in pages] == ref
            h = homology(C)
            want = {n: (sum(d for (p, q), d in ref[-1][0].items() if p + q == n), h.dim(n))
                    for n in set(C.degrees()) | {p + q for p, q in ref[-1][0]}}
            ok, report = einfty_check(F)
            assert ok and report.per_degree == want
    assert gaps
