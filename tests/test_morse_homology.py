"""Morse differentials, the Morse complex, and the Morse filtration against
the G-CW cellular oracles."""

import dataclasses
import functools
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse.coefficients import build_system
from equimorse.complexes import homology
from equimorse import morse as morse_package
from equimorse.fixtures import (
    MANIFOLD_FIXTURES,
    circle_c2_height,
    circle_reflection,
    sphere_antipodal,
    sphere_height,
    torus_tilted,
    wells_c2,
    figure1_plane,
)
from equimorse.gcw import bredon_chain_complex
from equimorse.groups import FiniteGroup, OrbitCategory, trivial_subgroup
from equimorse.morse import (
    classify,
    find_critical_points,
    morse_complex,
    morse_differentials,
    run_morse,
)
from equimorse.morse import homology as morse_homology
from equimorse.morse.critical import group_into_orbits
from equimorse.morse import run as morse_run
from equimorse.morse.flow import (
    CAPTURE_TOL,
    CAPTURED,
    ESCAPED,
    RELEASE_GAIN,
    STEP_TOL,
    UNRESOLVED,
    _certificate,
    _shell_directions,
    integrate_batch,
)
from equimorse.morse.homology import (
    RHO,
    BoundarySquareNonzero,
    MorseData,
    _ascending_seeds,
    _descending_seeds,
)
from equimorse.morse.manifolds import tangent_part
from equimorse.spectral import einfty_check, skeletal_filtration, spectral_pages


def classified_crits(fx):
    pts = find_critical_points(fx.function, fx.manifold, fx.seeds)
    return [classify(fx.function, fx.manifold, p) for p in pts]


@pytest.fixture(scope="module")
def circle_data():
    run = run_morse(circle_c2_height(), stabilize=True)
    return run.fixture, run.critical, run.flow()


def test_sphere_height_no_consecutive_pairs():
    fx = sphere_height()
    crits = classified_crits(fx)
    assert sorted(c.index for c in crits) == [0, 2]
    data = morse_differentials(fx.function, fx.manifold, crits,
                               step_length=fx.step_length)
    assert data.unresolved == 0
    assert not any(any(t.values()) for t in data.counts.values())
    cat = OrbitCategory(fx.manifold.action.group)
    C = morse_complex(data, build_system(cat, "constant", char=2))
    h = homology(C)
    assert [h.dim(n) for n in (0, 1, 2)] == [1, 0, 1]


def test_flow_counting_decomposes_no_hessian(monkeypatch):
    # each critical point's Hessian is decomposed once, in classify: the
    # seeds, the certificate and the linear release read its stored
    # eigenpairs, so counting on the torus, with its ascents and releases,
    # calls no eigh
    fx = torus_tilted()
    crits = classified_crits(fx)
    for c in crits:
        w, V = np.linalg.eigh(c.hessian)
        assert np.array_equal(c.eigvals, w) and np.array_equal(c.eigvecs, V)
        assert np.array_equal(c.neg_basis, V[:, w < 0])

    def refuse(*args, **kwargs):
        raise AssertionError("a Hessian decomposed outside classify")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    data = morse_differentials(fx.function, fx.manifold, crits,
                               sphere_samples={1: 16},
                               step_length=fx.step_length)
    assert data.ok and data.linear_releases


def test_plain_circle_two_arcs_cancel():
    # trivial group, f = y on the circle: two flow lines, count mod 2 = 0
    from equimorse.groups import FiniteGroup
    from equimorse.polynomials import LinearAction, Polynomial
    from equimorse.morse import EqFunction, ImplicitGManifold

    con = Polynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    act = LinearAction.trivial(FiniteGroup.trivial(), 2)
    M = ImplicitGManifold(ambient=2, constraints=(con,), action=act)
    f = EqFunction.from_polynomial(Polynomial(2, {(0, 1): 1}))
    th = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    pts = find_critical_points(f, M, np.stack([np.cos(th), np.sin(th)], axis=1))
    crits = [classify(f, M, p) for p in pts]
    data = morse_differentials(f, M, crits, step_length=0.02)
    (table,) = data.counts.values()
    assert list(table.values()) == [0]  # two arcs, even count
    cat = OrbitCategory(act.group)
    h = homology(morse_complex(data, build_system(cat, "constant", char=2)))
    assert [h.dim(0), h.dim(1)] == [1, 1]


def test_wells_saddle_counts():
    fx = wells_c2()
    crits = classified_crits(fx)
    assert sorted(c.index for c in crits) == [0, 0, 1]
    assert all(c.stable for c in crits)
    data = morse_differentials(fx.function, fx.manifold, crits)
    assert data.unresolved == 0
    # the saddle sends one flow line to each well
    flows = {k: list(t.values()) for k, t in data.counts.items()}
    assert sorted(v for vals in flows.values() for v in vals) == [1, 1]
    cat = OrbitCategory(fx.manifold.action.group)
    h = homology(morse_complex(data, build_system(cat, "constant", char=2)))
    assert [h.dim(0), h.dim(1)] == [1, 0]


def test_torus_morse_homology():
    fx = torus_tilted()
    crits = classified_crits(fx)
    assert sorted(c.index for c in crits) == [0, 1, 1, 2]
    data = morse_differentials(fx.function, fx.manifold, crits,
                               step_length=fx.step_length,
                               sphere_samples={1: 128})
    assert data.unresolved == 0
    cat = OrbitCategory(fx.manifold.action.group)
    C = morse_complex(data, build_system(cat, "constant", char=2))
    h = homology(C)
    assert [h.dim(n) for n in (0, 1, 2)] == [1, 2, 1]


def test_circle_surgery_homology_vs_gcw_oracle(circle_data):
    fx, crits, data = circle_data
    assert data.unresolved == 0
    assert sorted((c.index, c.stabilizer.order) for c in crits) == [
        (0, 2), (0, 2), (1, 1), (1, 1)
    ]
    X = circle_reflection()
    cat = OrbitCategory(fx.manifold.action.group)
    for kind in ("singular", "constant", "fixed-point"):
        M2 = build_system(cat, kind, char=2)
        hm = homology(morse_complex(data, M2))
        ho = homology(bredon_chain_complex(X, M2))
        assert {n: hm.dim(n) for n in (0, 1)} == {n: ho.dim(n) for n in (0, 1)}, kind


def test_circle_morse_filtration_spectral(circle_data):
    fx, crits, data = circle_data
    cat = OrbitCategory(fx.manifold.action.group)
    M2 = build_system(cat, "singular", char=2)
    F = skeletal_filtration(morse_complex(data, M2))
    ok, report = einfty_check(F)
    assert ok, report.text()
    # E^2 row q=0 carries the Bredon homology of the G-CW model
    pages = spectral_pages(F, 2)
    e2 = pages[1]
    X = circle_reflection()
    hb = homology(bredon_chain_complex(X, M2))
    for n in (0, 1):
        assert e2.dim(n, 0) == hb.dim(n)


@pytest.fixture(scope="module")
def figure1_run():
    return run_morse(figure1_plane(), stabilize=True)


def test_figure1_disk_counts(figure1_run):
    # after surgery each index-2 point flows to its two adjacent index-1
    # points with count 1 each
    run = figure1_run
    data = morse_differentials(run.function, run.fixture.manifold,
                               run.critical, sphere_samples={1: 128},
                               escape_radius=3.0)
    maxima = data.by_index(2)
    saddles = data.by_index(1)
    assert len(maxima) == 1 and len(saddles) == 1  # one orbit each
    table = data.counts.get((maxima[0], saddles[0]), {})
    # two adjacent saddles within the orbit: two distinct cosets, count 1 each
    assert sorted(table.values()) == [1, 1]


def _mixed_batch(M, crits):
    """Descending seeds of one index-2 and one index-1 point and the
    ascending seeds of that index-1 point, with their directions and
    sources."""
    top = next(c for c in crits if c.index == 2)
    saddle = next(c for c in crits if c.index == 1)
    parts = [(_descending_seeds(top, RHO, 8)[::2], -1, top),
             (_descending_seeds(saddle, RHO, 0), -1, saddle),
             (_ascending_seeds(saddle, RHO), +1, saddle)]
    X0 = np.concatenate([X for X, _, _ in parts])
    if M.codim:
        X0 = M.project_points_many(X0)
    return (X0, np.concatenate([np.full(len(X), d) for X, d, _ in parts]),
            np.concatenate([np.full(len(X), crits.index(c))
                            for X, _, c in parts]))


@functools.cache
def _mixed_case(name):
    """The mixed batch of a fixture's stabilized function: (f, M, X0,
    direction, sources, keywords, each row's trajectory alone)."""
    run = run_morse(MANIFOLD_FIXTURES[name](), stabilize=True)
    fx, f, crits = run.fixture, run.function, run.critical
    M = fx.manifold
    X0, direction, sources = _mixed_batch(M, crits)
    kw = dict(crits=crits, step_length=fx.step_length,
              escape_radius=fx.escape_radius)
    alone = [integrate_batch(f, M, x0, direction=int(d), sources=int(k),
                             **kw)
             for x0, d, k in zip(X0, direction, sources)]
    return f, M, X0, direction, sources, kw, alone


def _same_trajectory(batch, j, alone):
    """Row j of batch is the one row of the batch alone, bit for bit."""
    return all(getattr(batch, name)[j].tobytes()
               == getattr(alone, name)[0].tobytes()
               for name in ("start", "end", "status", "limit", "steps",
                            "halvings", "linear_capture", "linear_release"))


@pytest.mark.parametrize("case", ["torus_tilted", "figure1_plane"])
def test_mixed_batch_matches_rows_alone(case):
    # one mixed-direction batch gives every row the trajectory it has
    # alone, bit for bit: merging batches cannot change a flow count
    f, M, X0, direction, sources, kw, alone = _mixed_case(case)
    batch = integrate_batch(f, M, X0, direction=direction, sources=sources,
                            **kw)
    assert not (batch.status == UNRESOLVED).any()
    # both batches release rows and retry steps: on figure 1 the two
    # ascents halve their steps 10 times each
    assert batch.linear_release.any()
    assert batch.halvings.any()
    assert all(_same_trajectory(batch, j, tr) for j, tr in enumerate(alone))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["torus_tilted", "figure1_plane"]), st.data())
def test_any_subset_of_a_mixed_batch_matches_rows_alone(case, data):
    # a retried row waits for the next round and retries there beside
    # other rows' first attempts and retries; in any subset of the mixed
    # batch, in any order, every row still has its trajectory alone
    f, M, X0, direction, sources, kw, alone = _mixed_case(case)
    order = data.draw(st.permutations(range(len(X0))))
    rows = np.array(order[:data.draw(st.integers(1, len(X0)))])
    batch = integrate_batch(f, M, X0[rows], direction=direction[rows],
                            sources=sources[rows], **kw)
    assert all(_same_trajectory(batch, i, alone[j])
               for i, j in enumerate(rows))


def test_differentials_integrate_in_one_batch(monkeypatch):
    # every descent and ascent of the torus shares one lockstep batch
    fx = torus_tilted()
    crits = classified_crits(fx)
    directions = []
    real = morse_homology.integrate_batch

    def counted(*args, **kwargs):
        directions.append(np.array(kwargs["direction"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(morse_homology, "integrate_batch", counted)
    data = morse_differentials(fx.function, fx.manifold, crits,
                               step_length=fx.step_length,
                               sphere_samples={1: 16})
    (d,) = directions
    # 16 samples of the maximum, 2 per saddle, one or two ascents per saddle
    assert (d == -1).sum() == 16 + 2 + 2 and (d == +1).sum() >= 2
    assert data.unresolved == 0


def test_morse_complex_needs_char2(circle_data):
    fx, crits, data = circle_data
    cat = OrbitCategory(fx.manifold.action.group)
    M0 = build_system(cat, "singular", char=0)
    with pytest.raises(ValueError):
        morse_complex(data, M0)


def test_morse_complex_over_another_group_is_rejected(circle_data):
    # the Morse complex goes through the Bredon assembly, which checks the
    # group of the coefficient system against the cells' stabilizers
    fx, crits, data = circle_data
    other = build_system(OrbitCategory(FiniteGroup.cyclic(3)), "constant",
                         char=2)
    with pytest.raises(ValueError, match="different group"):
        morse_complex(data, other)


def test_antipodal_sphere_boundaries_are_residues():
    # S^2 under -I: the two odd lines from a cell-orbit onto the next land on
    # one entry under the constant system, 1 + 1 = 2 stored as its residue
    # 0; the singular system keeps the two lines on separate entries
    fx = sphere_antipodal()
    crits = classified_crits(fx)
    data = morse_differentials(fx.function, fx.manifold, crits,
                               step_length=fx.step_length,
                               sphere_samples={1: 16})
    cat = OrbitCategory(fx.manifold.action.group)
    const = morse_complex(data, build_system(cat, "constant", char=2))
    assert const.boundary == {1: ((),), 2: ((),)}
    sing = morse_complex(data, build_system(cat, "singular", char=2))
    ones = ((0, 1), (1, 1))
    assert sing.boundary == {1: (ones, ones), 2: (ones, ones)}


def test_unstable_function_rejected():
    fx = circle_c2_height()
    crits = classified_crits(fx)
    assert any(not c.stable for c in crits)
    with pytest.raises(ValueError):
        morse_differentials(fx.function, fx.manifold, crits)


def test_bad_counts_raise_boundary_error():
    # synthetic three-level data with an odd composite: d.d != 0 must abort
    from equimorse.groups import FiniteGroup, OrbitMorphism, trivial_subgroup
    from equimorse.morse.critical import CriticalOrbit, CriticalPoint

    G = FiniteGroup.trivial()
    e = trivial_subgroup(G)

    def fake(idx, value):
        z = np.zeros(2)
        return CriticalPoint(
            coords=z, value=value, stabilizer=e, tangent_basis=np.eye(2),
            hessian=np.eye(2), eigvals=np.ones(2), eigvecs=np.eye(2),
            index=idx, prime_basis=np.zeros((2, 0)), stable=True,
        )

    orbits = [
        CriticalOrbit(rep=fake(0, 0.0), size=1),
        CriticalOrbit(rep=fake(1, 1.0), size=1),
        CriticalOrbit(rep=fake(2, 2.0), size=1),
    ]
    m = OrbitMorphism(e, e, (0,))
    counts = {(2, 1): {m: 1}, (1, 0): {m: 1}}  # odd composite: d.d = 1
    corrupted = MorseData(orbits=orbits, counts=counts)
    cat = OrbitCategory(G)
    M2 = build_system(cat, "constant", char=2)
    with pytest.raises(BoundarySquareNonzero):
        morse_complex(corrupted, M2)


@functools.cache
def _antipodal_crits():
    fx = sphere_antipodal()
    return fx, classified_crits(fx)


def _edited_flow(monkeypatch, edit, crits=None):
    """morse_differentials on sphere_antipodal (closed, orbits of size 2 of
    index 0, 1 and 2) at 16 samples, its real batch's rows handed to
    edit(rows, row) before they are counted; row(d, k) is the first row of
    direction d out of a source of index k."""
    fx, found = _antipodal_crits()
    crits = found if crits is None else crits
    real = morse_homology.integrate_batch

    def edited(f, M, X0, **kw):
        rows = real(f, M, X0, **kw)
        keys = [(d, crits[s].index)
                for d, s in zip(kw["direction"], kw["sources"])]
        edit(rows, lambda d, k: keys.index((d, k)))
        return rows

    monkeypatch.setattr(morse_homology, "integrate_batch", edited)
    return morse_differentials(fx.function, fx.manifold, crits,
                               step_length=fx.step_length,
                               sphere_samples={1: 16})


def _ends(status, at):
    """An edit that ends the first row of (direction, source index) at with
    status and no limit."""
    def edit(rows, row):
        i = row(*at)
        rows.status[i], rows.limit[i] = status, -1
    return edit


def _lands(index, at):
    """An edit that sends the first row of (direction, source index) at
    into the first critical point of the given index."""
    def edit(rows, row):
        _, crits = _antipodal_crits()
        j = next(j for j, c in enumerate(crits) if c.index == index)
        rows.limit[row(*at)] = j
    return edit


BOUNDARIES = "orbit 2: {} basin boundaries but {} identified flow lines between basins"


@pytest.mark.parametrize("edit, unresolved, escaped, warns", [
    (lambda rows, row: None, 0, 0, []),
    # a descending sample of the maximum is counted where it fails, and
    # splits its basin in two
    (_ends(UNRESOLVED, (-1, 2)), 1, 0, [BOUNDARIES.format(4, 2)]),
    (_ends(ESCAPED, (-1, 2)), 0, 1, [BOUNDARIES.format(4, 2)]),
    # an escape alone fails the flow on a closed manifold
    (_ends(ESCAPED, (-1, 1)), 0, 1, []),
    # arrivals that skip an index are warnings, and a lost ascent is also
    # a line the basins of the maximum miss
    (_lands(2, (-1, 1)), 0, 0,
     ["index-1 point at [ 0. -1.  0.] flowed to index 2"]),
    (_lands(0, (+1, 1)), 0, 0,
     ["NonConsecutiveFlow: ascent from index 1 reached index 0",
      BOUNDARIES.format(2, 1)]),
], ids=["real", "sample-unresolved", "sample-escaped", "descent-escaped",
        "descent-skips", "ascent-skips"])
def test_flow_verdict_counts_every_trajectory(monkeypatch, edit, unresolved,
                                              escaped, warns):
    # the rows of the one real batch, some of them ended otherwise: the
    # flow counts each failed row once, whatever its source, and its
    # verdict ok fails on any of them
    data = _edited_flow(monkeypatch, edit)
    assert data.closed
    assert (data.unresolved, data.escaped, data.warnings) \
        == (unresolved, escaped, warns)
    assert data.ok == (not unresolved and not escaped and not warns)
    # on an open manifold an escape is a legitimate label
    assert dataclasses.replace(data, closed=False).ok \
        == (not unresolved and not warns)


def test_flow_needs_every_translate_of_a_critical_point(monkeypatch):
    # without one of the two maxima the critical set is no union of orbits
    _, crits = _antipodal_crits()
    with pytest.raises(ValueError, match="not closed under the action"):
        _edited_flow(monkeypatch, lambda rows, row: None, crits[:-1])


def test_flow_against_the_value_ordering_is_a_bug(monkeypatch):
    # minima above the saddles: the odd counts from the saddles into them
    # would run uphill
    _, crits = _antipodal_crits()
    lifted = [dataclasses.replace(c, value=10.0) if c.index == 0 else c
              for c in crits]
    with pytest.raises(AssertionError, match="against the value ordering"):
        _edited_flow(monkeypatch, lambda rows, row: None, lifted)


def test_flow_verdict_on_a_closed_manifold_missing_an_extremum():
    # the minima and saddles of sphere_antipodal without its maxima: the
    # flow of the saddles is sound, but every function on the sphere has a
    # maximum, so the search missed one
    fx, crits = _antipodal_crits()
    data = morse_differentials(fx.function, fx.manifold,
                               [c for c in crits if c.index < 2],
                               step_length=fx.step_length)
    assert (data.unresolved, data.escaped) == (0, 0)
    assert data.warnings == ["no critical point of index 2 was found, but "
                             "every function on a closed manifold has one"]
    assert not data.ok


def test_flow_verdict_on_a_closed_manifold_with_no_critical_point():
    # an empty critical set: the translate table and the flow batch have
    # no rows, and both extrema are missing
    fx, _ = _antipodal_crits()
    data = morse_differentials(fx.function, fx.manifold, [],
                               step_length=fx.step_length)
    assert (data.orbits, data.counts, data.unresolved, data.steps) == (
        [], {}, 0, 0)
    assert data.warnings == [f"no critical point of index {i} was found, "
                             f"but every function on a closed manifold has "
                             f"one" for i in (0, 2)]
    assert not data.ok


def test_morse_vs_cellular_oracle_on_sphere():
    # plain cellular S^2 versus the Morse complex of the height function
    fx = sphere_height()
    crits = classified_crits(fx)
    data = morse_differentials(fx.function, fx.manifold, crits,
                               step_length=fx.step_length)
    cat = OrbitCategory(fx.manifold.action.group)
    C = morse_complex(data, build_system(cat, "constant", char=2))
    hm = homology(C)
    # oracle: one 0-cell and one 2-cell
    from equimorse.complexes import ChainComplex

    oracle = homology(ChainComplex(char=2, ranks={0: 1, 2: 1}, boundary={}))
    assert {n: hm.dim(n) for n in (0, 1, 2)} == {
        n: oracle.dim(n) for n in (0, 1, 2)
    }


def _flow_summary(data):
    """Flow counts (source, target, coset, count mod 2), unresolved, escaped."""
    counts = sorted((i, j, m.coset, c) for (i, j), table in data.counts.items()
                    for m, c in table.items())
    return counts, data.unresolved, data.escaped


def _betti(data, G, kind="constant"):
    h = homology(morse_complex(data, build_system(OrbitCategory(G), kind,
                                                  char=2)))
    return {n: h.dim(n) for n in h.degrees() if h.dim(n)}


# the manifold fixtures whose `morse --stabilize` function is stable, as
# the flow needs: figure1_dihedral's one surgery leaves three unstable
# maxima (test_perturb.py, test_dihedral_figure1_gets_figure1s_surgery)
FLOWING = sorted(set(MANIFOLD_FIXTURES) - {"figure1_dihedral"})

# per manifold fixture: flow counts, unresolved, escaped and the constant
# Morse homology over F2 of the stabilized function, as the flow gave them
# when every row was integrated into capture_tol by RK4; capturing rows in a
# sink's certified radius must leave all of them as they are.  escaped
# counts every trajectory, the descending samples of the maxima included:
# on figure 1, 257 of them and one index-1 descent leave the plane
FLOW_PINS = {
    "circle_c2_height": ([(2, 0, (0, 1), 1), (2, 1, (0, 1), 1)], 0, 0, {0: 1}),
    "figure1_plane": ([(1, 0, (0, 1, 2), 1), (2, 1, (0,), 1), (2, 1, (1,), 1)],
                      0, 258, {2: 1}),
    "figure2_plane": ([(1, 0, (0, 1), 1)], 0, 1, {}),
    "sphere_antipodal": ([(1, 0, (0,), 1), (1, 0, (1,), 1), (2, 1, (0,), 1),
                          (2, 1, (1,), 1)], 0, 0, {0: 1, 1: 1, 2: 1}),
    "sphere_height": ([], 0, 0, {0: 1, 2: 1}),
    "torus_tilted": ([(1, 0, (0,), 0), (2, 0, (0,), 0), (3, 1, (0,), 0),
                      (3, 2, (0,), 0)], 0, 0, {0: 1, 1: 2, 2: 1}),
    "wells_c2": ([(2, 0, (0, 1), 1), (2, 1, (0, 1), 1)], 0, 0, {0: 1}),
}


@pytest.mark.parametrize("name", FLOWING)
def test_capture_keeps_flow_counts_on_fixtures(name):
    # the `morse --stabilize` pipeline at the library's 512 samples
    fx = MANIFOLD_FIXTURES[name]()
    data = run_morse(fx, stabilize=True).flow()
    assert not data.warnings
    assert data.linear_captures > 0
    assert (*_flow_summary(data), _betti(data, fx.manifold.action.group)) \
        == FLOW_PINS[name]


@pytest.mark.parametrize("name", FLOWING)
def test_error_controlled_steps_keep_every_basin(name, monkeypatch):
    # the one flow batch of the `morse --stabilize` pipeline at the bench's
    # 16 samples, run again at a tenth of the step length: every row that
    # the tighter run sends to a sink of its direction reaches the same sink
    # at the fixture's step length
    fx = MANIFOLD_FIXTURES[name]()
    real_md = morse_run.morse_differentials
    monkeypatch.setattr(morse_run, "morse_differentials",
                        lambda *a, **k: real_md(*a, **k,
                                                sphere_samples={1: 16}))
    batches = []
    real = morse_homology.integrate_batch

    def recorded(f, M, X0, **kw):
        batches.append((f, M, X0, kw, real(f, M, X0, **kw)))
        return batches[-1][-1]

    monkeypatch.setattr(morse_homology, "integrate_batch", recorded)
    run_morse(fx, stabilize=True).flow()
    ((f, M, X0, kw, loose),) = batches
    tight = real(f, M, X0, **{**kw, "step_length": kw["step_length"] / 10})
    sink = {-1: 0, +1: M.dim}
    index = np.array([c.index for c in kw["crits"]])
    rows = (tight.status == CAPTURED) & (
        index[tight.limit] == [sink[d] for d in kw["direction"]])
    assert rows.any()
    assert (loose.status[rows] == tight.status[rows]).all()
    assert (loose.limit[rows] == tight.limit[rows]).all()


@functools.cache
def _pipeline_batch(name):
    """The one flow batch of the `morse --stabilize` pipeline of a manifold
    fixture at the bench's 16 samples: (f, M, crits, X0, its keywords)."""
    fx = MANIFOLD_FIXTURES[name]()
    run = run_morse(fx, stabilize=True)
    batches = []
    real = morse_homology.integrate_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morse_homology, "integrate_batch",
                   lambda f, M, X0, **kw: batches.append((X0, kw))
                   or real(f, M, X0, **kw))
        morse_differentials(run.function, fx.manifold, run.critical,
                            sphere_samples={1: 16},
                            step_length=fx.step_length,
                            escape_radius=fx.escape_radius)
    ((X0, kw),) = batches
    return run.function, fx.manifold, run.critical, X0, kw


def _velocity(f, M):
    ev = M.evaluator(f)

    def velocity(P, sign):
        _, (G, J) = ev.jet(P, 1)
        return tangent_part(J, sign[:, None] * G)

    return velocity


@pytest.mark.parametrize("name", FLOWING)
def test_released_rows_reach_the_limits_of_their_seeds(name):
    # the release keeps every basin: each row of the pipeline's batch ends
    # where the trajectory from its RHO seed ends, so the basin boundaries
    # of every index-2 source lie between the same neighbours
    f, M, crits, X0, kw = _pipeline_batch(name)
    released = integrate_batch(f, M, X0, **kw)
    seeded = integrate_batch(f, M, X0, **{**kw, "sources": None})
    assert released.linear_release.any()
    assert not seeded.linear_release.any()
    assert (released.status == seeded.status).all()
    assert (released.limit == seeded.limit).all()


def _rk4(velocity, M, P, sign, h):
    """One projected classical RK4 step of size h[i] from each row of P."""
    h = h[:, None]
    K1 = velocity(P, sign)
    K2 = velocity(P + 0.5 * h * K1, sign)
    K3 = velocity(P + 0.5 * h * K2, sign)
    K4 = velocity(P + h * K3, sign)
    return M.project_points_many(P + h / 6 * (K1 + 2 * K2 + 2 * K3 + K4))


def _at_value(velocity, value_of, M, P, sign, value):
    """The point where the flow of direction sign[i] from P[i] reaches
    value[i]: one RK4 step whose size is bisected, as f moves monotonically
    along the flow."""
    def past(h):
        return sign * (value_of(_rk4(velocity, M, P, sign, h)) - value) >= 0

    V = velocity(P, sign)
    hi = 2 * np.abs(value - value_of(P)) / (V * V).sum(axis=1)
    for _ in range(60):
        short = ~past(hi)
        if not short.any():
            break
        hi[short] *= 2
    lo = np.zeros_like(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        over = past(mid)
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return _rk4(velocity, M, P, sign, 0.5 * (lo + hi))


@pytest.mark.parametrize("name", FLOWING)
def test_released_starts_lie_on_the_flow_lines_of_their_seeds(name):
    # each released start against the trajectory from its RHO seed, at a
    # tenth of the step length, at the same value of f.  The bound is the
    # certificate's: the nonlinear part N = v - sHe of the velocity moves a
    # row off its linear flow line only through its part across e (along e
    # it only changes the row's speed, which the same value of f takes
    # out); on the shells that certified the radius r that part is at most
    # kappa |e|^2, and integrated along the release, whose rows grow at
    # least 1 / RELEASE_GAIN times as fast as its fastest rate w_max, it
    # moves the row by at most kappa RELEASE_GAIN^2 r^2 / w_max.  The
    # trajectory's own error adds up to STEP_TOL times its step length per
    # step
    f, M, crits, X0, kw = _pipeline_batch(name)
    velocity = _velocity(f, M)

    def value_of(P):
        return M.evaluator(f).jet(P, 0)[0][0]

    C = np.array([c.coords for c in crits])
    release, _, _ = _certificate(
        lambda P, sign: (value_of(P), velocity(P, sign)), M, crits, C,
        _leaves(kw, len(crits)))
    released = integrate_batch(f, M, X0, **kw, max_steps=0)
    fine = kw["step_length"] / 10
    seeded = integrate_batch(f, M, X0, **{**kw, "sources": None,
                                          "step_length": fine},
                             keep_paths=True)
    rows = np.flatnonzero(released.linear_release)
    assert len(rows)
    starts, sign, bounds = [], [], []
    for j in rows:
        s, k = float(kw["direction"][j]), kw["sources"][j]
        c, r = crits[k], release[int(s > 0), k]
        w, V = np.linalg.eigh(s * c.hessian)
        up = w > 0
        B = c.tangent_basis if up.all() else c.tangent_basis @ V[:, up]
        W = _shell_directions(B.shape[1]) @ B.T
        X = M.project_points_many(
            np.concatenate([C[k] + q * W for q in (r, r / 2, r / 4)]))
        E = X - C[k]
        N = (velocity(X, np.full(len(X), s))
             - E @ c.tangent_basis @ (s * c.hessian) @ c.tangent_basis.T)
        e2 = (E * E).sum(axis=1)
        across = N - ((N * E).sum(axis=1) / e2)[:, None] * E
        kappa = (np.sqrt((across * across).sum(axis=1)) / e2).max()
        path = np.vstack([X0[j], seeded.paths[j]])
        level = value_of(released.start[j][None, :])[0]
        before = np.flatnonzero(s * (value_of(path) - level) < 0)[-1]
        starts.append(path[before])
        sign.append(s)
        bounds.append(kappa * RELEASE_GAIN ** 2 * r ** 2 / w.max()
                      + (before + 1) * STEP_TOL * fine)
    sign = np.array(sign)
    levels = value_of(released.start[rows])
    there = _at_value(velocity, value_of, M, np.array(starts), sign, levels)
    gaps = [np.linalg.norm(there[i] - released.start[j])
            for i, j in enumerate(rows)]
    assert all(g <= b for g, b in zip(gaps, bounds)), (gaps, bounds)


def _leaves(kw, n):
    """The (2, n) array naming the (direction, source) pairs of the rows of
    a batch with keywords kw, as integrate_batch passes it to
    _certificate."""
    leaves = np.zeros((2, n), dtype=bool)
    leaves[(np.asarray(kw["direction"]) > 0).astype(int), kw["sources"]] = True
    return leaves


def _pipeline_certificate(name):
    """(f, M, crits, keywords, coordinates of crits, certificate) of the
    pipeline batch of a manifold fixture, the certificate read through f
    and the velocity as integrate_batch reads them."""
    f, M, crits, _, kw = _pipeline_batch(name)
    ev = M.evaluator(f)

    def flow(P, sign):
        (v, _), (G, J) = ev.jet(P, 1)
        return v, tangent_part(J, sign[:, None] * G)

    C = np.array([c.coords for c in crits])
    return f, M, crits, kw, C, _certificate(flow, M, crits, C,
                                            _leaves(kw, len(crits)))


@pytest.mark.parametrize("name", FLOWING)
def test_every_orbit_shares_one_certificate(name):
    # the probe directions are fixed tangent axes, not carried by the
    # action: every member of an orbit takes the same radii and level
    # region, bit for bit, so a translated row meets the same shortcuts
    _, M, crits, _, _, cert = _pipeline_certificate(name)
    for orb in group_into_orbits(M, crits):
        js = [j for _, j in orb.members]
        for a in (cert.release, cert.level, cert.region[None]):
            assert (a[:, js] == a[:, js[:1]]).all(), (orb.rep, a[:, js])


def test_only_named_sources_and_their_orbits_are_probed(monkeypatch):
    # naming figure 1's index-1 point at (-0.417, 0) for a descent probes
    # shells around it and its two translates, whose release radii agree,
    # and around no other point: the minimum at the origin, which no row
    # leaves, gets no shell and no release radius
    f, M, crits, _, _ = _pipeline_batch("figure1_plane")
    ev = M.evaluator(f)

    def flow(P, sign):
        (v, _), (G, J) = ev.jet(P, 1)
        return v, tangent_part(J, sign[:, None] * G)

    probes = []
    real = M.project_points_many
    monkeypatch.setattr(M, "project_points_many",
                        lambda X: probes.append(X) or real(X))
    C = np.array([c.coords for c in crits])
    saddle = next(orb for orb in group_into_orbits(M, crits)
                  if orb.index == 1)
    js = sorted(j for _, j in saddle.members)
    leaves = np.zeros((2, len(crits)), dtype=bool)
    leaves[0, crits.index(saddle.rep)] = True
    release, _, _ = _certificate(flow, M, crits, C, leaves)
    (X,) = probes
    nearest = np.linalg.norm(X[:, None] - C[None], axis=2).argmin(axis=1)
    per_point = np.bincount(nearest, minlength=len(crits))
    assert len(js) == 3 and crits[0].index == 0
    assert set(np.flatnonzero(per_point)) == set(js)
    assert len(set(per_point[js])) == 1
    assert (release[0, js] == release[0, js[0]]).all() and release[0, js[0]]
    assert np.count_nonzero(release) == len(js)


def _region_starts(f, M, c, R, level, d, rays=12):
    """Points of the level region B(c, R) past level along rays of c's
    tangent space: on each ray the outermost point found by bisection,
    near the region's edge, and the point half as far out."""
    ev = M.evaluator(f)
    theta = 2 * np.pi * (np.arange(rays) + 0.3) / rays
    U = {1: np.array([[1.0], [-1.0]]),
         2: np.stack([np.cos(theta), np.sin(theta)], axis=1)}[M.dim]
    U = U @ c.tangent_basis.T

    def at(rho):
        return M.project_points_many(c.coords + rho[:, None] * U)

    def inside(X):
        v = ev.jet(X, 0)[0][0]
        return ((np.linalg.norm(X - c.coords, axis=1) < R)
                & (d * (v - level) > 0))

    lo, hi = np.zeros(len(U)), np.full(len(U), R)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        ok = inside(at(mid))
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    X = np.concatenate([at(lo), at(0.5 * lo)])
    return X[inside(X)]


@pytest.mark.parametrize("name", FLOWING)
def test_shortcut_rows_reach_their_sink_by_rk4_alone(name):
    # an oracle for the sink's shortcut: rows started in a sink's level
    # region, near its edge included, are integrated in one batch with
    # every sink left out of the critical points, so that the region cannot
    # fire; RK4 alone takes each within CAPTURE_TOL of the sink the region
    # would have named.  At the fixture's step length the step controller
    # can hold a stiff mode at RK4's stability limit (dt times the rate
    # about 2.785, where the mode neither grows nor decays), 6.6e-6 from
    # figure 1's maxima; the error tolerance of a hundredth of that step
    # length rejects such steps well inside 1e-6
    f, M, crits, kw, C, cert = _pipeline_certificate(name)
    starts, direction, sink = [], [], []
    for k, c in enumerate(crits):
        for side, d in ((0, -1), (1, 1)):
            if c.index != (0 if d < 0 else M.dim):
                continue
            if np.isfinite(cert.level[side, k]):
                starts.append(_region_starts(f, M, c, cert.region[k],
                                             cert.level[side, k], d))
            grown = sum(map(len, starts)) - len(sink)
            direction += [d] * grown
            sink += [k] * grown
    assert sink
    trajs = integrate_batch(
        f, M, np.concatenate(starts),
        crits=[c for c in crits if c.index not in (0, M.dim)],
        direction=np.array(direction), step_length=kw["step_length"] / 100,
        escape_radius=kw["escape_radius"], max_steps=500)
    assert (np.linalg.norm(trajs.end - C[sink], axis=1) < CAPTURE_TOL).all()


def _batch_rounds(name, monkeypatch):
    """The RK4 attempts of the pipeline batch of a fixture, as the sizes of
    the projections that end them, with the batch's trajectories."""
    f, M, crits, X0, kw = _pipeline_batch(name)
    ev = M.evaluator(f)
    rounds = []
    real = ev.project
    monkeypatch.setattr(ev, "project",
                        lambda X, iters=20: rounds.append(len(X))
                        or real(X, iters))
    return rounds, integrate_batch(f, M, X0, **kw)


def test_figure1_batch_rounds(monkeypatch):
    # a lockstep round is one RK4 attempt of every live row, ending in one
    # projection of its new points, and a rejected step is retried in the
    # next round: the batch takes as many rounds as its longest row takes
    # attempts.  Figure 1's two stiff ascents end in their maxima's level
    # regions, and the batch at 16 samples takes 53 rounds.  When a
    # rejected step was retried at once, in RK4 calls of its own inside the
    # round, the batch took 61 calls; when rows ended only in linear balls
    # of radius at most 0.1, 98
    rounds, trajs = _batch_rounds("figure1_plane", monkeypatch)
    assert len(rounds) == (trajs.steps + trajs.halvings).max() == 53


def test_torus_batch_rounds(monkeypatch):
    # the torus's batch at 16 samples: 142 rounds, where retries inside
    # the round took 164 RK4 calls
    rounds, trajs = _batch_rounds("torus_tilted", monkeypatch)
    assert len(rounds) == (trajs.steps + trajs.halvings).max() == 142


@pytest.fixture(scope="module")
def bench_modules():
    """The benchmark's workload and tracer modules, which import each other
    by name from the bench directory."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads, spans.NullTracer()


# escapes of the bench's 16-sample flow that differ from the 512-sample
# FLOW_PINS: escaped counts the samples of a maximum's descending circle
# too, and on figure 1 one index-1 descent and 9 of the maximum's 16
# samples leave the plane (257 of 512 at the library's count)
BENCH_ESCAPES = {"figure1_plane": 10}


@pytest.mark.parametrize("seed", [901, 3701])
@pytest.mark.parametrize("workload", ["morse-surgery", "morse-poly"])
def test_capture_keeps_flow_counts_on_bench_grids(bench_modules, workload,
                                                  seed, monkeypatch):
    # the first pass of a benchmark run: jittered seed grids, 16 samples; the
    # op's own oracle checks the Morse homology against the expected groups
    workloads, tracer = bench_modules
    ctx = workloads.setup(workload)
    got = []
    real = morse_package.morse_differentials
    monkeypatch.setattr(morse_package, "morse_differentials",
                        lambda *a, **k: got.append(real(*a, **k)) or got[-1])
    for op in workloads.make_pass(ctx, seed, 0):
        assert workloads.op_morse(ctx, op, tracer) == []
        counts, unresolved, escaped = _flow_summary(got.pop())
        assert (counts, unresolved) == FLOW_PINS[op[1]][:2]
        assert escaped == BENCH_ESCAPES.get(op[1], FLOW_PINS[op[1]][2])


def test_antipodal_sphere_counts_a_captured_sample_once():
    # S^2 under -I with f = x^2 + 2y^2 + 3z^2: at 16 and 512 samples two
    # descending samples of the maximum lie on the saddles' stable manifolds,
    # and rounding carries them into the saddle or off it into a neighbouring
    # basin; either way each is one flow line, not two basin boundaries, so
    # every sample count gives the same lines and no warning
    fx = sphere_antipodal()
    crits = classified_crits(fx)
    got = []
    for n in (16, 510, 512):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = morse_differentials(fx.function, fx.manifold, crits,
                                       step_length=fx.step_length,
                                       sphere_samples={1: n})
        assert not data.warnings
        got.append(_flow_summary(data))
    assert got[0] == got[1] == got[2] == FLOW_PINS["sphere_antipodal"][:3]


def test_torus_lines_between_equal_basins_leave_no_boundary():
    # every line out of the maximum runs into a saddle whose two branches
    # reach the one minimum, so it separates no basins; with an odd number
    # of samples exactly one sample lies on such a line
    fx = torus_tilted()
    crits = classified_crits(fx)
    got = []
    for n in (15, 16, 17):
        data = morse_differentials(fx.function, fx.manifold, crits,
                                   step_length=fx.step_length,
                                   sphere_samples={1: n})
        assert not data.warnings
        got.append(_flow_summary(data))
    assert got[0] == got[1] == got[2] == FLOW_PINS["torus_tilted"][:3]
