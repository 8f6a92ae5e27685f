import pytest

from equimorse.complexes import ChainComplex
from equimorse.fixtures import (
    GCW_FIXTURES,
    antipodal_circle,
    sphere_reflection,
    sphere_rotation_c3,
    torus_double,
)
from equimorse.groups import FiniteGroup
from equimorse.smith import NotAPGroup, smith_report


def test_sphere_reflection_p2():
    rep = smith_report(sphere_reflection(), 2)
    # fixed circle vs total sphere over F2
    assert rep.dims_total == {0: 1, 2: 1}
    assert rep.dims_fixed == {0: 1, 1: 1}
    tails = {ell: (fx, tot) for ell, fx, tot, ok in rep.per_ell}
    assert tails[0] == (2, 2)
    assert tails[1] == (1, 1)
    assert tails[2] == (0, 1)
    assert rep.euler_total == 2 and rep.euler_fixed == 0
    assert rep.all_pass


def test_antipodal_circle_free_action():
    rep = smith_report(antipodal_circle(), 2)
    assert rep.dims_fixed == {}
    assert rep.euler_fixed == 0 and rep.euler_total == 0
    assert rep.all_pass


def test_c3_rotation_sphere_p3():
    rep = smith_report(sphere_rotation_c3(), 3)
    assert rep.dims_fixed == {0: 2}  # the two poles
    assert rep.euler_total == 2 and rep.euler_fixed == 2
    assert rep.all_pass


def test_trivial_action_equalities():
    # trivial C2 action on the circle: fixed = total, all tails equal
    from equimorse.gcw import gcw_from_cells

    G = FiniteGroup.cyclic(2)
    X = gcw_from_cells(
        group=G,
        cells={0: 1, 1: 1},
        boundaries={0: [[]], 1: [[]]},
        perms={0: {0: (0,), 1: (0,)}, 1: {0: (0,), 1: (0,)}},
    )
    rep = smith_report(X, 2)
    assert rep.dims_total == rep.dims_fixed
    assert all(fx == tot for _, fx, tot, _ in rep.per_ell)
    assert rep.all_pass


def test_all_p2_fixtures_pass():
    for name in ("point_c2", "circle_reflection", "sphere_reflection",
                 "torus_double", "antipodal_circle"):
        rep = smith_report(GCW_FIXTURES[name](), 2)
        assert rep.all_pass, name


def test_not_a_p_group():
    with pytest.raises(NotAPGroup):
        smith_report(sphere_rotation_c3(), 2)
    from equimorse.fixtures import circle_dihedral

    with pytest.raises(NotAPGroup):
        smith_report(circle_dihedral(), 3)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_p_that_is_not_a_prime_is_rejected_at_entry(p, monkeypatch):
    # before the p-group check, whose divide-out loop never ends at p = 1
    # and divides by zero at p = 0
    from equimorse import smith

    def loop(n, q):
        raise AssertionError("smith_report reached the p-group check")

    monkeypatch.setattr(smith, "_is_prime_power", loop)
    total = ChainComplex(char=0, ranks={0: 1}, boundary={})
    for X in (sphere_reflection(), (total, total)):
        with pytest.raises(ValueError, match=f"prime, not {p}"):
            smith_report(X, p)


def test_pair_of_complexes_input():
    total = ChainComplex(char=2, ranks={0: 1, 1: 1}, boundary={})
    fixed = ChainComplex(char=2, ranks={0: 2}, boundary={})
    rep = smith_report((total, fixed), 2)
    assert rep.dims_total == {0: 1, 1: 1}
    assert rep.dims_fixed == {0: 2}
    # the ell = 0 tail is the only equality here; euler 0 vs 2 is 0 mod 2
    assert rep.all_pass
    # a genuinely failing pair is reported, not raised
    bad_fixed = ChainComplex(char=2, ranks={0: 3}, boundary={})
    rep2 = smith_report((total, bad_fixed), 2)
    assert not rep2.all_pass


def test_report_internal_consistency():
    rep = smith_report(torus_double(), 2)
    # tails recomputable from the dims vectors
    for ell, fx, tot, ok in rep.per_ell:
        assert fx == sum(d for n, d in rep.dims_fixed.items() if n >= ell)
        assert tot == sum(d for n, d in rep.dims_total.items() if n >= ell)
        assert ok == (fx <= tot)
    # tails non-increasing in ell
    fxs = [fx for _, fx, _, _ in rep.per_ell]
    tots = [t for _, _, t, _ in rep.per_ell]
    assert fxs == sorted(fxs, reverse=True)
    assert tots == sorted(tots, reverse=True)


def test_formatting():
    rep = smith_report(sphere_reflection(), 2)
    assert "Smith report" in rep.text_table()
    assert rep.csv_rows()[0] == "ell,fixed_tail,total_tail,pass"
