"""The homological layer's results on every G-CW fixture, against the goldens
in homological_outputs.json: Bredon homology, the pages of the skeletal
filtration with their differentials, the E^infinity check and the Smith
report, over Z and over F_p for the group's prime.

The goldens are the homological counterpart of cli_outputs.json.  They were
written once, from a commit whose results the subquotient oracles and the
page identities check; rewriting them hides a change of results, so
regenerate them (`python tests/test_homological_outputs.py --write`) only
when a result is meant to change.
"""

import json
import sys
from pathlib import Path

import pytest

from equimorse.coefficients import SYSTEM_KINDS, build_system
from equimorse.complexes import homology
from equimorse.fixtures import GCW_FIXTURES
from equimorse.gcw import bredon_chain_complex
from equimorse.groups import OrbitCategory, enumerate_subgroups, normalizer
from equimorse.smith import NotAPGroup, smith_report
from equimorse.spectral import einfty_check, skeletal_filtration, spectral_pages

PATH = Path(__file__).resolve().parent / "homological_outputs.json"


def _systems(X, char):
    """(label, system) for every coefficient kind; "general" once per pair
    (H, K) of subgroups with K normalizing H."""
    G = X.group
    cat = OrbitCategory(G)
    for kind in SYSTEM_KINDS:
        if kind != "general":
            yield kind, build_system(cat, kind, char=char)
            continue
        subs = enumerate_subgroups(G)
        for H in subs:
            nset = set(normalizer(G, H).elements)
            for K in subs:
                if set(K.elements) <= nset:
                    yield (f"general{list(H.elements)}{list(K.elements)}",
                           build_system(cat, kind, char=char, H=H, K=K))


def _page(page):
    return {"groups": [[p, q, d] for (p, q), d in sorted(page.groups.items())],
            "differentials": [[p, q, [[list(e) for e in col] for col in mat]]
                              for (p, q), mat in sorted(page.differentials.items())]}


def outputs(name: str) -> dict:
    """Every result of the homological layer on one fixture, JSON-ready."""
    X = GCW_FIXTURES[name]()
    p = 3 if X.group.order % 3 == 0 else 2
    out = {}
    for char in (0, p):
        for label, M in _systems(X, char):
            C = bredon_chain_complex(X, M)
            F = skeletal_filtration(C)
            case = {"homology": [[n, b, list(t)] for n, (b, t)
                                 in sorted(homology(C).entries.items())],
                    "pages": [_page(page) for page in spectral_pages(F, 3)]}
            if char:
                ok, report = einfty_check(F)
                case["einfty"] = [ok, [[n, a, b] for n, (a, b)
                                       in sorted(report.per_degree.items())]]
            out[f"{label}/{char}"] = case
    try:
        rep = smith_report(X, p)
    except NotAPGroup as exc:
        out["smith"] = str(exc)
    else:
        out["smith"] = rep.text_table()
    return out


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else {}


@pytest.mark.parametrize("name", sorted(GCW_FIXTURES))
def test_homological_outputs_are_the_golden(name):
    got = json.loads(json.dumps(outputs(name)))
    want = GOLDEN[name]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], (name, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_homological_outputs.py --write")
    PATH.write_text(json.dumps({n: outputs(n) for n in sorted(GCW_FIXTURES)},
                               indent=1) + "\n")
