"""Morse differentials from gradient flow, the equivariant Morse complex,
and the Morse filtration.

Index-1 sources shoot their two descending directions and cluster the
arrivals.  Flow lines out of index-2 sources appear as basin boundaries on
the sampled descending circle, but the boundary trajectories are stiff to
chase forward, so each connection is pinned from the receiving end instead:
the ascending line of an index-1 point is shot upward and captures the
index-2 source, one shot per stabilizer class of ascending rays.  For
stable functions the stabilizer of a source fixes its descending manifold
pointwise, which makes the translated flow line and its arrival coset (the
orbit-category morphism of the count) well defined.  Counts are mod 2
throughout; orientations are out of scope.

The ascents depend only on the critical points, so every descent and every
ascent of one morse_differentials call runs in a single integrate_batch,
each row with its own direction: the lockstep iterations are the longest
trajectory's, not a sum over sources.  The trajectories are then read
source by source, in orbit order and ascents last, which fixes the order
of counts and warnings.  An arrival is read from the capture: the critical
point it names has a known orbit and element carrying the orbit's rep to it.

The Morse complex is the cellular Bredon complex of the descending-manifold
cells, one cell-orbit per critical orbit with the mod-2 flow counts as
degrees, built by the one Bredon assembly, equimorse.gcw.bredon_assembly.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..coefficients import CoefficientSystem
from ..complexes import ChainComplex, ChainComplexError
from ..errors import InputError
from ..gcw import bredon_assembly
from ..groups import OrbitMorphism
from ..spectral import FilteredComplex, skeletal_filtration
from .critical import CriticalPoint
from .flow import UNRESOLVED, integrate_batch
from .manifolds import EqFunction, ImplicitGManifold

__all__ = [
    "BoundarySquareNonzero",
    "CriticalOrbit",
    "MorseData",
    "OutsideDeskScale",
    "morse_complex",
    "morse_differentials",
    "morse_filtration",
]

log = logging.getLogger(__name__)

DEFAULT_SPHERE_SAMPLES = {0: 2, 1: 512}
# radius of the descending and ascending spheres the flow starts from
RHO = 1e-3


class BoundarySquareNonzero(ValueError):
    """Assembled Morse boundary fails d∘d = 0: bad flow counts."""


class OutsideDeskScale(InputError):
    """The flow counting does not reach these critical orbits: a source of
    index above 2, or an index-2 source off a surface."""


@dataclass(eq=False)
class CriticalOrbit:
    rep: CriticalPoint
    size: int
    members: list = field(default_factory=list)  # (element, index in crits)

    @property
    def index(self) -> int:
        return self.rep.index


@dataclass(eq=False)
class MorseData:
    """Critical orbits plus mod-2 flow counts between consecutive indices.

    counts[(i, j)] maps an OrbitMorphism from orbit i's stabilizer to orbit
    j's stabilizer to its mod-2 flow-line count.  steps and halvings total
    the RK4 steps and step halvings of every integrated trajectory, and
    linear_captures counts the trajectories finished in closed form inside
    a sink's certified capture radius.
    """

    orbits: list[CriticalOrbit]
    counts: dict[tuple[int, int], dict[OrbitMorphism, int]]
    unresolved: int = 0
    escaped: int = 0
    steps: int = 0
    halvings: int = 0
    linear_captures: int = 0
    warnings: list = field(default_factory=list)

    def by_index(self, k: int) -> list[int]:
        return [i for i, o in enumerate(self.orbits) if o.index == k]

    def max_index(self) -> int:
        return max((o.index for o in self.orbits), default=-1)


def group_into_orbits(M: ImplicitGManifold, crits: list[CriticalPoint],
                      tol: float = 1e-6) -> list[CriticalOrbit]:
    """Partition classified critical points into group orbits; a member is
    (first element carrying the rep onto it, its index in crits)."""
    G = M.action.group
    used = [False] * len(crits)
    coords = [np.asarray(c.coords, dtype=float) for c in crits]
    orbits = []
    for i, c in enumerate(crits):
        if used[i]:
            continue
        members = []
        for s in G.elements():
            img = M.apply(s, coords[i])
            hit = None
            for j, q in enumerate(coords):
                if np.linalg.norm(img - q) < tol:
                    hit = j
                    break
            if hit is None:
                raise ValueError(
                    f"critical set is not closed under the action near {img}"
                )
            if not used[hit]:
                used[hit] = True
                members.append((s, hit))
        orbits.append(CriticalOrbit(rep=c, size=len(members), members=members))
    orbits.sort(key=lambda o: (o.index, float(o.rep.value)))
    return orbits


def _descending_seeds(p: CriticalPoint, rho: float, samples: int):
    """Points on the descending sphere of radius rho around p."""
    k = p.index
    basis = p.tangent_basis @ p.neg_basis  # ambient directions
    if k == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif k == 2:
        th = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        raise ValueError(f"descending spheres of dimension {k - 1} unsupported")
    return np.asarray(p.coords)[None, :] + rho * dirs @ basis.T


def _ascending_seeds(M: ImplicitGManifold, q: CriticalPoint, rho: float):
    """Points on the ascending line of the index-1 point q, one per
    stabilizer class of its two ascending rays."""
    w, V = np.linalg.eigh(q.hessian)
    pos = V[:, w > 0]
    if pos.shape[1] != 1:
        raise ValueError("unexpected ascent dimension at an index-1 point")
    v = pos[:, 0]
    flips = []
    for s in q.stabilizer.elements:
        R = q.tangent_basis.T @ M.act_mats[s] @ q.tangent_basis
        flips.append(float(v @ R @ v) < 0)
    dirs = np.array([[1.0]] if any(flips) else [[1.0], [-1.0]])
    ambient_v = (q.tangent_basis @ v)[None, :]
    return np.asarray(q.coords)[None, :] + rho * dirs @ ambient_v


def morse_differentials(f: EqFunction, M: ImplicitGManifold,
                        crits: list[CriticalPoint], *,
                        sphere_samples: dict | None = None,
                        step_length: float = 0.01,
                        escape_radius: float = 50.0) -> MorseData:
    """Count mod-2 flow lines between consecutive-index critical orbits.

    Requires every critical point stable (so arrival cosets define orbit
    morphisms).  Index-1 sources shoot their two descending directions and
    the arrivals are clustered directly.  Flow lines into an index-1 point
    on a surface are located from the receiving end: the point's ascending
    line is shot upward (one ray per stabilizer class of rays) and each
    captured maximum names one flow line out of the source representative.
    The descending-circle sample of every index-2 source still provides the
    basin structure, and its boundary count must agree with the number of
    identified lines into index-1 points whose two descending branches reach
    different basins: a line between equal basins leaves no boundary, and a
    sample captured by an index-1 point lies on a line and has no basin.

    That cross-check has a blind spot: it cannot see a lost line into an
    index-1 point whose two descending branches reach the same basin, since
    such a line leaves no boundary either way.  All four lines out of the
    maximum of torus_tilted are of that kind.
    """
    samples_cfg = dict(DEFAULT_SPHERE_SAMPLES)
    if sphere_samples:
        samples_cfg.update(sphere_samples)
    for c in crits:
        if not c.stable:
            raise ValueError(f"morse_differentials needs a stable function: {c}")
    orbits = group_into_orbits(M, crits)
    # critical point index -> (its orbit, element carrying the rep onto it)
    member_of = {j: (oi, s) for oi, orb in enumerate(orbits)
                 for s, j in orb.members}
    counts: dict[tuple[int, int], dict[OrbitMorphism, int]] = {}
    unresolved = 0
    escaped = 0
    warns: list[str] = []
    emitted: dict[int, int] = {}

    def record(src_i, tgt_i, coset_elem):
        src = orbits[src_i]
        tgt = orbits[tgt_i]
        m = OrbitMorphism(src.rep.stabilizer, tgt.rep.stabilizer, (coset_elem,))
        table = counts.setdefault((src_i, tgt_i), {})
        table[m] = table.get(m, 0) + 1

    # every descent and every receiving-end ascent, in processing order:
    # (orbit, direction, seeds); they all run in one lockstep batch
    segments = []
    for src_i, orb in enumerate(orbits):
        k = orb.index
        if k == 0:
            continue
        if k > 2:
            raise OutsideDeskScale("sources of index > 2 are outside desk scale")
        segments.append((src_i, -1, _descending_seeds(
            orb.rep, RHO, samples_cfg.get(k - 1, 512))))
    # receiving-end shots out of index-1 targets with index-2 sources present
    if any(o.index == 2 for o in orbits):
        if M.dim != 2:
            raise OutsideDeskScale(
                "index-2 flow counting is implemented for surfaces"
            )
        for tgt_i, orb in enumerate(orbits):
            if orb.index == 1:
                segments.append((tgt_i, +1, _ascending_seeds(M, orb.rep, RHO)))
    trajs = []
    if segments:
        X0 = np.concatenate([seeds for _, _, seeds in segments])
        if M.codim:
            X0 = M.project_points_many(X0)
        direction = np.concatenate([np.full(len(seeds), d)
                                    for _, d, seeds in segments])
        trajs = integrate_batch(f, M, X0, crits=crits, direction=direction,
                                step_length=step_length,
                                escape_radius=escape_radius)

    def arrival(tr, target_index, warning, message):
        """The (orbit, coset) a trajectory lands on, or None after counting
        it as unresolved or escaped or warning that it skipped an index."""
        nonlocal unresolved, escaped
        if tr.status == UNRESOLVED:
            unresolved += 1
            return None
        if tr.escaped:
            escaped += 1
            return None
        if tr.limit.index != target_index:
            warns.append(f"{warning}{tr.limit.index}")
            warnings.warn(message, stacklevel=3)
            return None
        return member_of[tr.limit_index]

    def basin(tr):
        """A trajectory's label: its limit point, or how it failed."""
        if tr.status == UNRESOLVED:
            return ("unresolved", None)
        if tr.escaped:
            return ("escaped", None)
        return ("crit", tr.limit_index)

    # per index-1 orbit: do its two descending branches reach different
    # basins?  Only a line into such a point separates two basins.
    splits: dict[int, bool] = {}
    G = M.action.group
    start = 0
    for oi, d, seeds in segments:
        part = trajs[start:start + len(seeds)]
        start += len(seeds)
        if d == +1:
            for tr in part:
                hit = arrival(tr, 2, "NonConsecutiveFlow: ascent from index 1 "
                              "reached index ",
                              "NonConsecutiveFlow: ascent skipped an index")
                if hit is not None:
                    # the line a.p_rep -> q_rep translates to
                    # p_rep -> a^{-1}.q_rep
                    record(hit[0], oi, G.inverse[hit[1]])
        elif orbits[oi].index == 1:
            where = np.round(orbits[oi].rep.coords, 4)
            for tr in part:
                hit = arrival(tr, 0, f"index-1 point at {where} flowed to "
                              "index ",
                              "NonConsecutiveFlow: trajectory skipped an index")
                if hit is not None:
                    record(oi, *hit)
            splits[oi] = basin(part[0]) != basin(part[-1])
        else:
            # index-2 source: the sample fixes the basin structure; each
            # basin boundary is one emitted flow line, identified from the
            # receiving end (forward bisection is hopeless here: the saddle
            # repels radially much faster than it attracts along the ridge).
            # A sample captured by an index-1 point lies on a flow line
            # itself and has no basin: it is left out, so the line it found
            # is one boundary (or none, between equal basins), not two
            labels = [basin(tr) for tr in part]
            unresolved += sum(b[0] == "unresolved" for b in labels)
            basins = [b for b in labels
                      if b[0] != "crit" or crits[b[1]].index != 1]
            emitted[oi] = sum(b != basins[i - 1] for i, b in enumerate(basins))

    data = MorseData(orbits=orbits, counts=counts, unresolved=unresolved,
                     escaped=escaped, warnings=warns,
                     steps=sum(tr.steps for tr in trajs),
                     halvings=sum(tr.halvings for tr in trajs),
                     linear_captures=sum(tr.linear_capture for tr in trajs))
    # the basin boundaries of every index-2 source must equal its raw count
    # of identified lines into index-1 points whose branches split
    for src_i, nb in emitted.items():
        lines = sum(
            c for (i, j), tbl in counts.items() if i == src_i and splits[j]
            for c in tbl.values()
        )
        if nb != lines:
            warns.append(
                f"orbit {src_i}: {nb} basin boundaries but {lines} "
                f"identified flow lines between basins"
            )
    for key in list(data.counts):
        data.counts[key] = {m: c % 2 for m, c in data.counts[key].items()}
    # sanity: flow goes downhill
    for (i, j), table in data.counts.items():
        if any(table.values()):
            if not orbits[i].rep.value > orbits[j].rep.value:
                raise AssertionError("flow count against the value ordering")
    return data


def morse_complex(data: MorseData, M: CoefficientSystem) -> ChainComplex:
    """The Bredon assembly over the critical orbits: C_k is the sum of
    M(stab) over the index-k orbits, and the mod-2 flow counts are the
    degrees of the boundary records.  Needs char 2."""
    if M.char != 2:
        raise ValueError("the Morse complex is assembled mod 2; pass char=2")
    orbits = data.orbits
    by_index = {k: data.by_index(k) for k in range(data.max_index() + 1)}
    pos = {oi: a for idx in by_index.values() for a, oi in enumerate(idx)}
    records: dict[int, dict] = {}
    for (i, j), table in data.counts.items():
        k = orbits[i].index
        if orbits[j].index == k - 1:
            records.setdefault(k, {})[(pos[i], pos[j])] = table.items()
    stabilizers = {k: [orbits[oi].rep.stabilizer for oi in idx]
                   for k, idx in by_index.items()}
    try:
        return bredon_assembly(M, stabilizers, records)
    except ChainComplexError as exc:
        raise BoundarySquareNonzero(
            f"Morse boundary fails d∘d = 0: {exc}; counts = {data.counts}"
        ) from exc


def morse_filtration(data: MorseData, M: CoefficientSystem) -> FilteredComplex:
    """The Morse complex filtered by Morse index (p = k), ready for the
    spectral sequence; its E^2 row is the Bredon homology."""
    return skeletal_filtration(morse_complex(data, M))
