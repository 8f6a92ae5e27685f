"""Morse differentials from gradient flow and the equivariant Morse complex.

Index-1 sources shoot their two descending directions and cluster the
arrivals.  Flow lines out of index-2 sources appear as basin boundaries on
the sampled descending circle, but the boundary trajectories are stiff to
chase forward, so each connection is pinned from the receiving end instead:
the ascending line of an index-1 point is shot upward and captures the
index-2 source, one shot per stabilizer class of ascending rays.  For
stable functions the stabilizer of a source fixes its descending manifold
pointwise, which makes the translated flow line and its arrival coset (the
orbit-category morphism of the count) well defined.  Counts are mod 2
throughout; orientations are out of scope.  The seeds lie in V^- and V^+,
read from the Hessian eigenpairs that classify stored (CriticalPoint).

The ascents depend only on the critical points, so every descent and every
ascent of one morse_differentials call runs in a single integrate_batch,
each row with its own direction: the lockstep rounds are the longest
trajectory's RK4 attempts, not a sum over sources.  Every row is seeded at RHO from its
source and names that source to integrate_batch, which releases it by the
source's closed-form linear flow to the edge of its certified
linearization ball before the first RK4 step; a source no rung certifies
starts its rows at RHO.  A row ends at a sink within CAPTURE_TOL, or once
it enters the sink's sampled level region with f past its level; the
region trusts the critical set found here (ROADMAP item 3 closes that
gap).  The batch comes back as one FlowBatch of per-row arrays, read
source by source, in orbit order and ascents last, which fixes the order
of counts and warnings.  An arrival is read from a row's limit: the
critical point it names has a known orbit and element carrying the
orbit's rep to it, from critical.group_into_orbits, which reads the
critical set's one translate table.  A row's basin is its limit, or how
it failed.  The totals of MorseData are sums over the whole batch's
arrays, so every row counts once, and MorseData.ok is the one verdict.

The Morse complex is the cellular Bredon complex of the descending-manifold
cells, one cell-orbit per critical orbit with the mod-2 flow counts as
degrees, built by the one Bredon assembly, equimorse.gcw.bredon_assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coefficients import CoefficientSystem
from ..complexes import ChainComplex, ChainComplexError
from ..errors import InputError
from ..gcw import bredon_assembly
from ..groups import OrbitMorphism
from .critical import CriticalOrbit, CriticalPoint, group_into_orbits
from .flow import CAPTURED, ESCAPED, UNRESOLVED, integrate_batch
from .manifolds import EqFunction, ImplicitGManifold

__all__ = [
    "BoundarySquareNonzero",
    "MorseData",
    "OutsideDeskScale",
    "morse_complex",
    "morse_differentials",
]

DEFAULT_SPHERE_SAMPLES = {1: 512}
# radius of the descending and ascending spheres the flow is seeded on;
# integrate_batch releases the seeds further out where it can
RHO = 1e-3


class BoundarySquareNonzero(ValueError):
    """Assembled Morse boundary fails d∘d = 0: bad flow counts."""


class OutsideDeskScale(InputError):
    """The flow counting does not reach these critical orbits: a source of
    index above 2, or an index-2 source off a surface."""


@dataclass(eq=False)
class MorseData:
    """Critical orbits plus mod-2 flow counts between consecutive indices.

    counts[(i, j)] maps an OrbitMorphism from orbit i's stabilizer to orbit
    j's stabilizer to its mod-2 flow-line count.  steps and halvings total
    the RK4 steps and step halvings (retries of a step over the error
    tolerance or not monotone in f) of every integrated trajectory,
    linear_captures counts the trajectories ended at a sink past the level
    of its level region (see equimorse.morse.flow), and linear_releases
    those started in closed form at the edge of their source's certified
    release radius instead of at RHO.  unresolved and escaped count every
    trajectory of the flow, the samples of index-2 sources included.
    warnings are the flow's faults: an arrival that skipped an index, a
    source whose basin boundaries disagree with its identified lines, and,
    on a closed manifold (closed, M.codim > 0), an index 0 or M.dim with no
    critical point, which the search must have missed.
    """

    orbits: list[CriticalOrbit]
    counts: dict[tuple[int, int], dict[OrbitMorphism, int]]
    unresolved: int = 0
    escaped: int = 0
    steps: int = 0
    halvings: int = 0
    linear_captures: int = 0
    linear_releases: int = 0
    warnings: list = field(default_factory=list)
    closed: bool = False

    @property
    def ok(self) -> bool:
        """The flow's verdict: no unresolved trajectory and no warning, and
        on a closed manifold no escape, which is a legitimate label on an
        open one (the flat figures) but a bug on a closed one."""
        return (self.unresolved == 0 and not self.warnings
                and not (self.closed and self.escaped))

    def by_index(self, k: int) -> list[int]:
        return [i for i, o in enumerate(self.orbits) if o.index == k]

    def max_index(self) -> int:
        return max((o.index for o in self.orbits), default=-1)


def _descending_seeds(p: CriticalPoint, rho: float, samples: int):
    """Points on the descending sphere of radius rho around the point p of
    index 1 or 2 (morse_differentials rejects a higher index first)."""
    basis = p.tangent_basis @ p.neg_basis  # ambient directions
    if p.index == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        th = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    return np.asarray(p.coords)[None, :] + rho * dirs @ basis.T


def _ascending_seeds(q: CriticalPoint, rho: float):
    """Points on the ascending line of the index-1 point q of a surface
    (q.eigvecs[:, -1], for its one positive eigenvalue), one per stabilizer
    class of its two ascending rays (read from q.tangent_rep)."""
    v = q.eigvecs[:, -1]
    flips = [float(v @ R @ v) < 0 for R in q.tangent_rep]
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

    sphere_samples is {1: n}, n the number of samples on each descending
    circle, an int >= 2 (default DEFAULT_SPHERE_SAMPLES).  step_length is
    the arc length of every trajectory's first step and the unit of the
    flow's error tolerance (see integrate_batch).
    """
    # samples on a descending circle (sphere dimension 1); an index-1
    # source always shoots its two descending rays, and one sample sees no
    # basin boundary
    if sphere_samples is None:
        sphere_samples = DEFAULT_SPHERE_SAMPLES
    circle_samples = sphere_samples.get(1)
    if (set(sphere_samples) != {1} or isinstance(circle_samples, bool)
            or not isinstance(circle_samples, (int, np.integer))
            or circle_samples < 2):
        raise ValueError(f"sphere_samples must be {{1: n}} with an int n >= 2, "
                         f"not {sphere_samples!r}")
    for c in crits:
        if not c.stable:
            raise ValueError(f"morse_differentials needs a stable function: {c}")
    orbits = group_into_orbits(M, crits)
    # critical point index -> (its orbit, element carrying the rep onto it)
    member_of = {j: (oi, s) for oi, orb in enumerate(orbits)
                 for s, j in orb.members}
    counts: dict[tuple[int, int], dict[OrbitMorphism, int]] = {}
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
        segments.append((src_i, -1, _descending_seeds(orb.rep, RHO,
                                                      circle_samples)))
    # receiving-end shots out of index-1 targets with index-2 sources present
    if any(o.index == 2 for o in orbits):
        if M.dim != 2:
            raise OutsideDeskScale(
                "index-2 flow counting is implemented for surfaces"
            )
        for tgt_i, orb in enumerate(orbits):
            if orb.index == 1:
                segments.append((tgt_i, +1, _ascending_seeds(orb.rep, RHO)))
    sizes = [len(seeds) for _, _, seeds in segments]
    # one batch, empty when every orbit is a minimum
    X0 = np.concatenate([np.zeros((0, M.ambient))]
                        + [seeds for _, _, seeds in segments])
    # every row leaves its orbit's representative
    flow = integrate_batch(
        f, M, M.project_points_many(X0), crits=crits,
        direction=np.repeat([d for _, d, _ in segments], sizes),
        sources=np.repeat([crits.index(orbits[oi].rep)
                           for oi, _, _ in segments], sizes),
        step_length=step_length, escape_radius=escape_radius)
    # each row's basin: the critical point it reached, -1 if it escaped
    # and -2 if it ended unresolved; and the index of that point, or -1
    # (the limit -1 of a row not captured reads the appended -1)
    basin = np.where(flow.status == CAPTURED, flow.limit, -flow.status)
    reached = np.array([c.index for c in crits] + [-1])[flow.limit]

    # per index-1 orbit: do its two descending branches reach different
    # basins?  Only a line into such a point separates two basins.
    splits: dict[int, bool] = {}
    G = M.action.group
    start = 0
    for oi, d, seeds in segments:
        part = slice(start, start + len(seeds))
        start += len(seeds)
        # a capture names an orbit and the element carrying its rep onto
        # the point reached; a capture at the wrong index is a warning
        if d == +1:
            warns += [f"NonConsecutiveFlow: ascent from index 1 reached "
                      f"index {k}" for k in reached[part] if k not in (-1, 2)]
            for j in flow.limit[part][reached[part] == 2]:
                q, a = member_of[j]
                # the line a.p_rep -> q_rep translates to p_rep -> a^{-1}.q_rep
                record(q, oi, G.inverse[a])
        elif orbits[oi].index == 1:
            where = np.round(orbits[oi].rep.coords, 4)
            warns += [f"index-1 point at {where} flowed to index {k}"
                      for k in reached[part] if k not in (-1, 0)]
            for j in flow.limit[part][reached[part] == 0]:
                record(oi, *member_of[j])
            splits[oi] = bool(basin[part][0] != basin[part][-1])
        else:
            # index-2 source: the sample fixes the basin structure; each
            # basin boundary is one emitted flow line, identified from the
            # receiving end (forward bisection is hopeless here: the saddle
            # repels radially much faster than it attracts along the ridge).
            # A sample captured by an index-1 point lies on a flow line
            # itself and has no basin: it is left out, so the line it found
            # is one boundary (or none, between equal basins), not two
            b = basin[part][reached[part] != 1]
            emitted[oi] = int((b != np.roll(b, 1)).sum())

    data = MorseData(orbits=orbits, counts=counts,
                     unresolved=int((flow.status == UNRESOLVED).sum()),
                     escaped=int((flow.status == ESCAPED).sum()),
                     warnings=warns, closed=M.codim > 0,
                     steps=int(flow.steps.sum()),
                     halvings=int(flow.halvings.sum()),
                     linear_captures=int(flow.linear_capture.sum()),
                     linear_releases=int(flow.linear_release.sum()))
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
    # every function on a closed manifold has a minimum and a maximum, so
    # a table without one is a search that missed it
    if data.closed:
        found = {c.index for c in crits}
        warns += [f"no critical point of index {i} was found, but every "
                  f"function on a closed manifold has one"
                  for i in sorted({0, M.dim} - found)]
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

