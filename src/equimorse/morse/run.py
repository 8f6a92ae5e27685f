"""One Morse run of a manifold fixture: the critical table, one surgery per
unstable orbit, and the flow counting.  How a fixture is stabilized (the
orbit's first point, in the table's order, at which match_rows finds one
of the fixture's charts, the fixture's sphere function and surgery radius,
the cutoffs of delta, the seeds) is decided here only."""

from dataclasses import dataclass

import numpy as np

from .critical import classify, find_critical_points, group_into_orbits
from .cutoffs import build_cutoffs
from .homology import MorseData, morse_differentials
from .manifolds import match_rows
from .perturb import localize_surgery


@dataclass(eq=False)
class MorseRun:
    """surgeries lists (unstable CriticalPoint, C0 distance), one per
    unstable orbit, in the order of before; function and critical are the
    originals when none ran."""

    fixture: object   # the ManifoldFixture
    before: list
    surgeries: list
    function: object
    critical: list

    @property
    def stable(self) -> bool:
        return all(c.stable for c in self.critical)

    def flow(self) -> MorseData:
        """morse_differentials with the fixture's step_length and
        escape_radius; it raises unless the run is stable, and the
        result's ok is the flow's verdict."""
        fx = self.fixture
        return morse_differentials(self.function, fx.manifold, self.critical,
                                   step_length=fx.step_length,
                                   escape_radius=fx.escape_radius)


def run_morse(fx, *, seeds=None, stabilize=False, delta=0.05) -> MorseRun:
    """Search and classify from seeds (the fixture's by default); with
    stabilize, one surgery per unstable orbit of before, then search and
    classify again.  The surgery goes at the orbit's first point, in the
    order of before, that is a chart's center (by match_rows), with that
    chart; an orbit with no chart raises localize_surgery's ChartMissing
    at its first point.  The cutoffs are built whenever stabilize is set,
    so a delta that does not fit raises DeltaTooLarge even when every
    point is stable."""
    M, f = fx.manifold, fx.function
    seeds = fx.seeds if seeds is None else seeds
    before = [classify(f, M, p) for p in find_critical_points(f, M, seeds)]
    surgeries = []
    if stabilize:
        cut = build_cutoffs(delta)
        charts = list(fx.charts.values())
        centers = np.array([ch.center for ch in charts]).reshape(-1, M.ambient)
        unstable = [sorted(j for _, j in orb.members)
                    for orb in group_into_orbits(M, before)
                    if not orb.rep.stable]
        for members in sorted(unstable):
            hit = match_rows([before[j].coords for j in members], centers)
            j, k = next(((j, k) for j, k in zip(members, hit) if k >= 0),
                        (members[0], -1))
            f = localize_surgery(f, M, before[j], fx.surgery_radius, cut,
                                 chart=charts[k] if k >= 0 else None,
                                 h=fx.sphere_fn)
            surgeries.append((before[j], f.c0_distance))
    critical = before
    if surgeries:
        critical = [classify(f, M, p) for p in find_critical_points(f, M, seeds)]
    return MorseRun(fx, before, surgeries, f, critical)
