"""One Morse run of a manifold fixture: the critical table, a surgery at each
unstable point, and the flow counting.  How a fixture is stabilized (the
chart match_point finds at the point, the fixture's sphere function and
surgery radius, the cutoffs of delta, the seeds) is decided here only."""

from dataclasses import dataclass

from .critical import classify, find_critical_points, match_point
from .cutoffs import build_cutoffs
from .homology import MorseData, morse_differentials
from .perturb import localize_surgery


@dataclass(eq=False)
class MorseRun:
    """surgeries lists (unstable CriticalPoint, C0 distance) in the order of
    before; function and critical are the originals when none ran."""

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
    stabilize, a surgery at each unstable point, then search and classify
    again.  The cutoffs are built whenever stabilize is set, so a delta that
    does not fit raises DeltaTooLarge even when every point is stable."""
    M, f = fx.manifold, fx.function
    seeds = fx.seeds if seeds is None else seeds
    before = [classify(f, M, p) for p in find_critical_points(f, M, seeds)]
    surgeries = []
    if stabilize:
        cut = build_cutoffs(delta)
        charts = list(fx.charts.values())
        for c in (c for c in before if not c.stable):
            j = match_point(c.coords, [ch.center for ch in charts])
            f = localize_surgery(f, M, c, fx.surgery_radius, cut,
                                 chart=None if j is None else charts[j],
                                 h=fx.sphere_fn)
            surgeries.append((c, f.c0_distance))
    critical = before
    if surgeries:
        critical = [classify(f, M, p) for p in find_critical_points(f, M, seeds)]
    return MorseRun(fx, before, surgeries, f, critical)
