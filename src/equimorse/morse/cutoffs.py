"""Smooth cutoff machinery for the critical-point surgery model.

phi is the odd smooth transition built from the normalized integral of the
bump exp(-1/(1-t^2)): it equals -1 below -1 and +1 above +1, is
nondecreasing, and its second derivative vanishes only at 0 inside (-1, 1).
From it the radial profile -t^2 phi(t-2) acquires exactly two critical
points, 0 and a root t0 in (1, 2) located by bisection.  psi is a smooth
plateau equal to 1 on [t0 - delta, t0 + delta] and 0 outside [1 + delta,
3 - delta].  epsilon is sized so the angular perturbation term can never
cancel the radial slope on the two transition intervals.

The bump integral is a Gauss-Legendre sum of QUAD_PANELS panels of
QUAD_ORDER nodes, accurate to ~1e-15 (tests pin it against an independent
quadrature).  CutoffPair.profile, the radial kernel of the surgery model and
the one evaluator of phi and psi, gives R(t) and psi(t) with derivatives up
to order 2 in one pass of full-array operations, with one bump jet on the
quadrature nodes and the arguments of both; a row's result does not depend
on the rows beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError

__all__ = ["CutoffPair", "DeltaTooLarge", "build_cutoffs"]


class DeltaTooLarge(InputError):
    """The plateau intervals cannot fit between 1, t0 and 3."""


def _bump_jet(s: np.ndarray, order: int) -> list:
    """[b, b'][:order + 1] for the bump b(s) = exp(-1/(1-s^2)) on (-1, 1),
    0 outside (smooth and even), in one pass over s with no gather: the
    quotients are taken only inside, 1 - s^2 > 0 exactly where |s| < 1."""
    u = 1.0 - s * s
    inside = u > 0.0
    b = np.exp(np.divide(-1.0, u, out=np.full_like(u, -np.inf), where=inside))
    if not order:
        return [b]
    return [b, b * np.divide(-2.0 * s, u * u, out=np.zeros_like(u),
                             where=inside)]


def _bump(s) -> np.ndarray:
    return _bump_jet(np.asarray(s, dtype=float), 0)[0]


# upper limits per block of _BumpIntegral.jet, which bounds its
# quadrature temporaries at a few times CHUNK x QUAD_ORDER x 8 bytes
CHUNK = 1024
QUAD_PANELS = 64
QUAD_ORDER = 24
# the width of the bracket at which _bisect stops
BISECT_TOL = 1e-12


class _BumpIntegral:
    """Cumulative integral of the bump over [-1, 1] by composite
    Gauss-Legendre panels, vectorized in the upper limit."""

    def __init__(self):
        nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
        self.edges = np.linspace(-1.0, 1.0, QUAD_PANELS + 1)
        self.inner = self.edges[1:-1]
        self.nodes = nodes
        self.weights = weights
        h = self.edges[1] - self.edges[0]
        mids = (self.edges[:-1] + self.edges[1:]) / 2.0
        pts = mids[:, None] + (h / 2.0) * nodes[None, :]
        vals = _bump(pts)
        self.panel_sums = (h / 2.0) * vals @ weights
        self.cum = np.concatenate([[0.0], np.cumsum(self.panel_sums)])
        self.total = self.cum[-1]

    def __call__(self, t) -> np.ndarray:
        """The integral of the bump from -1 to t, elementwise."""
        return self.jet(t, 0)[0]

    def jet(self, t, order: int) -> list:
        """[I(t), b(t), b'(t)][:order + 1] for the integral I of the bump b
        from -1: one bump jet on t and its partial panel's nodes, in blocks
        of CHUNK elements (evaluated each on its own, so bit for bit)."""
        t = np.asarray(t, dtype=float)
        if t.size <= CHUNK:
            return self._block(t, order)
        flat = t.ravel()
        blocks = [self._block(flat[i:i + CHUNK], order)
                  for i in range(0, len(flat), CHUNK)]
        return [np.concatenate(parts).reshape(t.shape) for parts in zip(*blocks)]

    def _block(self, t: np.ndarray, order: int) -> list:
        # b and b' are 0 outside (-1, 1); the last panel holds 1
        tc = np.minimum(np.maximum(t, -1.0), 1.0)
        idx = self.inner.searchsorted(tc, side="right")
        left = self.edges[idx]
        half = (tc - left) / 2.0
        pts = np.concatenate([(left + half)[..., None] + half[..., None] * self.nodes,
                              tc[..., None]], axis=-1)
        b = _bump_jet(pts, max(order - 1, 0))
        partial = half * np.einsum("...k,k->...", b[0][..., :QUAD_ORDER],
                                   self.weights)
        # copies, so the block's bump arrays are freed
        return [self.cum[idx] + partial] + [a[..., QUAD_ORDER].copy() for a in b][:order]


_INTEGRAL = _BumpIntegral()


@dataclass(eq=False)
class CutoffPair:
    """The cutoffs (phi, psi) with the located root t0, plateau half-width
    delta, and the admissible perturbation amplitude epsilon (sized for a
    unit-sup perturbation h; rescale epsilon down for larger h)."""

    t0: float
    delta: float
    epsilon: float

    def _plateau_arg(self, t) -> tuple[np.ndarray, np.ndarray]:
        """psi's step argument x and the signed width of x's piece, with
        psi^(k)(t) = S^(k)(x) / width^k for the step S(x) = I(2x - 1) /
        total (0 for x <= 0, 1 for x >= 1): (fall_hi - t) / wf and -wf
        above the plateau, else (t - rise_lo) / wr (at least 1 on it) and
        wr."""
        rise_lo = 1.0 + self.delta
        fall_lo, fall_hi = self.t0 + self.delta, 3.0 - self.delta
        wr, wf = self.t0 - self.delta - rise_lo, fall_hi - fall_lo
        hi = t > fall_lo
        return (np.where(hi, (fall_hi - t) / wf, (t - rise_lo) / wr),
                np.where(hi, -wf, wr))

    def profile(self, t, order: int) -> tuple[list, list]:
        """The radial kernel: ([R, R', ...], [psi, psi', ...]) up to the
        given order (0, 1 or 2) at every t of a 1-d array, with R the radial
        profile t^2 on t <= 1, -t^2 phi(t - 2) on 1 < t < 3 and -t^2 on
        t >= 3.  phi(t - 2) is exactly -1 and 1 below and above the middle
        piece, where the bump integral is exactly 0 and its total, and its
        derivatives exactly 0, so one expression gives R on every row.
        """
        t = np.asarray(t, dtype=float)
        x, width = self._plateau_arg(t)
        args = np.concatenate([t - 2.0, 2.0 * x - 1.0])
        m, total = len(t), _INTEGRAL.total
        integral, *b = _INTEGRAL.jet(args, order)
        p0 = -1.0 + 2.0 * integral[:m] / total
        R, psi = [-t * t * p0], [integral[m:] / total]
        if order >= 1:
            d1 = 2.0 * b[0] / total
            p1 = d1[:m]
            R.append(-2 * t * p0 - t * t * p1)
            psi.append(d1[m:] / width)
        if order >= 2:
            p2 = 2.0 * b[1][:m] / total
            R.append(-2 * p0 - 4 * t * p1 - t * t * p2)
            psi.append(4.0 * b[1][m:] / total / (width * width))
        return R, psi


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2.0


def find_t0() -> float:
    """The unique zero of 2 phi(t-2) + t phi'(t-2) in (1, 2)."""

    def g(t):
        s = np.asarray(t - 2.0)
        phi = -1.0 + 2.0 * _INTEGRAL(s) / _INTEGRAL.total
        return float(2.0 * phi + t * (2.0 * _bump(s) / _INTEGRAL.total))

    return _bisect(g, 1.0 + 1e-9, 2.0)


def build_cutoffs(delta: float) -> CutoffPair:
    """Construct the cutoff pair for a given plateau half-width.

    Raises DeltaTooLarge when the plateau intervals cannot satisfy
    1 + delta < t0 - delta and t0 + delta < 3 - delta.  epsilon is half the
    largest value for which eps * sup|psi'| stays below the minimal radial
    slope on both transition intervals; the surgery model divides it by the
    sampled sup of its sphere function |h|.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t0 = find_t0()
    if not (1.0 + delta < t0 - delta and t0 + delta < 3.0 - delta):
        raise DeltaTooLarge(
            f"delta={delta} does not fit: t0={t0:.6f} needs "
            f"delta < {min((t0 - 1) / 2, (3 - t0) / 2):.6f}"
        )
    cut = CutoffPair(t0=t0, delta=delta, epsilon=0.0)
    # one kernel call on both transition intervals
    t = np.concatenate([np.linspace(1.0 + delta, t0 - delta, 4001),
                        np.linspace(t0 + delta, 3.0 - delta, 4001)])
    margin = float(np.min(np.abs(cut.profile(t, 1)[0][1])))
    # psi' alone, which needs the bump but not its integral
    x, width = cut._plateau_arg(np.linspace(1.0, 3.0, 8001))
    dpsi = 2.0 * _bump(2.0 * x - 1.0) / _INTEGRAL.total / width
    sup_dpsi = float(np.max(np.abs(dpsi)))
    if margin <= 0 or sup_dpsi <= 0:
        raise AssertionError("degenerate cutoff data")
    cut.epsilon = 0.5 * margin / sup_dpsi
    return cut
