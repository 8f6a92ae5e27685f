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

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .manifolds import check_order

__all__ = ["CutoffPair", "DeltaTooLarge", "build_cutoffs"]


class DeltaTooLarge(InputError):
    """The plateau intervals cannot fit between 1, t0 and 3."""


# the bump's quotient -1/u is taken at max(u, TINY): where u = 1 - s^2 <= 0
# it is -1/TINY, whose exponential underflows to exactly 0
TINY = np.finfo(float).tiny


def _bump_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite a with the bump b(s) = exp(-1/(1-s^2)) at its entries s:
    exactly 0 outside (-1, 1), where the exponential underflows."""
    np.multiply(a, a, out=a)
    np.subtract(1.0, a, out=a)
    np.maximum(a, TINY, out=a)
    np.divide(-1.0, a, out=a)
    return np.exp(a, out=a)


def _bump_slope(s: np.ndarray) -> np.ndarray:
    """b'/b = -2s/(1-s^2)^2 inside (-1, 1), and 0 outside, where b' is 0:
    the quotient is taken only where 1 - s^2 > 0."""
    u = 1.0 - s * s
    return np.divide(-2.0 * s, u * u, out=np.zeros_like(u), where=u > 0.0)


def _bump_jet(s: np.ndarray, order: int) -> list:
    """[b, b'][:order + 1] for the bump b(s) = exp(-1/(1-s^2)) on (-1, 1),
    0 outside (smooth and even)."""
    b = _bump_in_place(np.array(s, dtype=float))
    if not order:
        return [b]
    return [b, b * _bump_slope(s)]


def _bump(s) -> np.ndarray:
    return _bump_jet(s, 0)[0]


# upper limits per block of _BumpIntegral.jet, which bounds its node array
# at CHUNK x (QUAD_ORDER + 1) x 8 bytes
CHUNK = 1024
QUAD_PANELS = 64
QUAD_ORDER = 24
# the width of the bracket at which _bisect stops
BISECT_TOL = 1e-12
# radial_samples: the kernel's sample points on the modified radii [0, 3]
C0_SAMPLES = 601


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

    def jet(self, t, order: int) -> np.ndarray:
        """[I(t), b(t), b'(t)][:order + 1] for the integral I of the bump b
        from -1, stacked in one array of shape (order + 1,) + t.shape: one
        node array of the upper limits and their partial panels' nodes,
        filled in place for each block of CHUNK elements (each element is
        evaluated on its own, so bit for bit)."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        n = flat.size
        pts = np.empty((min(n, CHUNK), QUAD_ORDER + 1))
        out = np.empty((order + 1, n))
        for i in range(0, n, CHUNK):
            block = pts[:n - i]
            # the limits clamped to [-1, 1]: b and b' are 0 outside, and
            # the last panel holds 1
            tc = np.maximum(flat[i:i + CHUNK], -1.0, out=block[:, QUAD_ORDER])
            np.minimum(tc, 1.0, out=tc)
            self._block(block, order, out[:, i:i + CHUNK])
        return out.reshape((order + 1,) + t.shape)

    def _block(self, pts: np.ndarray, order: int, out: np.ndarray) -> None:
        """out[:order + 1] = [I, b, b'] at the upper limits in [-1, 1] in the
        last column of pts, which holds the bump on the limit's partial
        panel's nodes and at the limit after the call."""
        tc = pts[:, QUAD_ORDER]
        idx = self.inner.searchsorted(tc, side="right")
        left = self.edges[idx]
        half = (tc - left) / 2.0
        nodes = pts[:, :QUAD_ORDER]
        np.multiply(half[:, None], self.nodes, out=nodes)
        nodes += (left + half)[:, None]
        slope = _bump_slope(tc) if order >= 2 else None
        b = _bump_in_place(pts)
        partial = half * np.einsum("...k,k->...", b[:, :QUAD_ORDER], self.weights)
        np.add(self.cum[idx], partial, out=out[0])
        if order >= 1:
            out[1] = b[:, QUAD_ORDER]
        if order >= 2:
            np.multiply(b[:, QUAD_ORDER], slope, out=out[2])


_INTEGRAL = _BumpIntegral()


@dataclass(eq=False)
class CutoffPair:
    """The cutoffs (phi, psi) with the located root t0, plateau half-width
    delta, and the admissible perturbation amplitude epsilon (sized for a
    unit-sup perturbation h; rescale epsilon down for larger h)."""

    t0: float
    delta: float
    epsilon: float

    def __post_init__(self):
        # psi's pieces: the step argument is 2x - 1 for x = (t - lo) / width,
        # (fall_hi - t) / wf above fall_lo (lo = fall_hi, width = -wf) and
        # (t - rise_lo) / wr elsewhere (at least 1 on the plateau).  Row 0
        # is lo, row 1 width / 2 (2x = (t - lo) / (width / 2) exactly, as
        # halving is exact) and row 2 width, column 1 the piece above
        rise_lo = 1.0 + self.delta
        self._fall_lo, fall_hi = self.t0 + self.delta, 3.0 - self.delta
        wr, wf = self.t0 - self.delta - rise_lo, fall_hi - self._fall_lo
        self._pieces = np.array([[rise_lo, fall_hi], [wr / 2, -wf / 2],
                                 [wr, -wf]])

    @functools.cached_property
    def radial_samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(-t^2, R, psi) at C0_SAMPLES evenly spaced t in [0, 3], the
        modified cylinder, from one kernel call: the surgery's C0 distance
        reads them."""
        ts = np.linspace(0.0, 3.0, C0_SAMPLES)
        (R,), (psi,) = self.profile(ts, 0)
        return -ts * ts, R, psi

    def _plateau_arg(self, t, out=None) -> tuple[np.ndarray, np.ndarray]:
        """psi's step argument 2x - 1 (into out) and the signed width of x's
        piece, with psi^(k)(t) = S^(k)(x) / width^k for the step S(x) =
        I(2x - 1) / total (0 for x <= 0, 1 for x >= 1)."""
        lo, half, width = self._pieces.take(t > self._fall_lo, axis=1)
        x = np.subtract(t, lo, out=out)
        x /= half
        x -= 1.0
        return x, width

    def profile(self, t, order: int) -> tuple[list, list]:
        """The radial kernel: ([R, R', ...], [psi, psi', ...]) up to the
        given order (0, 1 or 2) at every t of a 1-d array, with R the radial
        profile t^2 on t <= 1, -t^2 phi(t - 2) on 1 < t < 3 and -t^2 on
        t >= 3.  phi(t - 2) is exactly -1 and 1 below and above the middle
        piece, where the bump integral is exactly 0 and its total, and its
        derivatives exactly 0, so one expression gives R on every row.  The
        upper limits t - 2 of phi and 2x - 1 of psi's step go into one array
        and through one bump integral jet.  phi^(k) = 2 I^(k) / total is
        I^(k) / (total / 2) bit for bit (doubling is exact), one division
        for every order at once.
        """
        check_order(order)
        t = np.asarray(t, dtype=float)
        m, total = len(t), _INTEGRAL.total
        lim = np.empty(2 * m)
        np.subtract(t, 2.0, out=lim[:m])
        _, width = self._plateau_arg(t, out=lim[m:])
        J = _INTEGRAL.jet(lim, order)
        dphi = J / (total / 2.0)
        p0 = dphi[0, :m] - 1.0
        # -t^2 and -2t: R = -t^2 phi, R' = -2t phi - t^2 phi' and R'' = -2
        # phi - 4t phi' - t^2 phi''
        ntt = -t * t
        R, psi = [ntt * p0], [J[0, m:] / total]
        if order >= 1:
            t2 = -2 * t
            R.append(t2 * p0 + ntt * dphi[1, :m])
            psi.append(dphi[1, m:] / width)
        if order >= 2:
            R.append(-2 * p0 + 2 * t2 * dphi[1, :m] + ntt * dphi[2, :m])
            psi.append(J[2, m:] / (total / 4.0) / (width * width))
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
    arg, width = cut._plateau_arg(np.linspace(1.0, 3.0, 8001))
    dpsi = 2.0 * _bump(arg) / _INTEGRAL.total / width
    sup_dpsi = float(np.max(np.abs(dpsi)))
    if margin <= 0 or sup_dpsi <= 0:
        raise AssertionError("degenerate cutoff data")
    cut.epsilon = 0.5 * margin / sup_dpsi
    return cut
