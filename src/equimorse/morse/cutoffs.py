"""Smooth cutoff machinery for the critical-point surgery model.

phi is the odd smooth transition built from the normalized integral of
exp(-1/(1-t^2)): it equals -1 below -1 and +1 above +1, is nondecreasing,
and its second derivative vanishes only at 0 inside (-1, 1).  From it the
radial profile -t^2 phi(t-2) acquires exactly two critical points, 0 and a
root t0 in (1, 2) located by bisection.

psi is a smooth plateau equal to 1 on [t0 - delta, t0 + delta] and 0 outside
[1 + delta, 3 - delta].  epsilon is sized so the angular perturbation term
can never cancel the radial slope on the two transition intervals.

All evaluations are vectorized over numpy arrays; the integral of the bump
is a fixed-order Gauss-Legendre panel sum, accurate to ~1e-15, which unit
tests pin against an independent quadrature.

CutoffPair.profile is the one radial kernel of the surgery model: it
returns the radial profile R(t) and the plateau psi(t) with their
derivatives up to a given order, from one bump integral and one bump
evaluation (and one of its derivative at order 2) on the arguments of
both, concatenated.  phi, S and psi keep their own methods, which the
kernel matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError

__all__ = ["CutoffPair", "DeltaTooLarge", "build_cutoffs", "SmoothStep"]


class DeltaTooLarge(InputError):
    """The plateau intervals cannot fit between 1, t0 and 3."""


def _bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) on (-1,1), 0 outside; smooth and even."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _bump_d1(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    u = 1.0 - si * si
    out[inside] = np.exp(-1.0 / u) * (-2.0 * si / (u * u))
    return out


# upper limits per block of _BumpIntegral.__call__, which bounds its
# quadrature temporaries at a few times CHUNK x order x 8 bytes
CHUNK = 1024


class _BumpIntegral:
    """Cumulative integral of the bump over [-1, 1] by composite
    Gauss-Legendre panels, vectorized in the upper limit."""

    def __init__(self, panels: int = 64, order: int = 24):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        self.edges = np.linspace(-1.0, 1.0, panels + 1)
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
        """integral of the bump from -1 to t, elementwise, in blocks of
        CHUNK elements (each element is evaluated on its own, so the
        blocks do not change a bit)."""
        t = np.asarray(t, dtype=float)
        if t.size <= CHUNK:
            return self._block(t)
        flat = t.ravel()
        return np.concatenate([self._block(flat[i:i + CHUNK])
                               for i in range(0, len(flat), CHUNK)]
                              ).reshape(t.shape)

    def _block(self, t: np.ndarray) -> np.ndarray:
        tc = np.minimum(np.maximum(t, -1.0), 1.0)
        # tc >= edges[0], so the panel index is never below 0
        idx = np.minimum(
            np.searchsorted(self.edges, tc, side="right") - 1, len(self.edges) - 2
        )
        left = self.edges[idx]
        h = tc - left
        mids = left + h / 2.0
        pts = mids[..., None] + (h[..., None] / 2.0) * self.nodes
        partial = (h / 2.0) * np.einsum("...k,k->...", _bump(pts), self.weights)
        return self.cum[idx] + partial


_INTEGRAL = _BumpIntegral()


class OddTransition:
    """phi: odd, -1 for t <= -1, +1 for t >= +1, with phi' >= 0 and phi''
    vanishing only at 0 inside (-1, 1)."""

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return -1.0 + 2.0 * _INTEGRAL(t) / _INTEGRAL.total

    def d1(self, t) -> np.ndarray:
        return 2.0 * _bump(t) / _INTEGRAL.total

    def d2(self, t) -> np.ndarray:
        return 2.0 * _bump_d1(t) / _INTEGRAL.total


class SmoothStep:
    """S: 0 for x <= 0, 1 for x >= 1, built from the same bump on (-1, 1)."""

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _INTEGRAL(2.0 * x - 1.0) / _INTEGRAL.total

    def d1(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * _bump(2.0 * x - 1.0) / _INTEGRAL.total

    def d2(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 4.0 * _bump_d1(2.0 * x - 1.0) / _INTEGRAL.total


class Plateau:
    """psi: 1 on [t0-delta, t0+delta], 0 outside [1+delta, 3-delta], smooth
    monotone transitions in between."""

    def __init__(self, t0: float, delta: float):
        self.t0 = t0
        self.delta = delta
        self.rise_lo = 1.0 + delta
        self.rise_hi = t0 - delta
        self.fall_lo = t0 + delta
        self.fall_hi = 3.0 - delta
        self.step = SmoothStep()

    def _arg(self, t):
        """The step's argument (1 on the plateau and outside the support)
        with the masks of the rising and the falling piece."""
        t = np.asarray(t, dtype=float)
        rise = (t - self.rise_lo) / (self.rise_hi - self.rise_lo)
        fall = (self.fall_hi - t) / (self.fall_hi - self.fall_lo)
        lo = t < self.rise_hi
        hi = t > self.fall_lo
        return np.where(hi, fall, np.where(lo, rise, 1.0)), lo, hi

    def __call__(self, t) -> np.ndarray:
        # one step evaluation on the piecewise argument; S(1) is exactly 1
        return self.step(self._arg(t)[0])

    def _chain(self, lo, hi, k: int) -> np.ndarray:
        """The divisor that turns S^(k) of the step's argument into the k-th
        derivative in t: the k-th power of the piece's signed width (S^(k)(1)
        = 0 for k >= 1, so the plateau takes 1)."""
        wr = self.rise_hi - self.rise_lo
        wf = self.fall_hi - self.fall_lo
        if k == 1:
            return np.where(hi, -wf, np.where(lo, wr, 1.0))
        return np.where(hi, wf * wf, np.where(lo, wr * wr, 1.0))

    def d1(self, t) -> np.ndarray:
        x, lo, hi = self._arg(t)
        return self.step.d1(x) / self._chain(lo, hi, 1)

    def d2(self, t) -> np.ndarray:
        x, lo, hi = self._arg(t)
        return self.step.d2(x) / self._chain(lo, hi, 2)


@dataclass(eq=False)
class CutoffPair:
    """The pair (phi, psi) with the located root t0, plateau half-width
    delta, and the admissible perturbation amplitude epsilon (sized for a
    unit-sup perturbation h; rescale epsilon down for larger h)."""

    phi: OddTransition
    psi: Plateau
    t0: float
    delta: float
    epsilon: float
    margin: float  # min radial slope magnitude on the transition intervals

    def profile(self, t, order: int) -> tuple[list, list]:
        """The radial kernel: ([R, R', ...], [psi, psi', ...]) up to the
        given order (0, 1 or 2) at every t, with R the radial profile t^2 on
        t <= 1, -t^2 phi(t - 2) on 1 < t < 3 and -t^2 on t >= 3.

        phi (on the middle rows only) and psi share one bump integral and one
        bump evaluation (and one of the bump's derivative at order 2) on their
        concatenated arguments; every element is evaluated on its own, so
        the results equal phi's and psi's own methods bit for bit.
        """
        t = np.asarray(t, dtype=float)
        lo, hi = t <= 1.0, t >= 3.0
        mid = (t > 1.0) & (t < 3.0)
        tm = t[mid]
        n = len(tm)
        x, rise, fall = self.psi._arg(t)
        args = np.concatenate([tm - 2.0, 2.0 * x - 1.0])
        total = _INTEGRAL.total
        integral = _INTEGRAL(args)
        p = [-1.0 + 2.0 * integral[:n] / total]      # phi, phi', phi''
        psi = [integral[n:] / total]
        if order >= 1:
            b = _bump(args)
            p.append(2.0 * b[:n] / total)
            psi.append(2.0 * b[n:] / total / self.psi._chain(rise, fall, 1))
        if order >= 2:
            b = _bump_d1(args)
            p.append(2.0 * b[:n] / total)
            psi.append(4.0 * b[n:] / total / self.psi._chain(rise, fall, 2))
        R = [np.where(hi, -t * t, np.where(lo, t * t, 0.0))]
        R[0][mid] = -tm * tm * p[0]
        if order >= 1:
            R.append(np.where(hi, -2.0 * t, np.where(lo, 2.0 * t, 0.0)))
            R[1][mid] = -2 * tm * p[0] - tm * tm * p[1]
        if order >= 2:
            R.append(np.where(hi, -2.0, np.where(lo, 2.0, 0.0)))
            R[2][mid] = -2 * p[0] - 4 * tm * p[1] - tm * tm * p[2]
        return R, psi


def _bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2.0


def find_t0(phi: OddTransition | None = None, tol: float = 1e-12) -> float:
    """The unique zero of 2 phi(t-2) + t phi'(t-2) in (1, 2)."""
    phi = phi or OddTransition()

    def g(t):
        return float(2.0 * phi(t - 2.0) + t * phi.d1(t - 2.0))

    return _bisect(g, 1.0 + 1e-9, 2.0, tol)


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
    phi = OddTransition()
    t0 = find_t0(phi)
    if not (1.0 + delta < t0 - delta and t0 + delta < 3.0 - delta):
        raise DeltaTooLarge(
            f"delta={delta} does not fit: t0={t0:.6f} needs "
            f"delta < {min((t0 - 1) / 2, (3 - t0) / 2):.6f}"
        )
    psi = Plateau(t0, delta)
    cut = CutoffPair(phi=phi, psi=psi, t0=t0, delta=delta, epsilon=0.0, margin=0.0)
    # one kernel call on both transition intervals
    t = np.concatenate([np.linspace(psi.rise_lo, psi.rise_hi, 4001),
                        np.linspace(psi.fall_lo, psi.fall_hi, 4001)])
    margin = float(np.min(np.abs(cut.profile(t, 1)[0][1])))
    sup_dpsi = float(np.max(np.abs(psi.d1(np.linspace(1.0, 3.0, 8001)))))
    if margin <= 0 or sup_dpsi <= 0:
        raise AssertionError("degenerate cutoff data")
    cut.margin = margin
    cut.epsilon = 0.5 * margin / sup_dpsi
    return cut
