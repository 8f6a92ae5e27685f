"""The stable-perturbation construction and its surgery into fixtures.

The model on V + W + U is

    F(v, w, u) = |v|^2 - |w|^2 - |u|^2 phi(|u| - 2) + eps psi(|u|) h(u/|u|)

whose critical set is exactly the origin (with Hessian positive definite on
V + U) together with one point t0*u on the plateau radius for each critical
point u of h on the unit sphere.  Splicing the model, scaled by s, into a
Morse chart at an unstable critical point and into its orbit translates
replaces the point by stable critical points.  The splice changes the
function only on the cylinders |u| < 3s, which are unbounded in v and in
the fixed part of w; a chart whose cylinder holds another point of the
orbit is refused.

Sphere functions h are homogeneous polynomials P divided by the matching
power of the radius, so their derivatives are closed-form.  One seeded
sample of the unit sphere gives the sup of |h|, which sizes eps and bounds
the C0 distance of the surgery.  The model, the sphere functions, the
charts and the surgered function take (m x n) batches of points (a single
point is a batch of one) through one evaluation, jet_many(X, order), whose
one body returns the value (coordinates for a chart) with its derivatives
up to the order.  Per-row contractions are einsums rather than BLAS
products, so a row's result does not depend on the rows beside it.
"""

from __future__ import annotations

import functools
import logging
import warnings
from math import comb

import numpy as np

from ..errors import InputError
from ..groups import left_cosets
from ..polynomials import LinearAction, Polynomial
from .critical import CriticalPoint
from .cutoffs import CutoffPair
from .manifolds import EqFunction, ImplicitGManifold, OrthogonalAction, check_order

__all__ = [
    "AngleChart",
    "ChartMissing",
    "HNotEquivariant",
    "LinearChart",
    "PerturbedModel",
    "SphereFunction",
    "localize_surgery",
]

log = logging.getLogger(__name__)

# PerturbedModel checks h's equivariance at this many seeded sphere points
EQUIVARIANCE_SAMPLES = 64
# model_error samples this many chart coordinate points in the box of
# half-width 3s, whose u-section covers the cylinders |u| < 3s that the
# splice changes
MODEL_SAMPLES = 64


class HNotEquivariant(InputError):
    """The sphere function is not equivariant for the stabilizer action."""


class ChartMissing(InputError):
    """Surgery needs an exact Morse chart from the fixture, and a sphere
    function where U has dimension 2 or more."""


def _squares(A: np.ndarray) -> np.ndarray:
    """|row|^2 for each row of A, summed as np.linalg.norm sums it."""
    return np.add.reduce(A * A, axis=1)


@functools.lru_cache(maxsize=None)
def _sphere_samples(seed: int, count: int, dim: int) -> np.ndarray:
    """count seeded random points on the unit sphere of R^dim, drawn once
    per (seed, count, dim) and read-only."""
    pts = np.random.default_rng(seed).normal(size=(count, dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts.flags.writeable = False
    return pts


class SphereFunction(EqFunction):
    """h(u) = P(u) / |u|^deg for a homogeneous polynomial P: the degree-zero
    homogeneous extension of a smooth function on the unit sphere.  P is
    EqFunction.from_polynomial(poly), differentiated exactly and rounded
    once, into its tables."""

    def __init__(self, poly: Polynomial):
        degs = {sum(e) for e in poly.num} or {0}
        if len(degs) != 1:
            raise ValueError("sphere function needs a homogeneous polynomial")
        self.P = EqFunction.from_polynomial(poly)
        self.deg = degs.pop()
        self.dim = self.nvars = poly.nvars
        self.name = "sphere"

    @classmethod
    def constant(cls, dim: int, c: float = 1.0) -> "SphereFunction":
        return cls(Polynomial.constant(dim, c))

    @classmethod
    def cos_multiple_angle(cls, k: int) -> "SphereFunction":
        """cos(k theta) on the unit circle: the real part of (x + i y)^k."""
        return cls(Polynomial(2, {(k - j, j): (-1) ** (j // 2) * comb(k, j)
                                  for j in range(0, k + 1, 2)}))

    def jet_many(self, U, order: int) -> list:
        check_order(order)
        U = np.asarray(U, dtype=float)
        return self._jet(U, np.sqrt(_squares(U)), order)

    def _jet(self, U: np.ndarray, t: np.ndarray, order: int) -> list:
        """jet_many at the rows of U, whose norms are t."""
        m = self.deg
        P = self.P.jet_many(U, order)
        tm = t**m
        jet = [P[0] / tm]
        if order >= 1:
            tm2 = t ** (m + 2)
            jet.append(P[1] / tm[:, None] - (m * (P[0] / tm2))[:, None] * U)
        if order == 2:
            p = P[0][:, None, None]
            gu = P[1][:, :, None] * U[:, None, :]
            gu += gu.transpose(0, 2, 1)
            gu += p * np.eye(self.dim)
            uu = U[:, :, None] * U[:, None, :]
            jet.append(
                P[2] / tm[:, None, None]
                - (m / tm2)[:, None, None] * gu
                + (m * (m + 2) * P[0] / t ** (m + 4))[:, None, None] * uu
            )
        return jet


class PerturbedModel(EqFunction):
    """The construction as an EqFunction on R^(dv+dw+du), for the
    stabilizer acting on U by actU.

    h defaults to the constant 1 where dim U = 1 only: on a sphere of
    dimension 1 or more a constant has a whole sphere of critical points,
    so dim U >= 2 without h raises ChartMissing.  h must be equivariant
    under actU (checked by sampling), and eps is the cutoffs' epsilon over
    h_sup, the sampled sup of |h|; without U there is no h, and eps and
    h_sup are 0.

    jet_many computes every term on every row from one radial-kernel call,
    with h's jet only where psi or a derivative taken is nonzero (0
    elsewhere; read directly when that is every row), the norms t = |u|
    handed on to h, quotients by t read at 1 where t = 0, and the empty V
    and W blocks left out."""

    def __init__(self, dv: int, dw: int, actU: OrthogonalAction | LinearAction,
                 h: SphereFunction | None, cut: CutoffPair):
        du = actU.dim
        self.dv, self.dw, self.du = dv, dw, du
        self.cut = cut
        self.h, self.eps, self.h_sup = None, 0.0, 0.0
        self.nvars = dv + dw + du
        self.name = "perturbed-model"
        if not du:
            return
        if h is None and du >= 2:
            raise ChartMissing(
                "surgery with dim U >= 2 needs an explicit sphere function")
        if h is None:
            h = SphereFunction.constant(du)
        if h.dim != du:
            raise ValueError("sphere function dimension mismatch")
        err = h.invariance_error(
            actU, _sphere_samples(7, EQUIVARIANCE_SAMPLES, du))
        if err > 1e-9:
            raise HNotEquivariant(f"sphere function moves by {err:.2e}")
        self.h = h
        self.h_sup = float(np.max(np.abs(
            h.value_many(_sphere_samples(3, 256, du)))))
        self.eps = cut.epsilon / max(self.h_sup, 1e-12)

    def jet_many(self, X, order: int) -> list:
        check_order(order)
        X = np.asarray(X, dtype=float)
        dv, k, du = self.dv, self.dv + self.dw, self.du
        u = X[:, k:]
        t = np.sqrt(_squares(u))
        R, psi = self.cut.profile(t, order)
        h = self._h_jet(u, t, psi, order)
        eps = self.eps
        # |v|^2 - |w|^2 with an empty block left out: 0.0 + R is R's bits
        quad = _squares(X[:, :dv]) if dv else 0.0
        if self.dw:
            quad = quad - _squares(X[:, dv:k])
        jet = [quad + R[0] + eps * psi[0] * h[0]]
        if order >= 1:
            ts = np.where(t > 0.0, t, 1.0)
            uhat = u / ts[:, None]
            ph = psi[1] * h[0]
            gu = R[1][:, None] * uhat + eps * (
                ph[:, None] * uhat + psi[0][:, None] * h[1])
            jet.append(np.concatenate([2.0 * X[:, :dv], -2.0 * X[:, dv:k], gu],
                                      axis=1) if k else gu)
        if order == 2:
            Pu = uhat[:, :, None] * uhat[:, None, :]
            Pt = np.eye(du) - Pu
            # R'/t tends to R''(0) = 2 at t = 0, where Pu = 0: the Hessian 2I
            q = np.where(t > 0.0, R[1] / ts, 2.0)
            cross = uhat[:, :, None] * h[1][:, None, :]
            cross += cross.transpose(0, 2, 1)
            cross *= psi[1][:, None, None]
            cross += (psi[2] * h[0])[:, None, None] * Pu
            Hu = R[2][:, None, None] * Pu + q[:, None, None] * Pt + eps * (
                cross + ph[:, None, None] * Pt / ts[:, None, None]
                + psi[0][:, None, None] * h[2])
            if k:
                H = np.zeros((len(X), k + du, k + du))
                H[:, :dv, :dv] = 2.0 * np.eye(dv)
                H[:, dv:k, dv:k] = -2.0 * np.eye(self.dw)
                H[:, k:, k:] = Hu
                Hu = H
            jet.append(Hu)
        return jet

    def _h_jet(self, u, t, psi, order: int) -> list:
        """h's jet at the rows where psi or a derivative taken is nonzero,
        and 0 at the others: read directly when that is every row."""
        on = np.logical_or.reduce(psi)
        if len(u) and np.count_nonzero(on) == len(u):
            return self.h._jet(u, t, order)
        h = [np.zeros((len(u),) + (self.du,) * j) for j in range(order + 1)]
        rows = on.nonzero()[0]
        if len(rows):
            for a, b in zip(h, self.h._jet(u[rows], t[rows], order)):
                a[rows] = b
        return h


# -- Morse charts -------------------------------------------------------------

SQRT2 = np.sqrt(2.0)
# (x1, x0) * _TURN = (-x1, x0), the direction of increasing angle
_TURN = np.array([-1.0, 1.0])


class LinearChart:
    """Affine isometric chart y = Q^T (x - p) on a flat ambient manifold, with
    f(x) = f(p) + |v|^2 - |w|^2 exactly in these coordinates.  Being
    affine, it has one Jacobian Q^T for every point (jacobian, (dim,
    ambient)) and no second derivative."""

    affine = True

    def __init__(self, center, frame, dv: int, dw: int):
        self.center = np.asarray(center, dtype=float)
        self.frame = np.asarray(frame, dtype=float)
        self.dv = dv
        self.dw = dw
        if self.frame.shape != (len(self.center), dv + dw):
            raise ValueError("frame must be ambient x (dv + dw)")
        QtQ = self.frame.T @ self.frame
        if not np.allclose(QtQ, np.eye(dv + dw), atol=1e-12):
            raise ValueError("frame columns must be orthonormal")
        self.jacobian = np.ascontiguousarray(self.frame.T)

    @property
    def dim(self) -> int:
        return self.dv + self.dw

    def jet_many(self, X, order: int) -> list:
        """[y, dy/dx, d2y/dx2][:order + 1] at the rows of X, shapes (m,
        dim), (m, dim, ambient) and (m, dim, ambient, ambient): the
        coordinates, the frame and zero."""
        check_order(order)
        X = np.asarray(X, dtype=float)
        N = len(self.center)
        jet = [np.einsum("mn,nk->mk", X - self.center, self.frame)]
        if order >= 1:
            jet.append(self.jacobian[None].repeat(len(X), axis=0))
        if order == 2:
            jet.append(np.zeros((len(X), self.dim, N, N)))
        return jet

    def points_many(self, Y) -> np.ndarray:
        """The inverse: the points with chart coordinates the rows of Y."""
        return self.center + np.asarray(Y, dtype=float) @ self.frame.T


class AngleChart:
    """Exact Morse chart at a pole of the unit circle for a height function:
    with u the angle from the pole, the coordinate y = sqrt(2) sin(u/2)
    turns f = cos(u) + const into f(p) - y^2 exactly.  dv = 0, dw = 1."""

    affine = False

    def __init__(self, pole_angle: float):
        self.pole_angle = float(pole_angle)
        self.dv = 0
        self.dw = 1

    @property
    def dim(self) -> int:
        return 1

    @property
    def center(self) -> np.ndarray:
        return np.array([np.cos(self.pole_angle), np.sin(self.pole_angle)])

    def jet_many(self, X, order: int) -> list:
        """[y, dy/dx, d2y/dx2][:order + 1] at the rows of X, shapes (m, 1),
        (m, 1, 2) and (m, 1, 2, 2), through the angle u from the pole."""
        check_order(order)
        X = np.asarray(X, dtype=float)
        x0, x1 = X[:, 0], X[:, 1]
        u = np.arctan2(x1, x0)
        u -= self.pole_angle
        u += np.pi
        u %= 2 * np.pi
        u -= np.pi
        u /= 2.0
        sin_half = np.sin(u)
        jet = [(SQRT2 * sin_half)[:, None]]
        if order >= 1:
            r2 = _squares(X)
            # the gradient of the angle, (-x1, x0) / r2
            grad_u = X[:, ::-1] * _TURN
            grad_u /= r2[:, None]
            dy = SQRT2 * 0.5 * np.cos(u)
            jet.append((dy[:, None] * grad_u)[:, None, :])
        if order == 2:
            hess_u = np.empty((len(X), 2, 2))
            np.multiply(2 * x0, x1, out=hess_u[:, 0, 0])
            np.subtract(x1**2, x0**2, out=hess_u[:, 0, 1])
            hess_u[:, 1, 0] = hess_u[:, 0, 1]
            np.negative(hess_u[:, 0, 0], out=hess_u[:, 1, 1])
            hess_u /= (r2 * r2)[:, None, None]
            d2y = -SQRT2 * 0.25 * sin_half
            H = d2y[:, None, None] * grad_u[:, :, None] * grad_u[:, None, :]
            H += dy[:, None, None] * hess_u
            jet.append(H[:, None, :, :])
        return jet

    def points_many(self, Y) -> np.ndarray:
        """The inverse: the points at angle u = 2 arcsin(y / sqrt(2)) from
        the pole, for y the rows of Y."""
        th = self.pole_angle + 2.0 * np.arcsin(np.asarray(Y, dtype=float)[:, 0]
                                               / np.sqrt(2.0))
        return np.stack([np.cos(th), np.sin(th)], axis=1)


def model_error(chart, f: EqFunction, fp: float, half_width: float) -> float:
    """max |f - (fp + |v|^2 - |w|^2)| over MODEL_SAMPLES seeded chart
    coordinates in the box of the given half-width, mapped onto the
    manifold by the chart's points_many."""
    Y = np.random.default_rng(11).uniform(-half_width, half_width,
                                          size=(MODEL_SAMPLES, chart.dim))
    model = _squares(Y[:, :chart.dv]) - _squares(Y[:, chart.dv:])
    return float(np.max(np.abs(f.value_many(chart.points_many(Y)) - (fp + model))))


class SurgeredFunction(EqFunction):
    """f with the model spliced into the chart (and its orbit translates).

    The model's (v, w, u) coordinates are the chart's own.  A point inside
    several modified cylinders takes the first chart in the list that
    contains it, for the value, gradient and Hessian alike.  jet_many reads
    the model through each chart on the rows inside that chart's cylinder,
    and f itself only on the rows outside every one.  A batch that lies in
    one cylinder, or outside all, is returned as computed; only a mixed
    batch is scattered into full-batch arrays.
    """

    def __init__(self, f: EqFunction, charts, model: PerturbedModel,
                 scale: float, fp: float):
        # charts: one chart per orbit point, each with jet_many
        self.f0 = f
        self.charts = charts
        self.model = model
        self.scale = float(scale)
        self.fp = float(fp)
        self.c0_distance = 0.0
        self.nvars = f.nvars
        self.name = "surgered"

    def jet_many(self, X, order: int) -> list:
        check_order(order)
        X = np.asarray(X, dtype=float)
        k = self.model.dv + self.model.dw
        # (rows, jet) of each chart that takes rows, then of f on the rows
        # outside every cylinder; rows is None for the whole batch
        pieces = []
        left = None
        for chart in self.charts:
            Z = X if left is None else X[left]
            if chart.affine:
                (y,), dy = chart.jet_many(Z, 0), None
            else:
                y, *dy = chart.jet_many(Z, order)
            inside = np.sqrt(_squares(y[:, k:])) < 3.0 * self.scale
            taken = np.count_nonzero(inside)
            if taken == len(Z):
                pieces.append((left, self._spliced(chart, y, dy, order)))
                break
            if taken:
                rows = inside.nonzero()[0]
                pieces.append((rows if left is None else left[rows],
                               self._spliced(chart, y[rows],
                                             dy and [d[rows] for d in dy], order)))
                out = (~inside).nonzero()[0]
                left = out if left is None else left[out]
        else:
            pieces.append((left, self.f0.jet_many(
                X if left is None else X[left], order)))
        if pieces[0][0] is None:
            return pieces[0][1]
        m, n = X.shape
        jet = [np.empty((m,) + (n,) * j) for j in range(order + 1)]
        for rows, part in pieces:
            for a, b in zip(jet, part):
                a[rows] = b
        return jet

    def _spliced(self, chart, y, dy, order: int) -> list:
        """fp + s^2 F(y/s) and its x-derivatives at the rows whose chart
        coordinates are y, with dy the chart's [dy/dx, d2y/dx2] there (None
        for an affine chart, whose one Jacobian serves every row and whose
        second derivative is 0)."""
        s = self.scale
        F = self.model.jet_many(y / s, order)
        jet = [self.fp + s * s * F[0]]
        if order >= 1:
            # s dF/dy dy/dx, with dF/dy at y/s
            if chart.affine:
                J = chart.jacobian
                jet.append(s * np.einsum("mc,cn->mn", F[1], J))
            else:
                J = dy[0]
                jet.append(s * np.einsum("mc,mcn->mn", F[1], J))
        if order == 2:
            if chart.affine:
                jet.append(np.einsum("ki,mkl,lj->mij", J, F[2], J))
            else:
                jet.append(np.einsum("mki,mkl,mlj->mij", J, F[2], J)
                           + s * np.einsum("mc,mcij->mij", F[1], dy[1]))
        return jet


def _chart_action(chart, M: ImplicitGManifold, elements) -> list[np.ndarray]:
    """The action of each group element (fixing the chart's center) on the
    chart coordinates, to first order: J A J^+ with J the chart's Jacobian
    at its center."""
    J = chart.jet_many(chart.center[None, :], 1)[1][0]
    J_pinv = np.linalg.pinv(J)
    return [J @ M.action.matrices[s] @ J_pinv for s in elements]


def localize_surgery(f: EqFunction, M: ImplicitGManifold, p: CriticalPoint,
                     radius: float, cut: CutoffPair, chart=None,
                     h: SphereFunction | None = None) -> EqFunction:
    """Replace f near the orbit of an unstable critical point by the model.

    The model is spliced in the chart's own coordinates, at the scale s =
    radius / 3.5, into the cylinders |u| < 3s.  The chart must present f
    exactly as f(p) + |v|^2 - |w|^2 there (checked by sampling the box of
    half-width 3s), and its W block must list the stabilizer's fixed
    directions first: U is the rest of W, and h is read in U's
    coordinates.  The other orbit points are p's translates by the least
    element of each coset of p's stabilizer but its own, and one inside
    the chart's cylinder raises ChartMissing: the model would overwrite f
    there.  Stable points pass through unchanged with a warning.  The
    radius must be finite and > 0.
    """
    if not 0 < radius < np.inf:
        raise ValueError(f"surgery radius must be a finite number > 0, "
                         f"not {radius!r}")
    if p.stable:
        warnings.warn("localize_surgery called on a stable point: no-op")
        return f
    if chart is None:
        raise ChartMissing("surgery needs the fixture's Morse chart")

    coords = np.asarray(p.coords, dtype=float)
    fp = float(f.value_many(coords[None, :])[0])
    scale = radius / 3.5
    err = model_error(chart, f, fp, 3.0 * scale)
    if err > 1e-9:
        raise ChartMissing(f"chart is not an exact Morse chart: error {err:.2e}")

    # the chart's W block lists the stabilizer's fixed directions first and
    # U after them: the stabilizer's average on W is the projector onto its
    # fixed vectors, diag(I, 0), whose trace counts them
    H_sub = p.stabilizer
    dv, dw = chart.dv, chart.dw
    mats = _chart_action(chart, M, H_sub.elements)
    Wavg = sum(B[dv:, dv:] for B in mats) / len(mats)
    dw_keep = round(float(np.trace(Wavg)))
    fixed_first = np.diag((np.arange(dw) < dw_keep).astype(float))
    if np.max(np.abs(Wavg - fixed_first), initial=0.0) > 1e-9:
        raise ChartMissing("the chart's W block must list the stabilizer's "
                           "fixed directions first and the others after them")
    if dw_keep == dw:
        raise ValueError("no prime directions in W: the point is stable")

    # the stabilizer's action on U, the last du chart coordinates
    lo = dv + dw_keep
    actU = OrthogonalAction(H_sub.as_group(), [B[lo:, lo:] for B in mats])
    model = PerturbedModel(dv, dw_keep, actU, h, cut)

    # orbit translates of the chart.  The cylinder |u| < 3s is unbounded in
    # v and in the fixed part of w (ROADMAP item 18), so another orbit point
    # inside it would take the model's values instead of f's
    charts = [chart]
    for s, *_ in left_cosets(M.action.group, H_sub):
        if s in H_sub.elements:
            continue
        q = M.apply(s, coords)
        if not isinstance(chart, LinearChart):
            raise ChartMissing("orbit surgery with angle charts is limited "
                               "to fixed poles")
        (u,) = chart.jet_many(q[None, :], 0)
        if np.linalg.norm(u[0, lo:]) < 3.0 * scale:
            raise ChartMissing(
                f"the orbit point {np.round(q, 6).tolist()} lies in the "
                f"chart's modified cylinder |u| < 3s, which is unbounded in "
                f"v and in the fixed part of w (ROADMAP item 18)")
        A = M.action.matrices[s]
        charts.append(LinearChart(A @ chart.center, A @ chart.frame,
                                  chart.dv, chart.dw))

    out = SurgeredFunction(f, charts, model, scale, fp)

    # reported C0 distance: sup over the modified cylinder of the change,
    # with the model's sampled sup of |h|
    base, R, psi = cut.radial_samples
    changed = R + model.eps * psi * model.h_sup
    out.c0_distance = float(scale * scale * np.max(np.abs(changed - base)))
    log.info("surgery at %s: C0 distance <= %.3e", np.round(p.coords, 4),
             out.c0_distance)
    return out
