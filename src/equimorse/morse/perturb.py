"""The stable-perturbation construction and its surgery into fixtures.

The model on V + W + U is

    F(v, w, u) = |v|^2 - |w|^2 - |u|^2 phi(|u| - 2) + eps psi(|u|) h(u/|u|)

whose critical set is exactly the origin (with Hessian positive definite on
V + U) together with one point t0*u on the plateau radius for each critical
point u of h on the unit sphere.  Splicing the model into a Morse chart at
an unstable critical point replaces it by stable critical points without
touching the function outside the chart ball.

Sphere functions h are homogeneous polynomials divided by the matching power
of the radius, so their gradients and Hessians are closed-form.  Like every
Morse-layer function, the model, the sphere functions, the charts and the
surgered function take (m x n) batches of points and have no scalar forms;
a single point is a batch of one.  Their per-row contractions are einsums rather than BLAS products,
so a row's result does not depend on the rows beside it.  Each function
evaluates its value and gradient in one body (value_grad_many); the model
reads phi, psi and their derivatives from the one radial kernel,
CutoffPair.profile.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np

from ..errors import InputError
from ..polynomials import LinearAction, Polynomial
from .critical import (
    CriticalPoint,
    classify,
    find_critical_points,
    seed_grid,
)
from .cutoffs import CutoffPair
from .manifolds import EqFunction, ImplicitGManifold, PolyTable

__all__ = [
    "AngleChart",
    "ChartMissing",
    "EpsilonTooLarge",
    "HNotEquivariant",
    "LinearChart",
    "PerturbedModel",
    "SphereFunction",
    "localize_surgery",
    "stable_perturb",
]

log = logging.getLogger(__name__)


class HNotEquivariant(ValueError):
    """The sphere function is not equivariant for the stabilizer action."""


class EpsilonTooLarge(ValueError):
    """Spurious critical points appeared in the transition annuli."""


class ChartMissing(InputError):
    """Surgery needs an exact Morse chart from the fixture."""


class SphereFunction(EqFunction):
    """h(u) = P(u) / |u|^deg for a homogeneous polynomial P: the degree-zero
    homogeneous extension of a smooth function on the unit sphere.  P is
    differentiated exactly and rounded once, into its tables."""

    def __init__(self, poly: Polynomial):
        degs = {sum(e) for e in poly.num} or {0}
        if len(degs) != 1:
            raise ValueError("sphere function needs a homogeneous polynomial")
        self.poly = poly
        self.deg = degs.pop()
        self.dim = self.nvars = poly.nvars
        self.name = "sphere"
        grads = [self.poly.derivative(i) for i in range(self.dim)]
        # P with its gradient in one table, its Hessian in a second
        self._first = PolyTable([self.poly] + grads, self.dim)
        self._second = PolyTable(
            [g.derivative(j) for g in grads for j in range(self.dim)], self.dim
        )

    @classmethod
    def constant(cls, dim: int, c: float = 1.0) -> "SphereFunction":
        return cls(Polynomial.constant(dim, c))

    @classmethod
    def cos_multiple_angle(cls, k: int) -> "SphereFunction":
        """cos(k theta) on the unit circle: the real part of (x + i y)^k."""
        terms = {}
        sign = 1
        for j in range(0, k + 1, 2):
            from math import comb

            terms[(k - j, j)] = sign * comb(k, j)
            sign = -sign
        return cls(Polynomial(2, terms))

    def value_grad_many(self, U):
        U = np.asarray(U, dtype=float)
        t = np.linalg.norm(U, axis=1)
        m = self.deg
        PG = self._first(U)
        P, gP = PG[:, 0], PG[:, 1:]
        return (P / t**m,
                gP / t[:, None] ** m - m * (P / t ** (m + 2))[:, None] * U)

    def hess_many(self, U) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        t = np.linalg.norm(U, axis=1)[:, None, None]
        m = self.deg
        PG = self._first(U)
        P, gP = PG[:, 0, None, None], PG[:, 1:]
        HP = self._second(U).reshape(len(U), self.dim, self.dim)
        gu = gP[:, :, None] * U[:, None, :]
        uu = U[:, :, None] * U[:, None, :]
        return (
            HP / t**m
            - m / t ** (m + 2) * (gu + gu.transpose(0, 2, 1) + P * np.eye(self.dim))
            + m * (m + 2) * P / t ** (m + 4) * uu
        )

    def equivariance_error(self, act: LinearAction, samples: int = 64) -> float:
        """max |h(A_s u) - h(u)| over random sphere samples."""
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(samples, self.dim))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        worst = 0.0
        for s in act.group.elements():
            A = np.array([[float(v) for v in row] for row in act.matrices[s]])
            moved = pts @ A.T
            worst = max(
                worst,
                float(np.max(np.abs(self.value_many(moved) - self.value_many(pts)))),
            )
        return worst

    def sphere_critical_points(self, tol: float = 1e-12):
        """Critical points of h on the unit sphere with their sphere-Hessian
        index; supported for dim <= 2."""
        if self.dim == 1:
            return [
                (np.array([1.0]), 0, True),
                (np.array([-1.0]), 0, True),
            ]
        if self.dim == 2:
            thetas = np.linspace(0.0, 2 * np.pi, 1441, endpoint=False)
            pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
            tang = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1)
            dq = np.einsum("mi,mi->m", self.grad_many(pts), tang)
            roots = []
            nt = len(thetas)
            for i in range(nt):
                a, b = thetas[i], thetas[(i + 1) % nt] + (2 * np.pi if i + 1 == nt else 0)
                fa, fb = dq[i], dq[(i + 1) % nt]
                if fa == 0.0:
                    roots.append(a)
                    continue
                if fa * fb < 0:
                    lo, hi, flo = a, b, fa

                    def qprime(th):
                        u = np.array([np.cos(th), np.sin(th)])
                        tv = np.array([-np.sin(th), np.cos(th)])
                        return float(self.grad_many(u[None, :])[0] @ tv)

                    while hi - lo > tol:
                        mid = (lo + hi) / 2
                        fm = qprime(mid)
                        if flo * fm <= 0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    roots.append((lo + hi) / 2)
            out = []
            for th in roots:
                u = np.array([np.cos(th), np.sin(th)])
                tv = np.array([-np.sin(th), np.cos(th)])
                g = self.grad_many(u[None, :])[0]
                q2 = float(tv @ self.hess_many(u[None, :])[0] @ tv - g @ u)
                # on the unit circle q''(theta) = t^T H t - u . grad
                nondeg = abs(q2) > 1e-8
                out.append((u, 1 if q2 < 0 else 0, nondeg))
            return out
        raise ValueError("sphere critical points supported for dim <= 2 only")


class PerturbedModel(EqFunction):
    """The construction as an EqFunction on R^(dv+dw+du), with the block
    action and the predicted critical data attached."""

    def __init__(self, actV: LinearAction, actW: LinearAction,
                 actU: LinearAction, h: SphereFunction | None,
                 cut: CutoffPair, eps: float):
        if not (actV.group.mul == actW.group.mul == actU.group.mul):
            raise ValueError("the three representations must share the group")
        self.dv, self.dw, self.du = actV.dim, actW.dim, actU.dim
        self.cut = cut
        self.eps = float(eps)
        self.h = h
        if self.du and h is not None and h.dim != self.du:
            raise ValueError("sphere function dimension mismatch")
        parts = [a for a in (actV, actW, actU) if a.dim]
        self.action = (
            LinearAction.block_sum(parts) if parts
            else LinearAction.trivial(actV.group, 0)
        )
        self.nvars = self.dv + self.dw + self.du
        self.name = "perturbed-model"

    # -- coordinate splitting --

    def _split_n(self, X):
        dv, dw = self.dv, self.dw
        return X[:, :dv], X[:, dv:dv + dw], X[:, dv + dw:]

    # -- evaluation --

    def value_grad_many(self, X):
        X = np.asarray(X, dtype=float)
        v, w, u = self._split_n(X)
        out = np.einsum("mi,mi->m", v, v) - np.einsum("mi,mi->m", w, w)
        g = np.concatenate([2.0 * v, -2.0 * w, np.zeros_like(u)], axis=1)
        if self.du:
            t = np.linalg.norm(u, axis=1)
            (R, R1), (psi, dpsi) = self.cut.profile(t, 1)
            out = out + R
            gu = np.zeros_like(u)
            safe = t > 0
            uhat = np.zeros_like(u)
            uhat[safe] = u[safe] / t[safe, None]
            gu += R1[:, None] * uhat
            # at t = 0 the profile is +t^2, gradient 2u = 0: consistent
            if self.h is not None and self.eps:
                on = (psi > 0.0) | (dpsi != 0.0)
                if np.any(on):
                    hval = np.zeros_like(t)
                    hgrad = np.zeros_like(u)
                    hval[on], hgrad[on] = self.h.value_grad_many(u[on])
                    out = out + self.eps * psi * hval
                    gu += self.eps * (
                        (dpsi * hval)[:, None] * uhat + psi[:, None] * hgrad
                    )
            g[:, self.dv + self.dw:] = g[:, self.dv + self.dw:] + gu
        return out, g

    def hess_many(self, X):
        X = np.asarray(X, dtype=float)
        dv, dw, du = self.dv, self.dw, self.du
        H = np.zeros((len(X), dv + dw + du, dv + dw + du))
        H[:, :dv, :dv] = 2.0 * np.eye(dv)
        H[:, dv:dv + dw, dv:dv + dw] = -2.0 * np.eye(dw)
        if du:
            u = X[:, dv + dw:]
            t = np.linalg.norm(u, axis=1)
            # at t = 0 the profile is +t^2, Hessian 2I
            Hu = np.tile(2.0 * np.eye(du), (len(X), 1, 1))
            nz = np.flatnonzero(t > 0.0)
            if len(nz):
                u, t = u[nz], t[nz]
                uhat = u / t[:, None]
                Pu = uhat[:, :, None] * uhat[:, None, :]
                Pt = np.eye(du) - Pu
                (_, R1, R2), (psi, d1, d2) = self.cut.profile(t, 2)
                Hn = R2[:, None, None] * Pu + (R1 / t)[:, None, None] * Pt
                if self.h is not None and self.eps:
                    on = (psi != 0.0) | (d1 != 0.0) | (d2 != 0.0)
                    if np.any(on):
                        uo = u[on]
                        hv, hg = self.h.value_grad_many(uo)
                        hv = hv[:, None, None]
                        hh = self.h.hess_many(uo)
                        uh = uhat[on]
                        p0, p1, p2 = (a[on][:, None, None] for a in (psi, d1, d2))
                        cross = uh[:, :, None] * hg[:, None, :]
                        Hn[on] += self.eps * (
                            p2 * hv * Pu[on]
                            + p1 * (cross + cross.transpose(0, 2, 1))
                            + p1 * hv * Pt[on] / t[on][:, None, None]
                            + p0 * hh
                        )
                Hu[nz] = Hn
            H[:, dv + dw:, dv + dw:] = Hu
        return H

    # -- predictions --

    def predicted_critical_points(self) -> list[np.ndarray]:
        """Origin plus t0*u for each sphere-critical u of h."""
        n = self.nvars
        out = [np.zeros(n)]
        if self.du and self.h is not None:
            for u, _, _ in self.h.sphere_critical_points():
                x = np.zeros(n)
                x[self.dv + self.dw:] = self.cut.t0 * u
                out.append(x)
        return out


# seed-grid points per axis when stable_perturb searches a model space of
# dimension at most 2 (5 per axis above that)
GRID_N = 9


def _build_model(actV: LinearAction, actW: LinearAction, actU: LinearAction,
                 h: SphereFunction | None, cut: CutoffPair) -> PerturbedModel:
    """The model, with h checked for equivariance under the U-representation
    (by sampling) and epsilon rescaled by the sampled sup of |h|.  h defaults
    to the constant 1 when U is nonzero."""
    du = actU.dim
    if not du:
        return PerturbedModel(actV, actW, actU, None, cut, 0.0)
    if h is None:
        h = SphereFunction.constant(du)
    err = h.equivariance_error(actU)
    if err > 1e-9:
        raise HNotEquivariant(f"sphere function moves by {err:.2e}")
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(256, du))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    h_sup = float(np.max(np.abs(h.value_many(pts))))
    return PerturbedModel(actV, actW, actU, h, cut,
                          cut.epsilon / max(h_sup, 1e-12))


def stable_perturb(actV: LinearAction, actW: LinearAction, actU: LinearAction,
                   h: SphereFunction | None, cut: CutoffPair,
                   ) -> tuple[PerturbedModel, list[CriticalPoint]]:
    """Build the model and verify its predicted critical set.

    h must be equivariant for the U-representation (checked by sampling).
    epsilon is rescaled by the sampled sup of |h|.  Every predicted point is
    classified, and the critical set is searched from the predicted points
    and a seed grid; unexpected points inside the transition annuli raise
    EpsilonTooLarge.
    """
    model = _build_model(actV, actW, actU, h, cut)
    n = model.nvars
    manifold = ImplicitGManifold(
        ambient=n, constraints=(), action=model.action, name="model-space"
    )

    predicted = model.predicted_critical_points()
    classified = [classify(model, manifold, p) for p in predicted]
    seeds = list(predicted)
    if n:
        seeds.extend(seed_grid([(-3.4, 3.4)] * n, GRID_N if n <= 2 else 5))
    found = find_critical_points(model, manifold, np.array(seeds))
    for x in found:
        if all(np.linalg.norm(x - q) > 1e-5 for q in predicted):
            u = x[model.dv + model.dw:]
            t = float(np.linalg.norm(u))
            d = cut.delta
            in_annuli = (1.0 < t < cut.t0 - d) or (cut.t0 + d < t < 3.0) or t >= 3.0
            if in_annuli:
                raise EpsilonTooLarge(
                    f"spurious critical point at |u| = {t:.6f}"
                )
            raise AssertionError(
                f"construction property violated: extra critical point {x}"
            )
    return model, classified


# -- Morse charts -------------------------------------------------------------


class LinearChart:
    """Affine isometric chart y = Q^T (x - p) on a flat ambient manifold, with
    f(x) = f(p) + |v|^2 - |w|^2 exactly in these coordinates."""

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

    @property
    def dim(self) -> int:
        return self.dv + self.dw

    def coords_many(self, X) -> np.ndarray:
        return np.einsum("mn,nk->mk", np.asarray(X, dtype=float) - self.center,
                         self.frame)

    def jac_many(self, X) -> np.ndarray:
        """dy/dx at each row, shape (m, dim, ambient)."""
        return np.broadcast_to(self.frame.T, (len(X),) + self.frame.T.shape)

    def hess_coords_many(self, X) -> np.ndarray:
        """d2 y_k / dx^2 at each row, shape (m, dim, ambient, ambient): zero."""
        N = len(self.center)
        return np.zeros((len(X), self.dim, N, N))

    def model_error(self, f: EqFunction, fp: float, samples: int = 64,
                    radius: float = 0.5) -> float:
        """max |f - (fp + |v|^2 - |w|^2)| over sampled chart coordinates."""
        rng = np.random.default_rng(11)
        Y = rng.uniform(-radius, radius, size=(samples, self.dim))
        X = self.center + Y @ self.frame.T
        vals = f.value_many(X)
        model = (
            np.sum(Y[:, :self.dv] ** 2, axis=1)
            - np.sum(Y[:, self.dv:] ** 2, axis=1)
        )
        return float(np.max(np.abs(vals - (fp + model))))


class AngleChart:
    """Exact Morse chart at a pole of the unit circle for a height function:
    with u the angle from the pole, the coordinate y = sqrt(2) sin(u/2)
    turns f = cos(u) + const into f(p) - y^2 exactly.  dv = 0, dw = 1."""

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

    def _angle(self, x):
        x = np.asarray(x, dtype=float)
        th = np.arctan2(x[..., 1], x[..., 0]) - self.pole_angle
        return (th + np.pi) % (2 * np.pi) - np.pi

    def coords_many(self, X) -> np.ndarray:
        u = self._angle(X)
        return (np.sqrt(2.0) * np.sin(u / 2.0))[:, None]

    def jac_many(self, X) -> np.ndarray:
        """dy/dx at each row, shape (m, 1, 2)."""
        X = np.asarray(X, dtype=float)
        r2 = np.einsum("mi,mi->m", X, X)
        grad_u = np.stack([-X[:, 1], X[:, 0]], axis=1) / r2[:, None]
        dy_du = np.sqrt(2.0) * 0.5 * np.cos(self._angle(X) / 2.0)
        return (dy_du[:, None] * grad_u)[:, None, :]

    def hess_coords_many(self, X) -> np.ndarray:
        """d2y/dx2 at each row, shape (m, 1, 2, 2)."""
        X = np.asarray(X, dtype=float)
        x0, x1 = X[:, 0], X[:, 1]
        r2 = x0 * x0 + x1 * x1
        u = self._angle(X)
        grad_u = np.stack([-x1, x0], axis=1) / r2[:, None]
        off = x1**2 - x0**2
        hess_u = np.stack(
            [np.stack([2 * x0 * x1, off], axis=1),
             np.stack([off, -2 * x0 * x1], axis=1)], axis=1
        ) / (r2 * r2)[:, None, None]
        dy = np.sqrt(2.0) * 0.5 * np.cos(u / 2.0)
        d2y = -np.sqrt(2.0) * 0.25 * np.sin(u / 2.0)
        out = (d2y[:, None, None] * grad_u[:, :, None] * grad_u[:, None, :]
               + dy[:, None, None] * hess_u)
        return out[:, None, :, :]

    def model_error(self, f: EqFunction, fp: float, samples: int = 64,
                    radius: float = 0.5) -> float:
        """max |f - (fp - y^2)| over sampled coordinates y, each mapped back
        to the circle by the angle u = 2 arcsin(y / sqrt(2)) from the pole."""
        rng = np.random.default_rng(11)
        y = rng.uniform(-radius, radius, size=samples)
        th = self.pole_angle + 2.0 * np.arcsin(y / np.sqrt(2.0))
        X = np.stack([np.cos(th), np.sin(th)], axis=1)
        return float(np.max(np.abs(f.value_many(X) - (fp - y * y))))


class SurgeredFunction(EqFunction):
    """f with the model spliced into the chart (and its orbit translates).

    A point inside several modified cylinders takes the first chart in the
    list that contains it, for the value, gradient and Hessian alike.
    """

    def __init__(self, f: EqFunction, charts, model: PerturbedModel,
                 scale: float, fp: float, split_frames):
        # charts: one chart per orbit point, each with coords_many, jac_many
        # and hess_coords_many; split_frames: (model_dim x dim_chart) mapping
        # chart coords to the model's (v, w, u) ordering
        self.f0 = f
        self.charts = charts
        self.model = model
        self.scale = float(scale)
        self.fp = float(fp)
        self.split = np.asarray(split_frames, dtype=float)
        self.c0_distance = 0.0
        self.nvars = f.nvars
        self.name = "surgered"

    def _chart_rows(self, X):
        """(chart, rows, model coordinates / scale) per chart, each row of X
        inside a modified cylinder going to the first chart that has it."""
        out = []
        if not self.model.du:
            return out
        k = self.model.dv + self.model.dw
        free = np.ones(len(X), dtype=bool)
        for chart in self.charts:
            Y = np.einsum("mc,kc->mk", chart.coords_many(X), self.split)
            rows = np.flatnonzero(
                free & (np.linalg.norm(Y[:, k:], axis=1) < 3.0 * self.scale)
            )
            if len(rows):
                free[rows] = False
                out.append((chart, rows, Y[rows] / self.scale))
        return out

    def value_grad_many(self, X):
        X = np.asarray(X, dtype=float)
        val, grad = self.f0.value_grad_many(X)
        s = self.scale
        for chart, rows, Z in self._chart_rows(X):
            mv, mg = self.model.value_grad_many(Z)
            val[rows] = self.fp + s * s * mv
            # s dF/dy (split dy/dx), with dF/dy at y/s
            gy = np.einsum("mk,kc->mc", mg, self.split)
            grad[rows] = s * np.einsum("mc,mcn->mn", gy, chart.jac_many(X[rows]))
        return val, grad

    def hess_many(self, X):
        X = np.asarray(X, dtype=float)
        out = self.f0.hess_many(X)
        for chart, rows, Z in self._chart_rows(X):
            Xr = X[rows]
            Jy = np.einsum("kc,mcn->mkn", self.split, chart.jac_many(Xr))
            gy = np.einsum("mk,kc->mc", self.model.grad_many(Z), self.split)
            out[rows] = (
                np.einsum("mki,mkl,mlj->mij", Jy, self.model.hess_many(Z), Jy)
                + self.scale * np.einsum("mc,mcij->mij", gy,
                                         chart.hess_coords_many(Xr))
            )
        return out


def _chart_action(chart, M: ImplicitGManifold, elements) -> list[np.ndarray]:
    """The action of each group element (fixing the chart's center) on the
    chart coordinates, to first order: J A J^+ with J the chart's Jacobian
    at its center."""
    J = chart.jac_many(chart.center[None, :])[0]
    J_pinv = np.linalg.pinv(J)
    return [J @ M.act_mats[s] @ J_pinv for s in elements]


def localize_surgery(f: EqFunction, M: ImplicitGManifold, p: CriticalPoint,
                     radius: float, cut: CutoffPair, chart=None,
                     h: SphereFunction | None = None) -> EqFunction:
    """Replace f near the orbit of an unstable critical point by the model.

    The chart must present f exactly as f(p) + |v|^2 - |w|^2 (checked by
    sampling); the model is spliced with U = the non-fixed directions of W,
    scaled so the modified cylinder sits inside the given radius.  Stable
    points pass through unchanged with a warning.
    """
    if p.stable:
        warnings.warn("localize_surgery called on a stable point: no-op")
        return f
    if chart is None:
        raise ChartMissing("surgery needs the fixture's Morse chart")

    coords = np.asarray(p.coords, dtype=float)
    fp = float(f.value_many(coords[None, :])[0])
    err = chart.model_error(f, fp)
    if err > 1e-9:
        raise ChartMissing(f"chart is not an exact Morse chart: error {err:.2e}")

    # split the chart's W block into fixed and prime parts under stab(p)
    H_sub = p.stabilizer
    dv, dw = chart.dv, chart.dw
    dim = dv + dw

    mats = _chart_action(chart, M, H_sub.elements)
    avg = sum(mats) / len(mats)
    Wavg = avg[dv:, dv:]
    evals, evecs = np.linalg.eigh((Wavg + Wavg.T) / 2)
    keep = evecs[:, evals > 0.5]     # fixed: stays W
    prime = evecs[:, evals <= 0.5]   # becomes U
    dw_keep = keep.shape[1]
    du = prime.shape[1]
    if du == 0:
        raise ValueError("no prime directions in W: the point is stable")
    if du >= 2 and h is None:
        raise ValueError("surgery with dim U >= 2 needs an explicit sphere function")

    # model-space ordering (v, w_keep, u); split matrix maps chart coords to it
    split = np.zeros((dim, dim))
    split[:dv, :dv] = np.eye(dv)
    if dw_keep:
        split[dv:dv + dw_keep, dv:] = keep.T
    split[dv + dw_keep:, dv:] = prime.T

    Hg = H_sub.as_group()
    sub_mats = [split @ B @ split.T for B in mats]

    def block(lo, hi):
        return LinearAction(
            Hg,
            [tuple(tuple(float(B[i][j]) for j in range(lo, hi))
                   for i in range(lo, hi)) for B in sub_mats],
        ) if hi > lo else LinearAction.trivial(Hg, 0)

    actV = block(0, dv)
    actW = block(dv, dv + dw_keep)
    actU = block(dv + dw_keep, dim)

    scale = radius / 3.5
    model = _build_model(actV, actW, actU, h, cut)

    # orbit translates of the chart
    charts = [chart]
    for s, q in M.action.orbit(tuple(coords)):
        qa = np.array([float(v) for v in q])
        if np.linalg.norm(qa - coords) < 1e-9:
            continue
        if not isinstance(chart, LinearChart):
            raise ChartMissing("orbit surgery with angle charts is limited "
                               "to fixed poles")
        A = M.act_mats[s]
        charts.append(LinearChart(A @ chart.center, A @ chart.frame,
                                  chart.dv, chart.dw))

    out = SurgeredFunction(f, charts, model, scale, fp, split)

    # reported C0 distance: sup over the modified cylinder of the change
    ts = np.linspace(0.0, 3.0, 601)
    base = -ts * ts
    h_sup = 0.0
    if model.h is not None:
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(128, model.du))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        h_sup = float(np.max(np.abs(model.h.value_many(pts))))
    (R,), (psi,) = cut.profile(ts, 0)
    changed = R + model.eps * psi * h_sup
    out.c0_distance = float(scale * scale * np.max(np.abs(changed - base)))
    log.info("surgery at %s: C0 distance <= %.3e", np.round(p.coords, 4),
             out.c0_distance)
    return out
