"""Critical points on implicit G-manifolds: Newton on the Lagrange (KKT)
system from all seeds at once, orbit closure, and stability classification.

The search is batched first.  One KKT Newton runs on an (s, N + c) array of
every seed's point and multipliers, with per-row masks for convergence,
non-finite values and the divergence bound, and one stacked solve per
iteration; the systems of a stack that holds a singular one are solved
again as one stack without it, and each singular one alone, by solve,
then least squares.  The closure under the group is one batched refinement
of every found point's translates.

The tolerances are module constants: gradient norm TOL_CRIT = 1e-9 for
criticality, Hessian eigenvalue floor TOL_NONDEG = 1e-6 for nondegeneracy,
DEDUP_TOL for coincident points, and the Newton residual NEWTON_TOL and
divergence bound NEWTON_BOUND.  The stabilizer is the manifold's
OrthogonalAction's, to manifolds.STAB_TOL.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..groups import Subgroup
from .manifolds import (EqFunction, Evaluator, ImplicitGManifold, tangent_frame,
                        tangent_part)

__all__ = [
    "CriticalPoint",
    "DegenerateHessian",
    "TOL_CRIT",
    "TOL_NONDEG",
    "DEDUP_TOL",
    "classify",
    "find_critical_points",
    "seed_grid",
]

log = logging.getLogger(__name__)

TOL_CRIT = 1e-9
TOL_NONDEG = 1e-6
DEDUP_TOL = 1e-6
NEWTON_TOL = 1e-12
NEWTON_BOUND = 1e6


class DegenerateHessian(InputError):
    """A Hessian eigenvalue sits inside the nondegeneracy floor."""


@dataclass(eq=False)
class CriticalPoint:
    """A classified critical point.

    hessian is the restricted Hessian in the orthonormal tangent frame
    tangent_basis; fixed_basis and prime_basis split the tangent space into
    the stabilizer-fixed part and its complement (the kernel of the
    averaging operator).  tangent_rep is the stabilizer's representation on
    the tangent space in that frame, T^T A_s T, one matrix per element of
    stabilizer.elements in that order.
    """

    coords: np.ndarray
    value: float
    stabilizer: Subgroup
    tangent_basis: np.ndarray
    hessian: np.ndarray
    index: int
    fixed_basis: np.ndarray
    prime_basis: np.ndarray
    stable: bool
    neg_basis: np.ndarray
    tangent_rep: tuple = ()

    def __repr__(self):
        return (f"CriticalPoint(at {np.round(self.coords, 6).tolist()}, "
                f"value={self.value:.6g}, index={self.index}, "
                f"stab order {self.stabilizer.order}, "
                f"{'stable' if self.stable else 'unstable'})")


def seed_grid(bounds, counts) -> np.ndarray:
    """Product grid over [lo, hi] per axis; counts may be one int."""
    if isinstance(counts, int):
        counts = [counts] * len(bounds)
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    pts = np.array(list(itertools.product(*axes)))
    return pts


def _solve_stack(K, b):
    """K[r] y[r] = b[r] for every row in one stacked solve.  If any system is
    singular the stack raises; then the rows whose determinant is neither 0
    nor NaN are solved again as one stack, where each system is solved as
    it would be alone, and only the others fall back row by row to solve,
    then least squares.  det factors K as solve does and meets the same
    exact zero pivot."""
    try:
        return np.linalg.solve(K, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        single = ~(np.linalg.det(K) != 0)
    out = np.empty_like(b)
    out[~single] = np.linalg.solve(K[~single], b[~single, :, None])[..., 0]
    for r in np.flatnonzero(single):
        try:
            out[r] = np.linalg.solve(K[r], b[r])
        except np.linalg.LinAlgError:
            out[r], *_ = np.linalg.lstsq(K[r], b[r], rcond=None)
    return out


def match_point(x, points):
    """The index of the first of points within DEDUP_TOL of x, or None: the
    one test of "same critical point"."""
    for j, y in enumerate(points):
        if np.linalg.norm(x - y) < DEDUP_TOL:
            return j
    return None


def _newton_kkt(f: EqFunction, M: ImplicitGManifold, X0, max_iter=60):
    """Newton on grad f = J^T lambda, F = 0 from every row of X0 at once.

    The iterate is an (s, N + c) array of points and multipliers.  Each
    iteration reads f and the constraints on the active rows from one
    order-2 call of M's Evaluator of f (ev.jet; for a polynomial f with
    constraints, one call of each joint table), which gives both the
    residual and the KKT matrix with its Lagrangian Hessian H - lambda . CH.
    It retires the rows whose residual norm is below NEWTON_TOL and takes
    one stacked KKT step on the rest.  A row is dropped as divergent when
    its residual is not finite or its step leaves the finite numbers or the
    ball of radius NEWTON_BOUND.  The multipliers start at the
    least-squares solution of J^T lambda = grad f, from iteration 0's own
    evaluation: one stacked solve of the Gram system J J^T lambda = J grad
    f on every row whose J and grad f are finite (the others start at 0),
    where a singular row (J = 0, as at the centre of the torus) falls back
    to least squares, the minimum-norm solution.  A singular KKT system
    (that seed's, in every iteration) is solved on its own the same way
    (see _solve_stack), and the other rows stay in one stacked solve.
    Returns the (s, N) points and the mask of rows that converged within
    max_iter iterations.
    """
    N = M.ambient
    c = M.codim
    ev = M.evaluator(f)
    X = np.array(X0, dtype=float).reshape(-1, N)
    s = len(X)
    Z = np.concatenate([X, np.zeros((s, c))], axis=1)
    converged = np.zeros(s, dtype=bool)
    active = np.arange(s)
    for it in range(max_iter):
        if not len(active):
            break
        x, lam = Z[active, :N], Z[active, N:]
        (_, F), (g, J), (H, CH) = ev.jet(x, 2)
        if not it and c:
            # the least-squares multipliers (J J^T)^+ J g of J^T lam = g
            # on the finite rows, in one stacked solve
            fin = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
            Jf = J[fin]
            lam[fin] = _solve_stack(np.einsum("mcn,mdn->mcd", Jf, Jf),
                                    np.einsum("mcn,mn->mc", Jf, g[fin]))
            Z[:, N:] = lam
        res = g
        if c:
            res = np.concatenate(
                [g - np.einsum("mcn,mc->mn", J, lam), F], axis=1)
        norm = np.linalg.norm(res, axis=1)
        done = norm < NEWTON_TOL
        converged[active[done]] = True
        left = np.isfinite(norm) & ~done
        active, lam, res = active[left], lam[left], res[left]
        if not len(active):
            break
        Hl = H[left] - np.einsum("mk,mkij->mij", lam, CH[left])
        if c:
            J = J[left]
            K = np.zeros((len(active), N + c, N + c))
            K[:, :N, :N] = Hl
            K[:, :N, N:] = -J.transpose(0, 2, 1)
            K[:, N:, :N] = J
        else:
            K = Hl
        Z[active] += _solve_stack(K, -res)
        x = Z[active, :N]
        ok = (np.isfinite(x).all(axis=1)
              & (np.linalg.norm(x, axis=1) <= NEWTON_BOUND))
        active = active[ok]
    return Z[:, :N], converged


def _is_critical(ev: Evaluator, X) -> np.ndarray:
    """Per row of X: is the tangent gradient norm below TOL_CRIT?"""
    if not len(X):
        return np.zeros(0, dtype=bool)
    _, (g, J) = ev.jet(X, 1)
    T = tangent_part(J, g)
    return np.linalg.norm(T, axis=1) < TOL_CRIT


def find_critical_points(f: EqFunction, M: ImplicitGManifold,
                         seeds) -> list[np.ndarray]:
    """Newton from every seed, deduplicated and closed under the action.

    All seeds run through one batched KKT Newton: every iteration evaluates
    f and the constraints with their first and second derivatives on the
    rows still running in one order-2 call of M's Evaluator of f (see
    _newton_kkt and ImplicitGManifold.evaluator), and makes one stacked
    solve.  Per-row masks retire the rows that converge and drop those that
    turn non-finite or leave the bound; a singular KKT system is solved
    alone, with a least-squares fallback, beside the stack of the others.
    Divergent seeds are logged and skipped, never fatal.  The converged
    points that pass the tangent-gradient tolerance, read from one order-1
    call of the Evaluator, are deduplicated in seed order.

    The group closure is one pass: every translate of every found point is
    refined by one batched 10-step Newton (keeping a translate as it is
    where that does not converge), and the critical ones are added.  An
    orbit is closed under the group, so translates of the added points are
    already there.  Every returned point satisfies the tangent-gradient
    tolerance.
    """
    found: list[np.ndarray] = []

    def add(x):
        if match_point(x, found) is None:
            found.append(x)

    ev = M.evaluator(f)
    X, ok = _newton_kkt(f, M, seeds)
    rows = np.flatnonzero(ok)
    for r in rows[_is_critical(ev, X[rows])]:
        add(X[r])
    if not ok.all():
        log.debug("newton divergence on %d of %d seeds", (~ok).sum(), len(ok))

    if not found:
        return found
    # close under the group action: an orbit is closed, so one refinement
    # batch of every translate of every found point adds all of it
    Y = np.einsum("sij,pj->psi", M.action.matrices,
                  np.array(found)).reshape(-1, M.ambient)
    Y2, ok = _newton_kkt(f, M, Y, max_iter=10)
    Y[ok] = Y2[ok]
    for y in Y[_is_critical(ev, Y)]:
        add(y)
    values = f.value_many(np.array(found))
    order = sorted(range(len(found)), key=lambda i: (
        (round(float(values[i]), 9),) + tuple(np.round(found[i], 6))))
    return [found[i] for i in order]


def classify(f: EqFunction, M: ImplicitGManifold, p) -> CriticalPoint:
    """Stabilizer, restricted Hessian, index, fixed/prime splitting, and the
    stability flag of a critical point.

    stable means the Hessian is positive definite on the prime subspace
    (the kernel of the tangent averaging operator); equivalently no negative
    direction sticks out of the fixed subspace.

    f and the constraints are read from one order-2 call of M's Evaluator
    (ev.jet): the value, gradient and Jacobian, and the Hessian of f - lam
    . c that Newton's KKT step uses, with lam the least-squares
    multipliers.  A polynomial f on a manifold with constraints makes two
    table calls, and a surgered function's tables are each called once.
    """
    p = np.asarray(p, dtype=float)
    x = p[None, :]
    ev = M.evaluator(f)
    (fx, _), (g, J), (H, CH) = ev.jet(x, 2)
    if np.linalg.norm(tangent_part(J, g)[0]) >= TOL_CRIT:
        raise ValueError("point fails the critical-gradient tolerance")
    H_sub = M.action.stabilizer(p)
    T = tangent_frame(J[0])

    # restricted Hessian: subtract the constraint curvature via multipliers
    lam = np.zeros((1, 0))
    if M.codim:
        lam = np.linalg.lstsq(J[0].T, g[0], rcond=None)[0][None]
    Ht = T.T @ (H - np.einsum("mk,mkij->mij", lam, CH))[0] @ T
    Ht = (Ht + Ht.T) / 2.0

    # stabilizer action on the tangent space and the averaging projector
    rep = tuple(T.T @ M.action.matrices[s] @ T for s in H_sub.elements)
    P = sum(rep) / len(rep)
    P = (P + P.T) / 2.0
    evals, evecs = np.linalg.eigh(P)
    fixed = evecs[:, evals > 0.5]
    prime = evecs[:, evals <= 0.5]

    w, V = np.linalg.eigh(Ht)
    if np.any(np.abs(w) <= TOL_NONDEG):
        raise DegenerateHessian(
            f"Hessian eigenvalue within {TOL_NONDEG} of zero: {w.tolist()}"
        )
    neg = V[:, w < 0]
    index = neg.shape[1]

    if prime.shape[1]:
        Hp = prime.T @ Ht @ prime
        wp = np.linalg.eigvalsh((Hp + Hp.T) / 2.0)
        stable = bool(np.all(wp > TOL_NONDEG))
    else:
        stable = True

    return CriticalPoint(
        coords=p,
        value=float(fx[0]),
        stabilizer=H_sub,
        tangent_basis=T,
        hessian=Ht,
        index=index,
        fixed_basis=fixed,
        prime_basis=prime,
        stable=stable,
        neg_basis=neg,
        tangent_rep=rep,
    )
