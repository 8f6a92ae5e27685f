"""Critical points on implicit G-manifolds: Newton on the Lagrange (KKT)
system from all seeds at once, orbit closure, and stability classification.

The search is batched first.  One KKT Newton runs on an (s, N + c) array of
every seed's point and multipliers, with per-row masks for convergence,
non-finite values and the divergence bound, and one stacked solve per
iteration; a singular system in the stack falls back row by row to solve,
then least squares.  The closure under the group runs in rounds, one
batched refinement of the new points' translates per round.

The tolerances are module constants: gradient norm TOL_CRIT = 1e-9 for
criticality, Hessian eigenvalue floor TOL_NONDEG = 1e-6 for nondegeneracy,
STAB_TOL for the stabilizer and DEDUP_TOL for coincident points.
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
    "STAB_TOL",
    "DEDUP_TOL",
    "classify",
    "find_critical_points",
    "seed_grid",
]

log = logging.getLogger(__name__)

TOL_CRIT = 1e-9
TOL_NONDEG = 1e-6
STAB_TOL = 1e-9
DEDUP_TOL = 1e-6


class DegenerateHessian(InputError):
    """A Hessian eigenvalue sits inside the nondegeneracy floor."""


@dataclass(eq=False)
class CriticalPoint:
    """A classified critical point.

    hessian is the restricted Hessian in the orthonormal tangent frame
    tangent_basis; fixed_basis and prime_basis split the tangent space into
    the stabilizer-fixed part and its complement (the kernel of the
    averaging operator).  descending_rep records the stabilizer action on
    the negative eigenspace, one matrix per stabilizer element.
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
    descending_rep: tuple = ()

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
    singular the stack raises, and each row falls back to solve, then to
    least squares."""
    try:
        return np.linalg.solve(K, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for r in range(len(b)):
            try:
                out[r] = np.linalg.solve(K[r], b[r])
            except np.linalg.LinAlgError:
                out[r], *_ = np.linalg.lstsq(K[r], b[r], rcond=None)
        return out


def _newton_kkt(f: EqFunction, M: ImplicitGManifold, X0, max_iter=60,
                tol=1e-12, bound=1e6):
    """Newton on grad f = J^T lambda, F = 0 from every row of X0 at once.

    The iterate is an (s, N + c) array of points and multipliers.  Each
    iteration evaluates the residual on the active rows, retires the rows
    whose residual norm is below tol, and takes one stacked KKT step on the
    rest.  f and the constraints are read through M's Evaluator: for a
    polynomial f with constraints the residual is one call of its joint
    first-order table and the KKT matrix one call of its second-order
    table; otherwise f and the constraint tables are called in turn.  A row
    is dropped as divergent when its residual is not finite or its step
    leaves the finite numbers or the ball of radius bound.  The multipliers
    start at the least-squares solution of J^T lambda = grad f.
    Returns the (s, N) points and the mask of rows that converged within
    max_iter iterations.
    """
    N = M.ambient
    c = M.codim
    ev = M.evaluator(f)
    X = np.array(X0, dtype=float).reshape(-1, N)
    s = len(X)
    lam = np.zeros((s, c))
    if c:
        g, _, J = ev.gradients(X)
        for r in np.flatnonzero(np.isfinite(J).all(axis=(1, 2))
                                & np.isfinite(g).all(axis=1)):
            lam[r], *_ = np.linalg.lstsq(J[r].T, g[r], rcond=None)
    Z = np.concatenate([X, lam], axis=1)
    converged = np.zeros(s, dtype=bool)
    active = np.arange(s)
    for _ in range(max_iter):
        if not len(active):
            break
        x, lam = Z[active, :N], Z[active, N:]
        res, F, J = ev.gradients(x)
        if c:
            res = np.concatenate(
                [res - np.einsum("mcn,mc->mn", J, lam), F], axis=1)
        norm = np.linalg.norm(res, axis=1)
        done = norm < tol
        converged[active[done]] = True
        left = np.isfinite(norm) & ~done
        active, x, lam, res = active[left], x[left], lam[left], res[left]
        if not len(active):
            break
        Hl = ev.lagrangian_hessians(x, lam)
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
        ok = np.isfinite(x).all(axis=1) & (np.linalg.norm(x, axis=1) <= bound)
        active = active[ok]
    return Z[:, :N], converged


def _is_critical(ev: Evaluator, X) -> np.ndarray:
    """Per row of X: is the tangent gradient norm below TOL_CRIT?"""
    if not len(X):
        return np.zeros(0, dtype=bool)
    g, _, J = ev.gradients(X)
    T = tangent_part(J, g)
    return np.linalg.norm(T, axis=1) < TOL_CRIT


def find_critical_points(f: EqFunction, M: ImplicitGManifold,
                         seeds) -> list[np.ndarray]:
    """Newton from every seed, deduplicated and closed under the action.

    All seeds run through one batched KKT Newton: every iteration evaluates
    f and the constraints with their first and second derivatives on the
    rows still running (see _newton_kkt), through M's Evaluator of f (see
    ImplicitGManifold.evaluator), and makes one stacked solve.
    Per-row masks retire the rows that converge and drop those that turn
    non-finite or leave the bound; a singular KKT system sends the stack to
    a row-by-row solve with a least-squares fallback.  Divergent seeds are
    logged and skipped, never fatal.  The converged points that pass the
    tangent-gradient tolerance are deduplicated in seed order.

    The group closure runs in rounds: each round refines every translate of
    the points the previous round added with one batched 10-step Newton
    (keeping a translate as it is where that does not converge), and adds
    the critical ones, until a round adds nothing.  Every returned point
    satisfies the tangent-gradient tolerance.
    """
    found: list[np.ndarray] = []

    def add(x):
        for y in found:
            if np.linalg.norm(x - y) <= DEDUP_TOL:
                return
        found.append(x)

    ev = M.evaluator(f)
    X, ok = _newton_kkt(f, M, seeds)
    rows = np.flatnonzero(ok)
    for r in rows[_is_critical(ev, X[rows])]:
        add(X[r])
    if not ok.all():
        log.debug("newton divergence on %d of %d seeds", (~ok).sum(), len(ok))

    # close under the group action, one refinement batch per round
    G = M.action.group
    start = 0
    while start < len(found):
        Y = np.array([M.apply(s, x) for x in found[start:] for s in G.elements()])
        start = len(found)
        Y2, ok = _newton_kkt(f, M, Y, max_iter=10)
        Y[ok] = Y2[ok]
        for y in Y[_is_critical(ev, Y)]:
            add(y)
    if not found:
        return found
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

    f and the constraints are read through M's Evaluator: its first(x)
    gives the value, gradient and Jacobian, and second(x) the Hessians of
    f and of the constraints, so a polynomial f on a manifold with
    constraints makes two table calls.
    """
    p = np.asarray(p, dtype=float)
    x = p[None, :]
    ev = M.evaluator(f)
    fx, g, _, J = ev.first(x)
    if np.linalg.norm(tangent_part(J, g)[0]) >= TOL_CRIT:
        raise ValueError("point fails the critical-gradient tolerance")
    H_sub = M.action.stabilizer(tuple(p), tol=STAB_TOL)
    T = tangent_frame(J[0])

    # restricted Hessian: subtract the constraint curvature via multipliers
    Hf, CH = ev.second(x)
    Hf = Hf[0]
    if M.codim:
        lam, *_ = np.linalg.lstsq(J[0].T, g[0], rcond=None)
        Hf = Hf - np.einsum("k,kij->ij", lam, CH[0])
    Ht = T.T @ Hf @ T
    Ht = (Ht + Ht.T) / 2.0

    # stabilizer action on the tangent space and the averaging projector
    reps = [T.T @ M.act_mats[s] @ T for s in H_sub.elements]
    P = sum(reps) / len(reps)
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

    descending = []
    if index:
        for s, R in zip(H_sub.elements, reps):
            descending.append((s, neg.T @ R @ neg))

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
        descending_rep=tuple(descending),
    )
