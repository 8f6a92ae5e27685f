"""Critical points on implicit G-manifolds: Newton on the Lagrange (KKT)
system from all seeds at once, orbit closure, stability classification, and
the critical set's orbits.

The search is batched first.  One KKT Newton runs on an (s, N + c) array of
every seed's point and multipliers, with per-row masks for convergence,
non-finite values and the divergence bound, and one stacked solve per
iteration; the systems of a stack that holds a singular one are solved
again as one stack without it, and each singular one alone, by solve,
then least squares.  The closure under the group refines, in one batch,
only the translates of the found points that the translate table does
not already find among them.

Which points are the same, which form one orbit and which elements fix
a point is one decision, manifolds.match_rows; group_into_orbits reads the
orbits off its translate table and checks each against |G|.

The tolerances are module constants: gradient norm TOL_CRIT = 1e-9 for
criticality, Hessian eigenvalue floor TOL_NONDEG = 1e-6 for nondegeneracy,
DEDUP_TOL (kept in manifolds, beside match_rows) for the same point, and
the Newton residual NEWTON_TOL and divergence bound NEWTON_BOUND.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError
from ..groups import Subgroup
from .manifolds import DEDUP_TOL  # noqa: F401 (exported here too)
from .manifolds import (EqFunction, Evaluator, ImplicitGManifold, _solve_stack,
                        match_rows, tangent_frame, tangent_part)

__all__ = [
    "CriticalOrbit",
    "CriticalPoint",
    "DegenerateHessian",
    "TOL_CRIT",
    "TOL_NONDEG",
    "DEDUP_TOL",
    "classify",
    "find_critical_points",
    "group_into_orbits",
    "seed_grid",
    "translate_table",
]

log = logging.getLogger(__name__)

TOL_CRIT = 1e-9
TOL_NONDEG = 1e-6
NEWTON_TOL = 1e-12
NEWTON_BOUND = 1e6


class DegenerateHessian(InputError):
    """A Hessian eigenvalue sits inside the nondegeneracy floor."""


@dataclass(eq=False)
class CriticalPoint:
    """A classified critical point.

    hessian is the restricted Hessian in the orthonormal tangent frame
    tangent_basis, (eigvals, eigvecs) its one eigendecomposition, in eigh's
    order, and neg_basis its V^-; stable means the stabilizer fixes V^-
    pointwise, so the orbit is one cell G x_H (D^index, S^(index-1)).
    tangent_rep is the stabilizer's representation on the tangent space in
    that frame, T^T A_s T, one per element of stabilizer.elements in order.
    """

    coords: np.ndarray
    value: float
    stabilizer: Subgroup
    tangent_basis: np.ndarray
    hessian: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    index: int
    stable: bool
    tangent_rep: tuple = ()

    @property
    def neg_basis(self) -> np.ndarray:
        return self.eigvecs[:, self.eigvals < 0]

    def __repr__(self):
        return (f"CriticalPoint(at {np.round(self.coords, 6).tolist()}, "
                f"value={self.value:.6g}, index={self.index}, "
                f"stab order {self.stabilizer.order}, "
                f"{'stable' if self.stable else 'unstable'})")


def seed_grid(bounds, counts) -> np.ndarray:
    """Product grid over [lo, hi] per axis; counts may be one int."""
    if isinstance(counts, int):
        counts = [counts] * len(bounds)
    if len(counts) != len(bounds):
        raise ValueError(f"seed_grid needs one count per axis: {len(bounds)} "
                         f"bounds, {len(counts)} counts")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    pts = np.array(list(itertools.product(*axes)))
    return pts


def translate_table(M: ImplicitGManifold, C) -> np.ndarray:
    """hit[g, k]: match_rows of the translate A_g C[k] against C, the index
    of the first row of C within DEDUP_TOL of it, or -1 where there is
    none; every translate of every point in one call.  C is an (n, ambient)
    array."""
    T = np.einsum("gij,kj->gki", M.action.matrices, C)
    return match_rows(T.reshape(-1, M.ambient), C).reshape(T.shape[:2])


def _distinct(X) -> np.ndarray:
    """The rows of X that match no earlier row kept, in order: each row
    kept drops the later rows within DEDUP_TOL of it (match_rows)."""
    keep, left = [], np.arange(len(X))
    while len(left):
        keep.append(left[0])
        left = left[1:][match_rows(X[left[1:]], X[left[:1]]) < 0]
    return X[keep]


@dataclass(eq=False)
class CriticalOrbit:
    """The critical points of crits that form one orbit: rep is the first
    of them in crits, and members lists (the first element carrying rep
    onto the point, the point's index in crits)."""

    rep: CriticalPoint
    size: int
    members: list = field(default_factory=list)

    @property
    def index(self) -> int:
        return self.rep.index


def group_into_orbits(M: ImplicitGManifold,
                      crits: list[CriticalPoint]) -> list[CriticalOrbit]:
    """Partition classified critical points into group orbits, sorted by
    index and value, from one translate_table.

    ValueError if a translate matches no point (the set is not closed
    under the action), or if an orbit's size times its stabilizer order is
    not |G|: two points within DEDUP_TOL of each other, or a stabilizer
    that disagrees with the table, would give M(stab) of the wrong rank."""
    C = np.array([c.coords for c in crits], dtype=float).reshape(-1, M.ambient)
    hit = translate_table(M, C)
    G = M.action.group
    used = [False] * len(crits)
    orbits = []
    for i, c in enumerate(crits):
        if used[i]:
            continue
        members = []
        for s in G.elements():
            j = int(hit[s, i])
            if j < 0:
                raise ValueError(f"critical set is not closed under the "
                                 f"action near {M.apply(s, C[i])}")
            if not used[j]:
                used[j] = True
                members.append((s, j))
        if len(members) * c.stabilizer.order != G.order:
            raise ValueError(
                f"the critical point at {np.round(C[i], 6).tolist()} has an "
                f"orbit of size {len(members)} and a stabilizer of order "
                f"{c.stabilizer.order}, whose product is not |G| = {G.order}")
        orbits.append(CriticalOrbit(rep=c, size=len(members), members=members))
    orbits.sort(key=lambda o: (o.index, float(o.rep.value)))
    return orbits


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
    ball of radius NEWTON_BOUND, and as stuck when its step is exactly
    zero: its point and multipliers, and so its next step, would not
    change.  The multipliers start at the
    least-squares solution of J^T lambda = grad f, from iteration 0's own
    evaluation: one stacked solve of the Gram system J J^T lambda = J grad
    f on every row whose J and grad f are finite (the others start at 0),
    where a singular row (J = 0, as at the centre of the torus) falls back
    to least squares, the minimum-norm solution.  A singular KKT system
    is solved on its own the same way (see _solve_stack), and the other
    rows stay in one stacked solve; at the centre of the torus that step
    is zero, so the seed there is dropped after one iteration.
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
        step = _solve_stack(K, -res)
        Z[active] += step
        x = Z[active, :N]
        # a row whose step is exactly zero would repeat this iteration
        # unchanged: it never converges
        ok = (step.any(axis=1) & np.isfinite(x).all(axis=1)
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
    Divergent seeds are logged and skipped, never fatal.  seeds is an
    (m, ambient) array, one point per row; a single point of length ambient
    is a batch of one, and any other shape raises ValueError.  The converged
    points that pass the tangent-gradient tolerance, read from one order-1
    call of the Evaluator, are deduplicated in seed order by match_rows.

    The group closure is one pass: the translates of the found points that
    the translate table does not find among them are refined by one
    batched 10-step Newton (keeping a translate as it is where that does
    not converge), and the critical ones are added, deduplicated the same
    way.  An orbit is closed under the group, so translates of the added
    points are already there.  Every returned point satisfies the
    tangent-gradient tolerance.
    """
    X0 = np.array(seeds, dtype=float)
    if X0.ndim == 1 and len(X0) == M.ambient:
        X0 = X0[None, :]
    if X0.ndim != 2 or X0.shape[1] != M.ambient:
        raise ValueError(f"seeds must have shape (m, {M.ambient}), one point "
                         f"per row; got shape {X0.shape}")
    ev = M.evaluator(f)
    X, ok = _newton_kkt(f, M, X0)
    rows = np.flatnonzero(ok)
    C = _distinct(X[rows[_is_critical(ev, X[rows])]])
    if not ok.all():
        log.debug("newton divergence on %d of %d seeds", (~ok).sum(), len(ok))
    if not len(C):
        return []
    # close under the group action: an orbit is closed, so one refinement
    # batch of the translates the table does not find adds all of it
    k, g = np.nonzero(translate_table(M, C).T < 0)
    if len(k):
        Y = np.einsum("mij,mj->mi", M.action.matrices[g], C[k])
        Y2, ok = _newton_kkt(f, M, Y, max_iter=10)
        Y[ok] = Y2[ok]
        C = _distinct(np.concatenate([C, Y[_is_critical(ev, Y)]]))
    values = f.value_many(C)
    order = sorted(range(len(C)), key=lambda i: (
        (round(float(values[i]), 9),) + tuple(np.round(C[i], 6))))
    return [C[i] for i in order]


def classify(f: EqFunction, M: ImplicitGManifold, p) -> CriticalPoint:
    """Stabilizer, restricted Hessian and its eigenpairs, index, and the
    stability flag of a critical point p, a point of length ambient (any
    other shape raises ValueError).

    stable means the stabilizer H fixes V^- pointwise: N^T R N = I to
    TOL_NONDEG for every R in tangent_rep, with N = neg_basis.  The
    representation is orthogonal, so that says R N = N.  An index-0 point
    is stable.

    f and the constraints are read from one order-2 call of M's Evaluator
    (ev.jet): the value, gradient and Jacobian, and the Hessian of f - lam
    . c that Newton's KKT step uses, with lam the least-squares
    multipliers.  A polynomial f on a manifold with constraints makes two
    table calls, and a surgered function's tables are each called once.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (M.ambient,):
        raise ValueError(f"p must have shape ({M.ambient},), one point; got "
                         f"shape {p.shape}")
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

    w, V = np.linalg.eigh(Ht)
    if np.any(np.abs(w) <= TOL_NONDEG):
        raise DegenerateHessian(
            f"Hessian eigenvalue within {TOL_NONDEG} of zero: {w.tolist()}"
        )
    # the stabilizer on the tangent space; stable when it fixes V^-
    rep = tuple(T.T @ M.action.matrices[s] @ T for s in H_sub.elements)
    N = V[:, w < 0]
    stable = all(np.allclose(N.T @ R @ N, np.eye(N.shape[1]), rtol=0,
                             atol=TOL_NONDEG) for R in rep)

    return CriticalPoint(
        coords=p,
        value=float(fx[0]),
        stabilizer=H_sub,
        tangent_basis=T,
        hessian=Ht,
        eigvals=w,
        eigvecs=V,
        index=int((w < 0).sum()),
        stable=stable,
        tangent_rep=rep,
    )
