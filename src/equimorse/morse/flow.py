"""Gradient flow trajectories on implicit manifolds.

Trajectories integrate x' = -P grad f (descending; +P for ascending) with a
projected RK4 step whose size adapts to the local gradient so the flow
marches at roughly constant arc length, and are captured when they come
within CAPTURE_TOL of a known critical point.  integrate_batch is the
only integrator: it steps the rows of an (m x n) array of start points in
lockstep with vectorized evaluations, each row with its own direction, so
descents and ascents share one batch, and a single trajectory is a batch
of one.  Every evaluation is row by row, and a row's trajectory is bit for
bit the one it would have alone; aggregation of results never depends on
trajectory order.

A sink of the flow (an index-0 point for a descent, an index-dim point for
an ascent) attracts along its linearization, e' = -H e descending and
e' = H e ascending with H its Hessian, and RK4 with a capped step approaches
it only linearly, at a rate of about the eigenvalue times DT_CAP.  So each
sink gets a capture radius: the largest rung of CAPTURE_RADII on whose
sampled shells the velocity contracts towards the sink at CONTRACTION times
its smallest Hessian eigenvalue.  A row that enters that ball is captured
there and its end is the closed-form linear flow, taken to half of
CAPTURE_TOL.  A sink no rung certifies keeps the plain CAPTURE_TOL.

One lockstep iteration evaluates f and the constraints at the three
velocity points (K2, K3, K4) and at the new points, through the manifold's
Evaluator of f, built once for all batches of the same f.  For a
polynomial f on a manifold with constraints each evaluation is one call
of the joint first-order table: three for the velocities and one per
Gauss-Newton step of the projection (about two an iteration on the torus
and the sphere), whose last call at a row gives f, its gradient and the
constraint Jacobian at the new point.  Otherwise the
iteration calls f at K2-K4 and once at the new points, and, with
constraints, the constraint table at K2-K4 and once per projection step.
The new point's gradient, projected with its Jacobian, is the next
iteration's K1 (which also sets the step size), and its value is the next
f_old, so no point of a trajectory is evaluated twice; only the start
points take one evaluation of their own.  A step that is not monotone
in f is retried at half the size from the same K1, at the same
evaluations again; the first attempt may rise by a relative 1e-14, a
retry must strictly decrease f along the flow.  The capture radii cost
one more velocity call per batch with a sink, on every probe point at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critical import CriticalPoint
from .manifolds import EqFunction, ImplicitGManifold, tangent_part

__all__ = [
    "CAPTURE_TOL",
    "Trajectory",
    "integrate_batch",
]

CAPTURE_TOL = 1e-6
# the step bound away from the sinks (see integrate_batch)
DT_CAP = 0.5
# a step still non-monotone after this many halvings ends its trajectory
MAX_HALVINGS = 50
# the capture radii tried around a sink, largest first
CAPTURE_RADII = (0.1, 0.03, 0.01, 3e-3, 1e-3)
# a certified radius needs (x - c).v(x) <= -CONTRACTION * lam_min * |x - c|^2
# on its probe shells, lam_min the sink's smallest |Hessian eigenvalue|
CONTRACTION = 0.5

CAPTURED = 0
ESCAPED = 1
UNRESOLVED = 2


@dataclass(eq=False)
class Trajectory:
    """Outcome of one integrated trajectory."""

    start: np.ndarray
    end: np.ndarray
    status: int
    limit_index: int | None          # index into the critical list
    limit: CriticalPoint | None
    steps: int
    halvings: int                    # RK4 steps retried at half the size
    linear_capture: bool = False     # end is the sink's closed-form flow
    points: np.ndarray | None = None

    @property
    def resolved(self) -> bool:
        return self.status == CAPTURED

    @property
    def escaped(self) -> bool:
        return self.status == ESCAPED


def _crit_array(crits) -> np.ndarray:
    return np.array([np.asarray(c.coords, dtype=float) for c in crits])


def _shell_directions(d: int) -> np.ndarray:
    """The unit vectors +-e_i and (+-e_i +- e_j)/sqrt(2) of R^d."""
    E = np.eye(d)
    dirs = [s * E[i] for i in range(d) for s in (1, -1)]
    dirs += [(s * E[i] + t * E[j]) / np.sqrt(2) for i in range(d)
             for j in range(i + 1, d) for s in (1, -1) for t in (1, -1)]
    return np.array(dirs)


def _capture_radii(velocity, M: ImplicitGManifold, crits, C) -> np.ndarray:
    """Capture radius of every critical point, row 0 for descents and row 1
    for ascents.

    A sink's radius is the largest rung of CAPTURE_RADII below half its
    distance to every other critical point at which the velocity contracts
    on probe shells of radius r, r/2 and r/4; every other radius is
    CAPTURE_TOL.  All probes share one velocity call.
    """
    R = np.full((2, len(C)), CAPTURE_TOL)
    if not len(C) or not M.dim:
        return R
    gaps = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    half = 0.5 * gaps.min(axis=1)
    U = _shell_directions(M.dim)
    n = 3 * len(U)                       # probe points per rung
    blocks, shells = [], []              # (side, critical point, rung)
    for k, c in enumerate(crits):
        for side, sink in ((0, 0), (1, M.dim)):
            if c.index != sink:
                continue
            W = U @ c.tangent_basis.T
            for r in CAPTURE_RADII:
                if r < half[k]:
                    blocks.append((side, k, r))
                    shells += [C[k] + q * W for q in (r, r / 2, r / 4)]
    if not blocks:
        return R
    X = np.concatenate(shells)
    if M.codim:
        X = M.project_points_many(X)
    side = np.array([b[0] for b in blocks])
    k = np.array([b[1] for b in blocks])
    lam = np.array([np.abs(np.linalg.eigvalsh(c.hessian)).min() for c in crits])
    E = X - np.repeat(C[k], n, axis=0)
    V = velocity(X, np.repeat(2.0 * side - 1, n))
    ok = ((E * V).sum(axis=1) <= -CONTRACTION * np.repeat(lam[k], n)
          * (E * E).sum(axis=1)).reshape(len(blocks), n).all(axis=1)
    # smallest rung first, so the largest certified rung is written last
    for (sd, kk, r), good in zip(blocks[::-1], ok[::-1]):
        if good:
            R[sd, kk] = r
    return R


def _linear_ends(M: ImplicitGManifold, crits, C, X, which,
                 sign) -> np.ndarray:
    """Where the linearized flow e' = sign H e at each row's sink carries
    it: to half of CAPTURE_TOL, at T = ln(|e0| / (CAPTURE_TOL / 2)) / lam_min
    in the sink's tangent frame, then onto M."""
    out = np.empty_like(X)
    for r, (x, k, s) in enumerate(zip(X, which, sign)):
        c = crits[k]
        w, V = np.linalg.eigh(-s * c.hessian)      # positive at a sink
        e0 = c.tangent_basis.T @ (x - C[k])
        t = np.log(np.linalg.norm(e0) / (0.5 * CAPTURE_TOL)) / w.min()
        out[r] = C[k] + c.tangent_basis @ (V @ (np.exp(-w * t) * (V.T @ e0)))
    return M.project_points_many(out) if M.codim else out


def integrate_batch(f: EqFunction, M: ImplicitGManifold, X0, *,
                    crits, direction=-1,
                    step_length: float = 0.01,
                    max_steps: int = 40000,
                    escape_radius: float = 50.0,
                    keep_paths: bool = False):
    """Integrate every row of X0; returns a list of Trajectory.

    direction is -1 (descend) or +1 (ascend), either one value for every
    row or one per row.  A trajectory finishes by capture, escape (outside
    the escape radius), a step that stays non-monotone in f after
    MAX_HALVINGS halvings (unresolved, left at its last accepted point; a
    NaN value of f counts as non-monotone), or budget exhaustion
    (unresolved).

    A row is captured within CAPTURE_TOL of any critical point, and within
    the certified radius of a sink of its direction (see _capture_radii,
    computed for both directions whatever the rows' directions, so a row's
    trajectory does not depend on its batch).  A row captured by a radius
    alone ends at the closed-form solution of the sink's linearized flow,
    within CAPTURE_TOL of it, and counts as a linear capture.  DT_CAP
    bounds the step away from the sinks, where the speed-normalized step
    would leave RK4's stability region.
    """
    X = np.array(X0, dtype=float)
    m = len(X)
    C = _crit_array(crits) if crits else np.zeros((0, M.ambient))
    status = np.full(m, UNRESOLVED, dtype=int)
    limit = np.full(m, -1, dtype=int)
    steps_used = np.zeros(m, dtype=int)
    halvings = np.zeros(m, dtype=int)
    linear = np.zeros(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    paths = [[] for _ in range(m)] if keep_paths else None
    sgn = np.broadcast_to(np.asarray(direction, dtype=float), (m,))
    # per-trajectory adaptive step bound; monotonicity violations halve it
    dt_state = np.full(m, DT_CAP)
    # f, its gradient and the constraint Jacobian at each row's current
    # point, carried from the step that reached it
    f_at = np.zeros(m)
    g_at = np.zeros_like(X)
    j_at = np.zeros((m, M.codim, M.ambient))
    ev = M.evaluator(f)

    def velocity(pts, sign):
        G, _, J = ev.gradients(pts)
        return tangent_part(J, sign[:, None] * G)

    def rk4(P, sign, K1, dt):
        # K1 is velocity(P), shared by the step size and every retry
        K2 = velocity(P + 0.5 * dt * K1, sign)
        K3 = velocity(P + 0.5 * dt * K2, sign)
        K4 = velocity(P + dt * K3, sign)
        return ev.project(P + (dt / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4))

    # each row's capture radius around every critical point
    radius = _capture_radii(velocity, M, crits, C)[
        (sgn > 0).astype(int)]

    for step in range(max_steps):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        P = X[idx]
        if len(C):
            E = P[:, None, :] - C[None, :, :]
            D = np.sqrt((E * E).sum(axis=2))
            inside = D < radius[idx]
            hit = inside.any(axis=1)
            if hit.any():
                which = idx[hit]
                Dh = np.where(inside[hit], D[hit], np.inf)
                k = Dh.argmin(axis=1)
                status[which] = CAPTURED
                limit[which] = k
                active[which] = False
                lin = Dh[np.arange(len(k)), k] >= CAPTURE_TOL
                if lin.any():
                    linear[which[lin]] = True
                    X[which[lin]] = _linear_ends(M, crits, C, X[which[lin]],
                                                 k[lin], sgn[which[lin]])
                idx = np.flatnonzero(active)
                if not len(idx):
                    break
                P = X[idx]
        far = np.sqrt((P * P).sum(axis=1)) > escape_radius
        if far.any():
            which = idx[far]
            status[which] = ESCAPED
            active[which] = False
            idx = np.flatnonzero(active)
            if not len(idx):
                break
            P = X[idx]

        sign = sgn[idx]
        if step == 0:
            f_old, G, _, J = ev.first(P)
        else:
            f_old, G, J = f_at[idx], g_at[idx], j_at[idx]
        K1 = tangent_part(J, sign[:, None] * G)
        speed = np.sqrt((K1 * K1).sum(axis=1))
        base_dt = step_length / np.maximum(speed, 1e-4 * step_length)
        dt = np.minimum(base_dt, dt_state[idx])
        Pn, f_new, g_new, j_new = rk4(P, sign, K1, dt[:, None])
        # the flow must be monotone in f; an increase means the step left
        # the stability region, so halve and retry those trajectories; the
        # test is negated so that a NaN value counts as non-monotone
        scale = np.maximum(np.abs(f_old), 1.0)
        bad = ~(-sign * (f_new - f_old) <= 1e-14 * scale)
        for _ in range(MAX_HALVINGS):
            if not bad.any():
                break
            dt[bad] *= 0.5
            halvings[idx[bad]] += 1
            dt_state[idx[bad]] = dt[bad]
            Pn[bad], f_new[bad], g_new[bad], j_new[bad] = rk4(
                P[bad], sign[bad], K1[bad], dt[bad][:, None])
            # a retry must strictly decrease f along the flow: within the
            # first attempt's slack a step halved about 47 times barely
            # moves and would always pass
            bad[bad] = ~(-sign[bad] * (f_new[bad] - f_old[bad]) < 0)
        if bad.any():
            # still climbing against the flow: fail this row loudly rather
            # than accept a step that breaks monotonicity
            active[idx[bad]] = False
            keep = ~bad
            idx, Pn, j_new = idx[keep], Pn[keep], j_new[keep]
            f_new, g_new = f_new[keep], g_new[keep]
        # gently relax the cap so transient stiffness does not pin it
        dt_state[idx] = np.minimum(dt_state[idx] * 1.25, DT_CAP)
        X[idx] = Pn
        f_at[idx] = f_new
        g_at[idx] = g_new
        j_at[idx] = j_new
        steps_used[idx] = step + 1
        if keep_paths:
            for row, j in enumerate(idx):
                paths[j].append(Pn[row].copy())

    out = []
    for j in range(m):
        li = int(limit[j]) if status[j] == CAPTURED else None
        out.append(
            Trajectory(
                start=np.array(X0[j], dtype=float),
                end=X[j].copy(),
                status=int(status[j]),
                limit_index=li,
                limit=crits[li] if li is not None else None,
                steps=int(steps_used[j]),
                halvings=int(halvings[j]),
                linear_capture=bool(linear[j]),
                points=np.array(paths[j]) if keep_paths else None,
            )
        )
    return out

