"""Gradient flow trajectories on implicit manifolds.

Trajectories integrate x' = -P grad f (descending; +P for ascending) with a
projected RK4 step whose size each row controls from RK4's embedded error
estimate, and are captured when they come within CAPTURE_TOL of a known
critical point.  integrate_batch is the only integrator: it steps the rows
of an (m x n) array of start points in lockstep with vectorized
evaluations, each row with its own direction, so descents and ascents
share one batch, and a single trajectory is a batch of one.  It returns
the batch as one FlowBatch of per-row arrays (start and end points,
status, limit, steps, halvings, and the linear capture and release flags),
which callers read and total as arrays.  Every evaluation is row by row,
and a row's trajectory is bit for bit the one it would have alone;
aggregation of results never depends on trajectory order.

Near a critical point c the flow follows its linearization, e' = -H e
descending and e' = H e ascending with H the Hessian, and RK4 follows it
slowly: stability bounds the step by about 2.8 over the largest
eigenvalue, while a row moves at a rate set by the smallest.  So each end
of a flow line has one certificate (_certificate), and every point of an
orbit takes the most conservative certificate of its members.  The
certificate and the release read the eigenpairs (w, V) of H that
classify stored on c, as (-w, V) descending and (w, V) ascending.

- A sink of the flow (an index-0 point for a descent, an index-dim point
  for an ascent) ends a row within CAPTURE_TOL or in its level region.
  f is a Lyapunov function of its own flow, so the region is the ball
  B(c, R), R = min(half the gap to the nearest other critical point,
  CAPTURE_RADII[0]), with the level the extremum of f over sampled points
  of its boundary on M.  A row in B whose f is strictly past the level
  cannot reach the boundary again and ends at c: its end is c itself.
  This is a sampled certificate, and it trusts the found critical set: a
  critical point the search missed inside B could be the row's true
  limit (ROADMAP item 3 closes that gap).  In dimension 3 or more no
  boundary is sampled, and a sink captures at CAPTURE_TOL only.
- A source releases the rows whose source the caller names (sources=) at
  the edge of its expansion ball: the largest rung of CAPTURE_RADII below
  half that gap on whose sampled shells, along the unstable subspace of
  the linearized flow, the velocity expands at CONTRACTION times its
  smallest unstable rate.  A row's start e0 is carried by the closed-form
  linear flow e(t) = V exp(w t) V^T e0, (w, V) the eigenpairs of -H or H,
  out to the radius, and projected onto M.  A row on an eigenline stays on
  it, and a circle of rows keeps its cyclic order.  A row is released only
  if the fastest linear mode grows at most RELEASE_GAIN times as much as
  the row itself on the way out; a row nearer a slow eigendirection than
  that would be carried to where the linearization's error, amplified at
  the fast rate, decides its basin.  A source no rung certifies releases
  nothing.

One lockstep round makes one RK4 attempt of every live row, first
attempts and retries alike.  An attempt evaluates f and the constraints
at the three velocity points (K2, K3, K4) and at the new points, through
the order-1 jet of the manifold's Evaluator of f (ev.first(X) for the
velocities, ev.project for the new points), built once for all batches
of the same f.  For a polynomial f on a manifold with constraints each
evaluation is one call of the joint PolyJet's first table, whose columns
f, grad f, F and J are read as views of it: three calls for the
velocities and one per Gauss-Newton step of the projection (about two an
attempt on the torus and the sphere), whose last call at a row gives f,
its gradient and the constraint Jacobian at the new point.  Otherwise
the attempt calls f's jet_many at order 1 at K2-K4 and once at the new
points, and, with constraints, M.jet at order 1 at K2-K4 and once per
projection step.  No flow evaluation asks for a Hessian.
The new point's gradient, projected with its Jacobian, is the velocity K5
there: it gives the error estimate dt/6 |K4 - K5| of RK4's embedded
third-order formula (weights 1/6, 1/3, 1/3, 0, 1/6) and is carried over as
the next step's K1, and its value is the next f_old, so no point of a
trajectory is evaluated twice; only the start points take one evaluation
of their own.  A step whose estimate exceeds STEP_TOL times step_length,
or that is not monotone in f, is rejected: its row keeps its point, f and
K1 and waits for the next round, where it retries at half the size beside
the other rows' attempts; the first attempt may rise by a relative 1e-14,
a retry must strictly decrease f along the flow.  An accepted step scales
the row's next one by 0.9 (tol / err)^(1/4), within 1/2 and 2, and never
up right after a retry.  So a batch takes as many rounds as its longest
row takes attempts, its steps plus its halvings.  The live rows' state is
kept compacted, and compacted again only when a row ends.  The
certificate costs one more velocity call per batch, on every probe point
and boundary sample at once, and the capture test before a row's first
step reads the start evaluation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .critical import translate_table
from .manifolds import (PROJECT_TOL, EqFunction, ImplicitGManifold,
                        _gram_solve, tangent_part)

__all__ = [
    "CAPTURE_TOL",
    "FlowBatch",
    "integrate_batch",
]

CAPTURE_TOL = 1e-6
# the bound on a trajectory's first step (see integrate_batch)
DT_CAP = 0.5
# a step's error estimate may be at most STEP_TOL times step_length
STEP_TOL = 1e-3
# a step still rejected after this many halvings ends its trajectory
MAX_HALVINGS = 50
# the release radii the certificate tries around a source, largest first;
# the first also caps the radius of a sink's level region
CAPTURE_RADII = (0.2, 0.14, 0.1, 0.07, 0.05, 0.03, 0.02, 0.01, 3e-3, 1e-3)
# a certified radius needs (x - c).v(x) >= CONTRACTION * lam * |x - c|^2 on
# its probe shells, lam the flow's smallest unstable rate at c
CONTRACTION = 0.5
# a row is released only where its source's fastest linear mode grows at
# most RELEASE_GAIN times as much as the row itself (see _linear_release)
RELEASE_GAIN = 2.0
# the boundary samples of a level region on a surface (see _certificate)
LEVEL_SAMPLES = 64

CAPTURED = 0
ESCAPED = 1
UNRESOLVED = 2


class FlowBatch(NamedTuple):
    """What integrate_batch returns: one entry per row of its batch."""

    start: np.ndarray           # (m, N): the seed, or its linear release
    end: np.ndarray             # (m, N)
    status: np.ndarray          # (m,): CAPTURED, ESCAPED or UNRESOLVED
    limit: np.ndarray           # (m,): index into crits, -1 unless captured
    steps: np.ndarray           # (m,)
    halvings: np.ndarray        # (m,): halved retries: over tol or rising f
    linear_capture: np.ndarray  # (m,): ended in the sink's level region,
                                # and end is the sink itself
    linear_release: np.ndarray  # (m,): start is the source's closed-form flow
    paths: list | None          # keep_paths: each row's accepted points


class Certificate(NamedTuple):
    """What _certificate finds at each critical point; row 0 of a (2, n)
    array is for descents and row 1 for ascents."""

    release: np.ndarray     # (2, n): linear release radius; 0 where no rung
                            # is certified or no row leaves the orbit
    region: np.ndarray      # (n,): radius R of the level region
    level: np.ndarray       # (2, n): a row in B(c, R) strictly past it ends
                            # at c; -inf descending, +inf ascending if none


def _shell_directions(d: int) -> np.ndarray:
    """The unit vectors +-e_i and (+-e_i +- e_j)/sqrt(2) of R^d."""
    E = np.eye(d)
    dirs = [s * E[i] for i in range(d) for s in (1, -1)]
    dirs += [(s * E[i] + t * E[j]) / np.sqrt(2) for i in range(d)
             for j in range(i + 1, d) for s in (1, -1) for t in (1, -1)]
    return np.array(dirs)


def _on_spheres(M: ImplicitGManifold, X, centers, radii):
    """Gauss-Newton by minimum-norm steps from every row of X onto M and
    the sphere of its row of centers and radii, |x - center| = radius: the
    points, and whether each lies on both to PROJECT_TOL."""
    X = np.array(X, dtype=float)
    for _ in range(20):
        F, J = M.jet(X, 1)
        E = X - centers
        # the sphere's residual is about |x - center| - radius
        F = np.concatenate(
            [F, (((E * E).sum(axis=1) - radii ** 2) / (2 * radii))[:, None]],
            axis=1)
        ok = np.abs(F).max(axis=1) < PROJECT_TOL
        if ok.all():
            break
        J = np.concatenate([J, (E / radii[:, None])[:, None, :]], axis=1)[~ok]
        X[~ok] -= np.einsum("mcn,mc->mn", J, _gram_solve(J, F[~ok]))
    return X, ok


def _certificate(flow, M: ImplicitGManifold, crits, C,
                 leaves) -> Certificate:
    """The release radii and the level regions of the critical points (see
    Certificate).

    leaves[side, k] is true when some row leaves crits[k] in direction
    side (0 descending, 1 ascending).  Release radii are probed there and
    at the other points of k's orbit only, and are 0 elsewhere.  For the
    flow of direction s a rung r of CAPTURE_RADII below half c's distance
    to every other critical point is certified at c when the velocity
    expands, (x - c).v(x) >= CONTRACTION * lam * |x - c|^2, on probe shells
    of radius r, r/2 and r/4 along the unstable subspace of the linearized
    flow e' = s H e, lam its smallest positive rate; the largest certified
    rung is c's release radius for s.

    Every sink of either direction has a level region, whatever leaves
    names: the ball B(c, R), R = min(half that distance, CAPTURE_RADII[0]),
    with level the extremum of f, its minimum for a descent and maximum for
    an ascent, over samples of the boundary of B on M: the two points of a
    curve, LEVEL_SAMPLES points of a circle on a surface, found by
    _on_spheres; none in dimension 3 or more, or where a sample misses the
    sphere.  f is monotone along the flow, so a row in B past the level
    never reaches the boundary and ends at a critical point in B, which is
    c unless the critical set missed one: the region trusts the found
    critical set and the sampled circle.

    The probe directions are fixed tangent axes, not carried by the
    action, so every point of an orbit takes the smallest radii and the
    smallest level region of its members.  flow(X, sign) returns f and
    the velocity of direction sign at the rows of X; the probes and
    boundary samples share one call.
    """
    n, N = len(C), M.ambient
    release = np.zeros((2, n))
    level = np.array([[-np.inf], [np.inf]]).repeat(n, axis=1)
    if not n or not M.dim:
        return Certificate(release, np.zeros(n), level)
    # orbit[k, j]: crits[j] is a translate of crits[k]
    orbit = (translate_table(M, C)[..., None] == np.arange(n)).any(axis=0)

    def conservative(a, pick, fill):
        # each point's entry of a: pick over the members of its orbit
        return pick(np.where(orbit, a[..., None, :], fill), axis=-1)

    probed = (orbit & leaves[:, None, :]).any(axis=-1)
    gaps = np.linalg.norm(C[:, None, :] - C[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    half = 0.5 * gaps.min(axis=1)
    region = conservative(np.minimum(half, CAPTURE_RADII[0]), np.min, np.inf)
    # the boundary samples of a level region in tangent coordinates
    theta = np.linspace(0.0, 2 * np.pi, LEVEL_SAMPLES, endpoint=False)
    ring = {1: np.array([[1.0], [-1.0]]),
            2: np.stack([np.cos(theta), np.sin(theta)], axis=1)
            }.get(M.dim, np.zeros((0, M.dim)))
    rungs, shells, keys, lam = [], [np.zeros((0, N))], [], []
    sinks, rings = [], [np.zeros((0, N))]
    for k, c in enumerate(crits):
        for side, s in ((0, -1.0), (1, 1.0)):
            w, V = s * c.eigvals, c.eigvecs
            up = w > 0
            if up.all() and len(ring):
                sinks.append((1 - side, k))
                rings.append(C[k] + region[k] * ring @ c.tangent_basis.T)
            if not (up.any() and probed[side, k]):
                continue
            B = c.tangent_basis if up.all() else c.tangent_basis @ V[:, up]
            W = _shell_directions(B.shape[1]) @ B.T
            below = [r for r in CAPTURE_RADII if r < half[k]]
            rungs.append((side, k, below))
            # half or a quarter of one rung may be another rung, or its
            # half (halving is exact): each shell is probed once
            for q in sorted({q for r in below for q in (r, r / 2, r / 4)}):
                keys.append((side, k, q))
                shells.append(C[k] + q * W)
                lam.append(w[up].min())
    if not keys and not sinks:
        return Certificate(release, region, level)
    X = M.project_points_many(np.concatenate(shells))
    at = np.repeat([k for _, k in sinks], len(ring)).astype(int)
    S, on = _on_spheres(M, np.concatenate(rings), C[at], region[at])
    sizes = [len(x) for x in shells[1:]]
    values, V = flow(np.concatenate([X, S]), np.concatenate(
        [np.repeat([2.0 * key[0] - 1 for key in keys], sizes),
         np.ones(len(S))]))
    if keys:
        E = X - np.repeat(C[[key[1] for key in keys]], sizes, axis=0)
        good = ((E * V[:len(X)]).sum(axis=1)
                >= CONTRACTION * np.repeat(lam, sizes) * (E * E).sum(axis=1))
        held = dict(zip(keys, np.logical_and.reduceat(
            good, np.cumsum([0] + sizes[:-1]))))
        for side, k, below in rungs:
            # the largest rung whose three shells all hold
            release[side, k] = next((r for r in below if all(
                held[side, k, q] for q in (r, r / 2, r / 4))), 0.0)
    values = values[len(X):].reshape(len(sinks), len(ring))
    on = on.reshape(len(sinks), len(ring)).all(axis=1)
    for (side, k), f_ring, sampled in zip(sinks, values, on):
        if sampled:
            level[side, k] = f_ring.min() if side == 0 else f_ring.max()
    return Certificate(conservative(release, np.min, np.inf), region,
                       np.stack([conservative(level[0], np.min, np.inf),
                                 conservative(level[1], np.max, -np.inf)]))


def _linear_release(M: ImplicitGManifold, crits, C, X, which, sign,
                    radius):
    """Where the linearized flow e' = sign H e of each row's source carries
    it: in the source's tangent frame e(t) = V exp(w t) a, with (w, V) the
    source's (sign eigvals, eigvecs) and a = V^T e0, e0 the row's tangent
    coordinates, to |e| = radius, then onto M; and whether the row's gain
    |e0| exp(w_max t) / radius is at most RELEASE_GAIN.

    log |e(t)|^2 is convex in t, so Newton's method on it converges from
    the t at which the unstable part of e0 alone reaches the radius, for
    all rows at once."""
    T = np.stack([crits[k].tangent_basis for k in which])
    w = sign[:, None] * np.stack([crits[k].eigvals for k in which])
    V = np.stack([crits[k].eigvecs for k in which])
    a = np.einsum("mnj,mn->mj", V, np.einsum("mNn,mN->mn", T, X - C[which]))
    up = w > 0
    with np.errstate(divide="ignore"):
        la = np.log(a * a)
    target = 2.0 * np.log(radius)
    t = ((target - np.log(np.where(up, a * a, 0.0).sum(axis=1)))
         / (2.0 * np.where(up, w, np.inf).min(axis=1)))
    # each row stops on its own, so its t does not depend on its batch
    todo = np.ones(len(t), dtype=bool)
    for _ in range(100):
        z = la[todo] + 2.0 * w[todo] * t[todo, None]
        top = z.max(axis=1)
        p = np.exp(z - top[:, None])
        step = ((top + np.log(p.sum(axis=1)) - target[todo])
                / (2.0 * (w[todo] * p).sum(axis=1) / p.sum(axis=1)))
        t[todo] -= step
        todo[todo] = np.abs(step) > 1e-14 * np.maximum(np.abs(t[todo]), 1.0)
        if not todo.any():
            break
    gain = 0.5 * np.log((a * a).sum(axis=1)) + w.max(axis=1) * t
    e = np.einsum("mjk,mk->mj", V, np.exp(w * t[:, None]) * a)
    return (M.project_points_many(C[which] + np.einsum("mNn,mn->mN", T, e)),
            gain <= np.log(RELEASE_GAIN * radius))


def _per_row(name, value, m) -> np.ndarray:
    """value as an (m,) float array: one value for every row, or one per
    row; ValueError for any other shape."""
    a = np.asarray(value, dtype=float)
    if a.ndim > 1 or a.ndim == 1 and len(a) != m:
        raise ValueError(f"{name} must be one value or one per row of X0 "
                         f"({m}); got shape {a.shape}")
    return np.broadcast_to(a, (m,))


def integrate_batch(f: EqFunction, M: ImplicitGManifold, X0, *,
                    crits, direction=-1,
                    step_length: float = 0.01,
                    max_steps: int = 40000,
                    escape_radius: float = 50.0,
                    sources=None,
                    keep_paths: bool = False) -> FlowBatch:
    """Integrate every row of X0; returns their FlowBatch, whose arrays
    have one entry per row of X0, in its order.

    X0 is an (m, ambient) array of start points, one per row; a single
    point of length ambient is a batch of one, and any other shape raises
    ValueError.  direction is -1 (descend) or +1 (ascend), either one value
    for every row or one per row, and any other value or length raises
    ValueError.  A trajectory finishes by capture, escape
    (outside the escape radius), a step still rejected after MAX_HALVINGS
    halvings (unresolved, left at its last accepted point; a NaN value of f
    counts as non-monotone), or budget exhaustion: max_steps is each row's
    budget of accepted steps, and a row that has spent it ends unresolved
    at its last point before that point meets the capture test (with
    max_steps=0 every row ends at its start, and no start point is
    evaluated).  A row's first step has arc length step_length, at most
    DT_CAP in time; from then on the error estimate sets each row's step
    (see the module docstring), at a tolerance of STEP_TOL times
    step_length per step.  Each lockstep round makes one RK4 attempt of
    every live row, and a rejected step is retried at half the size in the
    next round.  With keep_paths, paths lists each row's accepted points
    as a (steps, ambient) array; otherwise it is None.

    sources, when given, is the index into crits of the critical point
    each row leaves (one value, or one per row; -1 for none), and any
    other value or length raises ValueError.  Such a row
    starts at the closed-form solution of its source's linearized flow at
    the source's certified radius for its direction, and counts as a linear
    release (see the module docstring); its start is that point.
    Only those sources, with their orbits, are probed for a radius.

    A row is captured within CAPTURE_TOL of any critical point, and in the
    level region of a sink of its direction with the f carried to its
    point (the start evaluation's at step 0) strictly past the region's
    level.  A row captured by a level region ends at the sink itself and
    counts as a linear capture.  The levels are sampled for every sink in
    both directions whatever the rows' directions, and a source's radius
    depends on its orbit alone, so a row's trajectory does not depend on
    its batch.
    """
    X = np.array(X0, dtype=float)
    if X.ndim == 1 and len(X) == M.ambient:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != M.ambient:
        raise ValueError(f"X0 must have shape (m, {M.ambient}), one start "
                         f"point per row; got shape {X.shape}")
    m = len(X)
    C = np.array([c.coords for c in crits], dtype=float).reshape(-1, M.ambient)
    sgn = _per_row("direction", direction, m)
    bad = sgn[(sgn != -1) & (sgn != 1)]
    if len(bad):
        raise ValueError(f"direction must be -1 (descend) or +1 (ascend); "
                         f"got {bad[0]:g}")
    src = _per_row("sources", -1 if sources is None else sources, m)
    bad = src[(src != np.floor(src)) | (src < -1) | (src >= len(C))]
    if len(bad):
        raise ValueError(f"sources must index crits ({len(C)} points) or be "
                         f"-1 for none; got {bad[0]:g}")
    src = src.astype(int)
    status = np.full(m, UNRESOLVED, dtype=int)
    limit = np.full(m, -1, dtype=int)
    steps_used = np.zeros(m, dtype=int)
    halvings = np.zeros(m, dtype=int)
    linear = np.zeros(m, dtype=bool)
    paths = [[] for _ in range(m)] if keep_paths else None
    tol = STEP_TOL * step_length
    ev = M.evaluator(f)

    def flow(pts, sign):
        # f and the velocity of each row's direction at the rows of pts
        _, J, v, G = ev.first(pts)
        return v, tangent_part(J, sign[:, None] * G)

    def velocity(pts, sign):
        return flow(pts, sign)[1]

    def rk4(P, sign, K1, dt):
        # the new points, f and the velocity K5 there, and the error
        # estimate; K1 is velocity(P), shared by every retry
        h = dt[:, None]
        K2 = velocity(P + 0.5 * h * K1, sign)
        K3 = velocity(P + 0.5 * h * K2, sign)
        K4 = velocity(P + h * K3, sign)
        Pn, f_new, g_new, j_new = ev.project(
            P + (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4))
        K5 = tangent_part(j_new, sign[:, None] * g_new)
        err = (dt / 6.0) * np.sqrt(((K4 - K5) ** 2).sum(axis=1))
        return Pn, f_new, K5, err

    # each row's level around every critical point, and the release
    # radius of its source
    side = (sgn > 0).astype(int)
    rows = np.flatnonzero(src >= 0)
    leaves = np.zeros((2, len(C)), dtype=bool)
    leaves[side[rows], src[rows]] = True
    cert = _certificate(flow, M, crits, C, leaves)
    level = cert.level[side]
    reach = cert.release[side[rows], src[rows]]
    rows, reach = rows[reach > 0], reach[reach > 0]
    released = np.zeros(m, dtype=bool)
    if len(rows):
        Y, ok = _linear_release(M, crits, C, X[rows], src[rows], sgn[rows],
                                reach)
        released[rows[ok]] = True
        X[rows[ok]] = Y[ok]
    X_start = X.copy()

    # the live rows, compacted: each row's point P, f and its velocity K1
    # there, carried from the step that reached it (or the start
    # evaluation), the size dt of its next attempt, its accepted steps and
    # halvings, and tries, the halvings of the step it is attempting
    live = np.arange(m if max_steps > 0 else 0)
    if len(live):
        # the start evaluation: each row's f, K1 and first step size
        f_at, K1 = flow(X, sgn)
        f_at = np.array(f_at, dtype=float)
        speed = np.sqrt((K1 * K1).sum(axis=1))
        dt = np.minimum(
            step_length / np.maximum(speed, 1e-4 * step_length), DT_CAP)
    P, sign, lev = X[live], sgn[live], level[live]
    steps, halved, tries = (np.zeros(len(live), dtype=int) for _ in range(3))
    while len(live):
        # a row ends unresolved when its budget of accepted steps is spent
        # or its step is still rejected after MAX_HALVINGS halvings, then
        # by capture, then by escape; a row waiting to retry has not moved,
        # so it fails the capture and escape tests again
        end = (steps >= max_steps) | (tries > MAX_HALVINGS)
        if len(C):
            E = P[:, None, :] - C[None, :, :]
            D = np.sqrt((E * E).sum(axis=2))
            # within CAPTURE_TOL, or in a level region past its level
            inside = (D < CAPTURE_TOL) | (
                (D < cert.region)
                & (sign[:, None] * (f_at[:, None] - lev) > 0))
            hit = inside.any(axis=1) & ~end
            if hit.any():
                which = np.flatnonzero(hit)
                Dh = np.where(inside[hit], D[hit], np.inf)
                k = Dh.argmin(axis=1)
                status[live[which]] = CAPTURED
                limit[live[which]] = k
                # a row in a level region ends at its sink
                lin = Dh[np.arange(len(k)), k] >= CAPTURE_TOL
                linear[live[which[lin]]] = True
                P[which[lin]] = C[k[lin]]
                end |= hit
        far = ~end & (np.sqrt((P * P).sum(axis=1)) > escape_radius)
        status[live[far]] = ESCAPED
        end |= far
        if end.any():
            gone = live[end]
            X[gone], steps_used[gone], halvings[gone] = (
                P[end], steps[end], halved[end])
            keep = ~end
            live, P, f_at, K1, dt, sign, lev, steps, halved, tries = (
                a[keep] for a in (live, P, f_at, K1, dt, sign, lev, steps,
                                  halved, tries))
            if not len(live):
                break

        # one RK4 attempt of every live row.  A step over tol or not
        # monotone in f is halved and retried in the next round; a NaN
        # value compares false, so it counts as non-monotone.  A first
        # attempt may rise by a relative 1e-14, a retry must strictly
        # decrease f along the flow: within that slack a step halved about
        # 47 times barely moves and would always pass
        Pn, f_new, K5, err = rk4(P, sign, K1, dt)
        rise = -sign * (f_new - f_at)
        retry = tries > 0
        ok = np.where(retry, rise < 0,
                      rise <= 1e-14 * np.maximum(np.abs(f_at), 1.0)) & (
            err <= tol)
        # the standard fourth-order controller, never up right after a
        # retry; an error below tol / 100 grows the step the full factor 2
        grow = np.clip(0.9 * (tol / np.maximum(err, 0.01 * tol)) ** 0.25,
                       0.5, 2.0)
        dt = dt * np.where(ok, np.where(retry, np.minimum(grow, 1.0), grow),
                           0.5)
        if keep_paths:
            for j in np.flatnonzero(ok):
                paths[live[j]].append(Pn[j].copy())
        P = np.where(ok[:, None], Pn, P)
        f_at = np.where(ok, f_new, f_at)
        K1 = np.where(ok[:, None], K5, K1)
        steps += ok
        tries = np.where(ok, 0, tries + 1)
        halved += ~ok & (tries <= MAX_HALVINGS)

    return FlowBatch(X_start, X, status, limit, steps_used, halvings, linear,
                     released,
                     [np.array(p) for p in paths] if keep_paths else None)
