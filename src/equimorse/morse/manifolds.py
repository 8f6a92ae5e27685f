"""Implicit G-manifolds, their actions and equivariant smooth functions.

Manifolds are zero sets of polynomial constraint maps in Euclidean space
with an orthogonal action; the metric is the induced one, so invariance is
automatic.  The action is an OrthogonalAction, the Morse layer's one
action; a manifold given an exact LinearAction holds the OrthogonalAction
of its matrices, rounded once.  Two points are the same point when
match_rows says so, within DEDUP_TOL: that one predicate gives the
action's stabilizers and every other "same point" of the Morse layer.

Everything here is batched: functions, constraints and their derivatives
are evaluated on the rows of an (m x n) array, and there are no scalar
forms; a single point is passed as a batch of one, p[None], and its result
read from row 0.  Each row's result is bit for bit independent of the other
rows, so batches can be split and merged freely.  Every list of
polynomials (a polynomial function, a constraint map, or both at once) is
compiled once into a PolyJet, whose one evaluation jet(X, order) gives
their values, gradients and Hessians from two PolyTables, with powers
formed by multiplication so that its values are the same bits on every
IEEE host.  A polynomial EqFunction is column 0 of its PolyJet, and
M.jet(X, order) is the constraint map's.

An Evaluator reads f and the constraints at the same points, through one
jet(X, order) that returns [(f, F), (grad f, J), (hess f, CH)][:order + 1].
For a polynomial f on a manifold with constraints it compiles them into
one joint PolyJet, [f, c], whose columns equal f's and the manifold's own
bit for bit (see PolyTable), so Newton's residual and KKT matrix come from
one call.  The flow's stages read f, grad f, F and J through
Evaluator.first, as views of one call of the joint PolyJet's first table:
its velocities, and each Gauss-Newton step of its projection (the
evaluate of project_points_jacobian_many).  Any other function, or a
manifold without constraints, is evaluated through f's jet_many and
M.jet.  M.evaluator(f) keeps the last Evaluator it built, so the
critical-point search, classify and every flow batch of one f compile its
joint PolyJet once.

The Gauss-Newton projection onto the zero set (project_points_jacobian_many)
returns the Jacobian at the projected points with them, and whatever else
its evaluation gives there (an Evaluator's f and grad f), read from its
own last evaluation; tangent_part projects onto the tangent spaces from a
Jacobian already in hand.  The flow uses both, so a projected point is
evaluated once.  One constraint, the common case, divides by |J|^2
instead of a stacked 1 x 1 solve; two or more take _solve_stack, the
stacked solve Newton's KKT steps use, where a row whose Jacobian drops
rank falls back alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..groups import FiniteGroup, Subgroup
from ..polynomials import LinearAction, Polynomial

__all__ = ["DEDUP_TOL", "EqFunction", "Evaluator", "ImplicitGManifold",
           "OrthogonalAction", "PolyJet", "PolyTable", "check_order",
           "match_rows", "tangent_frame", "tangent_part"]

# the constraint residual below which a projected row stops
PROJECT_TOL = 1e-12
# validate_action: the largest constraint residual a group element may
# leave at a point of the zero set
ACTION_TOL = 1e-9
# OrthogonalAction: the largest entry by which A_a A_b may miss A_ab, or
# A^T A the identity
LAW_TOL = 1e-12
# match_rows: two points closer than DEDUP_TOL are the same point
DEDUP_TOL = 1e-6


def check_order(order) -> None:
    """Raise ValueError unless order is a jet order, 0, 1 or 2: every jet
    of the Morse layer checks the order it is given."""
    if order not in (0, 1, 2):
        raise ValueError(f"jet order must be 0, 1 or 2, not {order!r}")


def match_rows(X, C) -> np.ndarray:
    """For each row of X, the index of the first row of C within DEDUP_TOL
    of it (Euclidean distance), or -1 where there is none: the Morse
    layer's one test of "the same point".  Stabilizers, the search's
    deduplication, the translate table of a critical set and the lookup of
    a fixture's chart all read it.  X is (m, n) and C is (k, n); the
    distances are one (m, k) array."""
    X, C = np.asarray(X, dtype=float), np.asarray(C, dtype=float)
    k = len(C)
    near = np.linalg.norm(X[:, None, :] - C[None], axis=2) < DEDUP_TOL
    first = np.where(near, np.arange(k), k).min(axis=1, initial=k)
    return np.where(first < k, first, -1)


class OrthogonalAction:
    """A finite group acting on R^n by orthogonal matrices, in floats: the
    Morse layer's one action.

    matrices is the (|G|, n, n) float array of every group element's
    matrix, indexed by the element, read from any real entries (an exact
    LinearAction's rationals are rounded once).  The group law and
    orthogonality are checked to LAW_TOL in every entry, in one pass over
    all pairs of elements; ValueError names the first pair (a, b), in row
    order, whose product misses A_ab, or the first element that is not
    orthogonal.
    """

    def __init__(self, group: FiniteGroup, matrices):
        self.group = group
        A = np.array(matrices, dtype=float)
        if A.ndim != 3 or A.shape != (group.order, A.shape[1], A.shape[1]):
            raise ValueError("one square matrix of equal size per group "
                             "element required")
        self.matrices = A
        self.dim = A.shape[1]
        prod = np.einsum("aij,bjk->abik", A, A)
        law = (np.abs(prod - A[np.array(group.mul)]) <= LAW_TOL).all(axis=(2, 3))
        if not law.all():
            a, b = np.argwhere(~law)[0]
            raise ValueError(f"representation law fails on ({a},{b})")
        gram = np.einsum("sji,sjk->sik", A, A)
        ortho = (np.abs(gram - np.eye(self.dim)) <= LAW_TOL).all(axis=(1, 2))
        if not ortho.all():
            raise ValueError(f"matrix for element {np.argmin(ortho)} is not "
                             f"orthogonal")

    @classmethod
    def rotation(cls, n: int) -> "OrthogonalAction":
        """C_n rotating R^2 by multiples of 2*pi/n."""
        mats = []
        for j in range(n):
            th = 2.0 * math.pi * j / n
            c, s = math.cos(th), math.sin(th)
            mats.append(((c, -s), (s, c)))
        return cls(FiniteGroup.cyclic(n), mats)

    def stabilizer(self, x) -> Subgroup:
        """The elements whose image of x is the same point as x, by
        match_rows."""
        x = np.asarray(x, dtype=float)
        fixed = match_rows(self.matrices @ x, x[None]) == 0
        return Subgroup(self.group, tuple(
            int(s) for s in np.flatnonzero(fixed)))


class PolyTable:
    """Exact polynomials in the same variables, compiled for float batch
    evaluation: the Morse layer's one float form of a polynomial, built
    only by PolyJet.

    Each coefficient num / den is rounded to float once; the exact
    polynomials are kept as polys.  The polynomials share one exponent
    table (every monomial any of them uses) and a (monomials x polynomials)
    coefficient matrix.  Evaluating at the rows of X builds the powers of
    the used variables by sequential multiplication, x^k = x^(k-1) * x, in
    one (D+1, nv) block per row, D the top degree: a variable's factor
    above its own top degree is 1, so no power is formed that a
    per-variable table would not form.  Products of floats round the same
    way on every IEEE host, where `**` follows the host's pow and may
    differ in the last bit, so a table's values are the same everywhere.
    Each monomial's powers are gathered with one flat index, and the
    monomial matrix is their product in variable order, formed as whole
    (rows x monomials) slices: the first variable's powers, times the
    second's, and so on.  A reduction over the short variable axis (1 to 3
    entries) forms the same products but runs numpy's reduce loop once per
    (row, monomial) pair, which made a call of the torus's joint table
    (22 monomials in 3 variables) up to 1.8 times as slow.  The result is
    mono @ coef.  That product is an einsum, not a BLAS matmul: BLAS picks
    its kernel by the number of rows, so a row's value would depend in the
    last bit on the other rows of the batch.

    A table over the concatenated polynomials of several tables, in any
    order, equals those tables column for column (a property test checks
    this for the Evaluator's joint PolyJet): a variable a monomial lacks
    contributes an exact factor 1, and a monomial a polynomial lacks an
    exact zero term.  That needs two or more columns in every table: einsum
    sums a one-column table in another order, so a table of one polynomial
    alone may differ in the last bit (the sphere constraint at (1.5, 0.1,
    -0.4) does).
    """

    def __init__(self, polys, nvars: int):
        self.polys = tuple(polys)
        expos = sorted(set().union(*(p.num for p in self.polys)))
        coef = np.zeros((len(expos), len(self.polys)))
        row = {e: i for i, e in enumerate(expos)}
        for j, p in enumerate(self.polys):
            for e, c in p.num.items():
                # int / int rounds correctly, as float(Fraction) does
                coef[row[e], j] = c / p.den
        self.expo = np.array(expos, dtype=np.int64).reshape(len(expos), nvars)
        self.coef = coef
        top = self.expo.max(axis=0) if len(expos) else np.zeros(nvars, np.int64)
        # the variables some monomial uses, as a basic slice (no copy) when
        # that is all of them; row k of the factor block is x for the
        # variables of top degree at least k (k >= 1), else 1
        used = np.flatnonzero(top)
        self._vars = slice(None) if len(used) == nvars else used
        ks = np.arange(int(top.max(initial=0)) + 1)[:, None]
        self._mult = (ks >= 1) & (ks <= top[used])
        # every (monomial, variable) power as a flat index into that block
        self._col = self.expo[:, used] * len(used) + np.arange(len(used))

    def __call__(self, X) -> np.ndarray:
        """All polynomials at all rows of X: shape (m, len(polys))."""
        X = np.asarray(X, dtype=float)
        powers = np.where(self._mult, X[:, None, self._vars], 1.0)
        np.multiply.accumulate(powers, axis=1, out=powers)
        powers = powers.reshape(len(X), powers.shape[1] * powers.shape[2])
        picked = powers.take(self._col, axis=1)
        # a row-major copy: einsum's summation order follows the layout of
        # the monomial matrix.  A table that uses no variable has monomials
        # 1 only
        mono = (picked[:, :, 0].copy() if picked.shape[2]
                else np.ones(picked.shape[:2]))
        for v in range(1, picked.shape[2]):
            mono *= picked[:, :, v]
        return np.einsum("mk,kp->mp", mono, self.coef)


class PolyJet:
    """k exact polynomials in N variables with their exact first and second
    derivatives, compiled once: the one float evaluation of every list of
    polynomials.

    jet(X, order), order 0, 1 or 2, returns [values, gradients,
    Hessians][:order + 1] at the rows of X, shapes (m, k), (m, k, N) and
    (m, k, N, N).  The values and gradients come from one PolyTable
    [p_1..p_k, grad p_1, ..., grad p_k], the Hessians from a second, which
    only order 2 calls; with no polynomials no table is called.
    """

    def __init__(self, polys, nvars: int):
        self.polys = tuple(polys)
        self.nvars = N = nvars
        grads = [p.derivative(i) for p in self.polys for i in range(N)]
        self._first = PolyTable(self.polys + tuple(grads), N)
        self._second = PolyTable(
            [g.derivative(j) for g in grads for j in range(N)], N)

    def __call__(self, X, order: int) -> list:
        check_order(order)
        k, N, m = len(self.polys), self.nvars, len(X)
        T = self._first(X) if k else np.empty((m, 0))
        jet = [T[:, :k], T[:, k:].reshape(m, k, N)]
        if order == 2:
            S = self._second(X) if k else np.empty((m, 0))
            jet.append(S.reshape(m, k, N, N))
        return jet[:order + 1]


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


def _gram_solve(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(J J^T)^{-1} R for every row, with J of shape (m, c, N) and R of
    shape (m, c).  One constraint divides by |J|^2 (the tests check that
    this equals the stacked 1 x 1 solve bit for bit); two or more take the
    stacked solve of _solve_stack, where a row whose J drops rank falls
    back alone and the others are solved as they would be alone."""
    G = np.einsum("mcn,mdn->mcd", J, J)
    if J.shape[1] == 1:
        return R / G[..., 0]
    return _solve_stack(G, R)


def tangent_part(J: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V - J^T (J J^T)^{-1} J V for every row: the part of V tangent to the
    zero set at a point whose constraint Jacobian is J, shape (m, c, N).
    With no constraints (c = 0) that is V itself."""
    if not J.shape[1]:
        return V
    lam = _gram_solve(J, np.einsum("mcn,mn->mc", J, V))
    return V - np.einsum("mcn,mc->mn", J, lam)


def tangent_frame(J: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the tangent space at a point
    whose constraint Jacobian is J, shape (c, N): the identity when c = 0."""
    c, N = J.shape
    if not c:
        return np.eye(N)
    _, _, vt = np.linalg.svd(J)
    return vt[c:].T


class EqFunction:
    """A smooth function given by one batched callable on (m x n) arrays:
    jet_many(X, order), order 0, 1 or 2, returns [values, gradients,
    Hessians][:order + 1], shapes (m,), (m, n) and (m, n, n), from one
    evaluation.

    jet_many is the one evaluation of every function: value_many and
    grad_many are views of it, and a caller that needs several orders
    reads them from one call.  Subclasses override jet_many, computing
    only the orders asked for, so that a lower order equals the leading
    entries of a higher one bit for bit.  A polynomial function
    (from_polynomial) is column 0 of a PolyJet.
    """

    def __init__(self, jet_many, *, nvars=None):
        self._jet_many = jet_many
        self.nvars = nvars

    def jet_many(self, X, order: int) -> list:
        """[values, gradients, Hessians][:order + 1] at the rows of X."""
        check_order(order)
        return self._jet_many(np.asarray(X, dtype=float), order)

    def value_many(self, X) -> np.ndarray:
        return self.jet_many(X, 0)[0]

    def grad_many(self, X) -> np.ndarray:
        return self.jet_many(X, 1)[1]

    def invariance_error(self, act: OrthogonalAction | LinearAction,
                         samples) -> float:
        """max |f(A_s x) - f(x)| over the samples and group elements, from
        one evaluation at every translate of every sample; the matrices of
        an exact action are rounded once."""
        X = np.asarray(samples, dtype=float)
        moved = np.einsum("gij,mj->gmi", np.asarray(act.matrices, dtype=float), X)
        fs = self.value_many(moved.reshape(-1, act.dim))
        return float(np.max(np.abs(fs.reshape(len(moved), len(X))
                                   - self.value_many(X)), initial=0.0))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "EqFunction":
        """poly as column 0 of its PolyJet; .polynomial keeps it, which an
        Evaluator joins with a manifold's constraints."""
        jet = PolyJet([poly], poly.nvars)
        f = cls(lambda X, order: [a[:, 0] for a in jet(X, order)],
                nvars=poly.nvars)
        f.polynomial = poly
        return f


@dataclass(eq=False)
class ImplicitGManifold:
    """Zero set of polynomial constraints with an orthogonal group action.

    An empty constraint list means all of R^ambient.  action may be given
    as an OrthogonalAction or an exact LinearAction, and is held as the
    OrthogonalAction of its matrices, which checks that they are
    orthogonal.  It must preserve the constraints; validate_action samples
    that on given points of the zero set.

    jet(X, order) is the constraint map's one evaluation, the PolyJet of
    the constraints: [F, J, CH][:order + 1], shapes (m, codim), (m, codim,
    ambient) and (m, codim, ambient, ambient), empty at codim 0, where no
    table is called.
    """

    ambient: int
    constraints: tuple[Polynomial, ...]
    action: OrthogonalAction

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        self.action = OrthogonalAction(self.action.group, self.action.matrices)
        if self.action.dim != self.ambient:
            raise ValueError("action dimension must match the ambient space")
        self.jet = PolyJet(self.constraints, self.ambient)
        self._evaluator = None

    @property
    def codim(self) -> int:
        return len(self.constraints)

    @property
    def dim(self) -> int:
        return self.ambient - self.codim

    def project_points_many(self, X: np.ndarray, iters=20) -> np.ndarray:
        """Every row of X projected onto the zero set (see
        project_points_jacobian_many)."""
        return self.project_points_jacobian_many(X, iters)[0]

    def project_points_jacobian_many(self, X: np.ndarray, iters=20, *,
                                     evaluate=None):
        """Gauss-Newton projection of every row onto the zero set, by
        minimum-norm steps J^T (J J^T)^{-1} F, with the Jacobian at each
        projected row: (points, J) of shapes (m, ambient) and (m, codim,
        ambient).

        evaluate(X) returns (F, J, *rest) at the rows of X, by default
        jet(X, 1); every further per-row array in rest is returned too, at
        the projected points, after J (Evaluator passes f's value and
        gradient from its joint PolyJet this way).

        Only the rows whose residual is still at least PROJECT_TOL take a
        step, so a row's result does not depend on the other rows of the
        batch.  A row stops at a point where evaluate was just called, so
        its J and rest are read from that call; only a row still moving
        after iters steps takes one more, and with iters=0 every row is
        returned as it is, with J and rest from one evaluation.  The moving
        rows are gathered into a batch of their own, and the results
        scattered back, only once some rows stop before others: a batch
        whose rows all stop at the same step is evaluated in place.
        """
        if not self.constraints:
            return X, np.zeros((len(X), 0, self.ambient))
        evaluate = evaluate or (lambda X: self.jet(X, 1))
        X = np.array(X, dtype=float)
        # the moving rows Y, compacted; rows is None while every row still
        # moves, and out holds the results of the rows that stopped
        Y, rows, out = X, None, None
        for _ in range(iters):
            F, *at = evaluate(Y)
            done = np.max(np.abs(F), axis=1, initial=0.0) < PROJECT_TOL
            if done.all():
                break
            if done.any():
                if rows is None:
                    rows = np.arange(len(X))
                    out = [np.empty((len(X),) + a.shape[1:]) for a in at]
                X[rows[done]] = Y[done]
                for o, a in zip(out, at):
                    o[rows[done]] = a[done]
                left = ~done
                rows, Y, F = rows[left], Y[left], F[left]
                at = [a[left] for a in at]
            J = at[0]
            Y -= np.einsum("mcn,mc->mn", J, _gram_solve(J, F))
        else:
            at = evaluate(Y)[1:]
        if rows is None:
            return (Y, *at)
        X[rows] = Y
        for o, a in zip(out, at):
            o[rows] = a
        return (X, *out)

    def evaluator(self, f: EqFunction) -> "Evaluator":
        """The Evaluator of f on this manifold.  The last one built is
        kept, so the calls that read the same f in turn (classify at each
        critical point, each flow batch) compile its joint tables once."""
        if self._evaluator is None or self._evaluator.f is not f:
            self._evaluator = Evaluator(f, self)
        return self._evaluator

    def apply(self, s: int, x) -> np.ndarray:
        return self.action.matrices[s] @ np.asarray(x, dtype=float)

    def validate_action(self, sample_points) -> float:
        """max |F(A_s x)| over the sample points projected onto the zero
        set; raises ValueError unless it stays below ACTION_TOL."""
        X = self.project_points_many(np.array(sample_points, dtype=float)
                                     .reshape(-1, self.ambient))
        moved = np.einsum("gij,mj->gmi", self.action.matrices, X)
        (F,) = self.jet(moved.reshape(-1, self.ambient), 0)
        worst = float(np.max(np.abs(F), initial=0.0))
        if worst >= ACTION_TOL:
            raise ValueError(f"action does not preserve the zero set: {worst:.2e}")
        return worst


class Evaluator:
    """f and the constraints of M evaluated at the same points.

    jet(X, order), order 0, 1 or 2, returns [(f, F), (grad f, J), (hess f,
    CH)][:order + 1] at the rows of X: f's values, gradients and Hessians,
    shapes (m,), (m, N) and (m, N, N), each paired with the constraints',
    (m, c), (m, c, N) and (m, c, N, N).  first(X) is the order-1 jet as
    (F, J, f, grad f).  project(X) is M's Gauss-Newton projection,
    returning the projected points with f's values, gradients and the
    Jacobian there.

    For a polynomial f (from_polynomial keeps .polynomial) on M with
    constraints, jet reads one joint PolyJet of f and the constraints, [f,
    c], whose columns equal f's and M's own bit for bit (see PolyTable).
    first reads its first table alone, and the projection steps on first,
    so its last evaluation of a row also gives f there.  Otherwise jet
    pairs f.jet_many with M.jet, and project calls f's order-1 jet once at
    the projected points; at codim 0 the constraint arrays are empty and no
    constraint table is called.
    """

    def __init__(self, f: EqFunction, M: ImplicitGManifold):
        self.f, self.M = f, M
        self._joint = None
        if getattr(f, "polynomial", None) is not None and M.codim:
            self._joint = PolyJet((f.polynomial,) + M.constraints, M.ambient)

    def jet(self, X, order: int) -> list:
        """[(f, F), (grad f, J), (hess f, CH)][:order + 1] at the rows of X."""
        check_order(order)
        if self._joint is None:
            return list(zip(self.f.jet_many(X, order), self.M.jet(X, order)))
        return [(a[:, 0], a[:, 1:]) for a in self._joint(X, order)]

    def first(self, X):
        """(F, J, f, grad f) at the rows of X: the order-1 jet, in the
        order the projection's evaluate returns it.  With a joint PolyJet
        all four are views of one call of its first table, [f, c, grad f,
        grad c], with the strides and bits of jet(X, 1)'s."""
        if self._joint is None:
            (v, F), (g, J) = self.jet(X, 1)
            return F, J, v, g
        T = self._joint._first(X)
        c, N = self.M.codim, self.M.ambient
        return (T[:, 1:c + 1], T[:, c + 1 + N:].reshape(len(T), c, N),
                T[:, 0], T[:, c + 1:c + 1 + N])

    def project(self, X, iters=20):
        """(points, values, gradients, J) at the projection of every row of
        X onto M (see ImplicitGManifold.project_points_jacobian_many)."""
        M = self.M
        if self._joint is None:
            X, J = M.project_points_jacobian_many(X, iters)
            return (X, *self.f.jet_many(X, 1), J)
        X, J, v, g = M.project_points_jacobian_many(X, iters,
                                                    evaluate=self.first)
        return X, v, g, J
