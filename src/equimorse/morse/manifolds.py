"""Implicit G-manifolds and equivariant smooth functions.

Manifolds are zero sets of polynomial constraint maps in Euclidean space
with an orthogonal action; the metric is the induced one, so invariance is
automatic.

Everything here is batched: functions, constraints and their derivatives
are evaluated on the rows of an (m x n) array, and there are no scalar
forms; a single point is passed as a batch of one, p[None], and its result
read from row 0.  Each row's result is bit for bit independent of the other
rows, so batches can be split and merged freely.  Polynomial data (a
function with its gradient and Hessian, or a constraint map with its
Jacobian and Hessians) is compiled once into a PolyTable, which evaluates
all of its polynomials at all rows in one pass, with powers formed by
multiplication so that its values are the same bits on every IEEE host.

An Evaluator reads f and the constraints at the same points.  For a
polynomial f on a manifold with constraints it compiles them into one
joint table per derivative order, [f, grad f, c, grad c] and [hess f, hess
c], whose columns equal f's and the manifold's own tables bit for bit, so
the flow's velocity, its projection and Newton's KKT step each read what
they need from one call.  Any other function, or a manifold without
constraints, is evaluated through its own tables.  M.evaluator(f) keeps
the last Evaluator it built, so the critical-point search, classify and
every flow batch of one f stack its joint tables once.

The Gauss-Newton projection onto the zero set (project_points_jacobian_many)
returns the Jacobian at the projected points with them, and whatever else
its evaluation gives there (an Evaluator's f and grad f), read from its
own last evaluation; tangent_part projects onto the tangent spaces from a
Jacobian already in hand.  The flow uses both, so a projected point is
evaluated once.  One constraint, the common case, divides by |J|^2
instead of a stacked 1 x 1 solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..polynomials import LinearAction, Polynomial

__all__ = ["EqFunction", "Evaluator", "ImplicitGManifold", "PolyTable",
           "tangent_frame", "tangent_part"]


class PolyTable:
    """Exact polynomials in the same variables, compiled for float batch
    evaluation: the Morse layer's one float form of a polynomial.

    Each coefficient num / den is rounded to float once.  The polynomials
    share one exponent table (every monomial any of them uses) and a
    (monomials x polynomials) coefficient matrix.  Evaluating
    at the rows of X builds the powers of the used variables by sequential
    multiplication, x^k = x^(k-1) * x, in one (D+1, nv) block per row, D
    the top degree: a variable's factor above its own top degree is 1, so
    no power is formed that a per-variable table would not form.  Products
    of floats round the same way on every IEEE host, where `**` follows
    the host's pow and may differ in the last bit, so a table's values are
    the same everywhere.  Each monomial's powers are gathered with one flat
    index and multiplied in variable order into the monomial matrix, and
    the result is mono @ coef.  That product is an einsum, not a BLAS
    matmul: BLAS picks its kernel by the number of rows, so a row's value
    would depend in the last bit on the other rows of the batch.

    Tables of different polynomials agree bit for bit on the polynomials
    they share: a variable a monomial lacks contributes an exact factor 1,
    and a monomial a polynomial lacks an exact zero term, so a joint table
    of f and the constraints (see Evaluator) equals their own tables.
    """

    def __init__(self, polys, nvars: int):
        polys = list(polys)
        expos = sorted(set().union(*(p.num for p in polys)))
        coef = np.zeros((len(expos), len(polys)))
        row = {e: i for i, e in enumerate(expos)}
        for j, p in enumerate(polys):
            for e, c in p.num.items():
                # int / int rounds correctly, as float(Fraction) does
                coef[row[e], j] = c / p.den
        self._compile(np.array(expos, dtype=np.int64).reshape(len(expos), nvars),
                      coef)

    @classmethod
    def stacked(cls, tables) -> "PolyTable":
        """One table of the polynomials of every table, in order: their
        monomials' union, each table's coefficients copied into its own
        columns."""
        expos = sorted({e for t in tables for e in map(tuple, t.expo.tolist())})
        row = {e: i for i, e in enumerate(expos)}
        coef = np.zeros((len(expos), sum(t.coef.shape[1] for t in tables)))
        j = 0
        for t in tables:
            rows = [row[e] for e in map(tuple, t.expo.tolist())]
            coef[rows, j:j + t.coef.shape[1]] = t.coef
            j += t.coef.shape[1]
        table = cls.__new__(cls)
        table._compile(np.array(expos, dtype=np.int64).reshape(
            len(expos), tables[0].expo.shape[1]), coef)
        return table

    def _compile(self, expo: np.ndarray, coef: np.ndarray):
        """Set up the evaluation of the monomials expo (sorted rows of
        exponents) with the coefficient matrix coef."""
        self.expo, self.coef = expo, coef
        nvars = expo.shape[1]
        top = expo.max(axis=0) if len(expo) else np.zeros(nvars, np.int64)
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
        powers = powers.reshape(len(X), -1)
        # einsum's summation order follows the layout of the monomial
        # matrix, so it is made row-major at every batch size
        mono = np.ascontiguousarray(np.take(powers, self._col, axis=1).prod(axis=2))
        return np.einsum("mk,kp->mp", mono, self.coef)


def _gram_solve(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(J J^T)^{-1} R for every row, with J of shape (m, c, N) and R of
    shape (m, c).  One constraint divides by |J|^2 (the tests check that
    this equals the stacked 1 x 1 solve bit for bit); two or more take the
    stacked solve."""
    G = np.einsum("mcn,mdn->mcd", J, J)
    if J.shape[1] == 1:
        return R / G[..., 0]
    return np.linalg.solve(G, R[..., None])[..., 0]


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
    """A smooth function given by two batched callables on (m x n) arrays:
    value_grad_many returns the values and gradients, shapes (m,) and
    (m, n), from one evaluation, and hess_many the Hessians, (m, n, n).

    Every function defines value_grad_many and hess_many, and nothing
    else evaluates it: value_many and grad_many are views of
    value_grad_many, so a caller that needs both reads them from one call.
    Subclasses override value_grad_many and hess_many.
    """

    def __init__(self, value_grad_many, hess_many, *, nvars=None, name=""):
        self._value_grad_many = value_grad_many
        self._hess_many = hess_many
        self.nvars = nvars
        self.name = name or "f"

    def value_grad_many(self, X):
        """(values, gradients) at the rows of X from one evaluation."""
        return self._value_grad_many(np.asarray(X, dtype=float))

    def hess_many(self, X) -> np.ndarray:
        return self._hess_many(np.asarray(X, dtype=float))

    def value_many(self, X) -> np.ndarray:
        return self.value_grad_many(X)[0]

    def grad_many(self, X) -> np.ndarray:
        return self.value_grad_many(X)[1]

    def invariance_error(self, act: LinearAction, samples) -> float:
        """max |f(A_s x) - f(x)| over the samples and group elements."""
        X = np.asarray(samples, dtype=float)
        fx = self.value_many(X)
        worst = 0.0
        for s in act.group.elements():
            M = np.array([[float(v) for v in row] for row in act.matrices[s]])
            worst = max(worst, float(np.max(np.abs(self.value_many(X @ M.T) - fx),
                                            initial=0.0)))
        return worst

    @classmethod
    def from_polynomial(cls, poly: Polynomial, name="") -> "EqFunction":
        n = poly.nvars
        grads = [poly.derivative(i) for i in range(n)]
        # value and gradient in one table, the Hessian in a second
        first = PolyTable([poly] + grads, n)
        second = PolyTable([g.derivative(j) for g in grads for j in range(n)], n)

        def value_grad_many(X):
            T = first(X)
            return T[:, 0], T[:, 1:]

        def hess_many(X):
            return second(X).reshape(len(X), n, n)

        f = cls(value_grad_many, hess_many, nvars=n, name=name or "poly")
        f.polynomial = poly
        # the tables, for an Evaluator to stack with a manifold's
        f._first, f._second = first, second
        return f


@dataclass(eq=False)
class ImplicitGManifold:
    """Zero set of polynomial constraints with an orthogonal group action.

    An empty constraint list means all of R^ambient.  The action must be by
    orthogonal matrices preserving the constraints; validate_action samples
    that on given points of the zero set.
    """

    ambient: int
    constraints: tuple[Polynomial, ...]
    action: LinearAction
    name: str = ""

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        if self.action.dim != self.ambient:
            raise ValueError("action dimension must match the ambient space")
        if not self.action.is_orthogonal():
            raise ValueError("the action must be orthogonal")
        N = self.ambient
        # constraint values and Jacobian in one table, the Hessians in a second
        grads = [c.derivative(i) for c in self.constraints for i in range(N)]
        self._first = PolyTable(list(self.constraints) + grads, N)
        self._second = PolyTable(
            [g.derivative(j) for g in grads for j in range(N)], N
        )
        # the float matrix of every group element, indexed by the element
        self.act_mats = [
            np.array([[float(v) for v in row] for row in self.action.matrices[s]])
            for s in self.action.group.elements()
        ]
        self._evaluator = None

    @property
    def codim(self) -> int:
        return len(self.constraints)

    @property
    def dim(self) -> int:
        return self.ambient - self.codim

    def constraint_values_many(self, X) -> np.ndarray:
        return self._first(X)[:, :self.codim]

    def jacobian_many(self, X) -> np.ndarray:
        """(m, codim, ambient)."""
        return self.constraint_values_and_jacobian_many(X)[1]

    def constraint_values_and_jacobian_many(self, X):
        """(F, J) of shapes (m, codim) and (m, codim, ambient) from one
        evaluation of the constraint table."""
        T = self._first(X)
        c = self.codim
        return T[:, :c], T[:, c:].reshape(len(T), c, self.ambient)

    def constraint_hessians_many(self, X) -> np.ndarray:
        """(m, codim, ambient, ambient)."""
        N = self.ambient
        return self._second(X).reshape(len(X), self.codim, N, N)

    def tangent_basis(self, x) -> np.ndarray:
        """Columns form an orthonormal basis of the tangent space at x."""
        if not self.constraints:
            return np.eye(self.ambient)
        J = self.jacobian_many(np.asarray(x, dtype=float)[None, :])[0]
        return tangent_frame(J)

    def project_tangent_many(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The tangential part of every row of V at the same row of X."""
        if not self.constraints:
            return V
        return tangent_part(self.jacobian_many(X), V)

    def project_points_many(self, X: np.ndarray, tol=1e-12, iters=20) -> np.ndarray:
        """Every row of X projected onto the zero set (see
        project_points_jacobian_many)."""
        return self.project_points_jacobian_many(X, tol, iters)[0]

    def project_points_jacobian_many(self, X: np.ndarray, tol=1e-12, iters=20,
                                     *, evaluate=None):
        """Gauss-Newton projection of every row onto the zero set, by
        minimum-norm steps J^T (J J^T)^{-1} F, with the Jacobian at each
        projected row: (points, J) of shapes (m, ambient) and (m, codim,
        ambient).

        evaluate(X) returns (F, J, *rest) at the rows of X, by default the
        constraint table's (F, J); every further per-row array in rest is
        returned too, at the projected points, after J (Evaluator passes
        f's value and gradient from its joint table this way).

        Only the rows whose residual is still at least tol take a step, so
        a row's result does not depend on the other rows of the batch.  A
        row stops at a point where evaluate was just called, so its J and
        rest are read from that call; only a row still moving after iters
        steps takes one more.
        """
        if not self.constraints:
            return X, np.zeros((len(X), 0, self.ambient))
        evaluate = evaluate or self.constraint_values_and_jacobian_many
        X = np.array(X, dtype=float)
        rows = np.arange(len(X))
        out = None
        for _ in range(iters):
            F, *at = evaluate(X[rows])
            if out is None:
                out = [np.empty((len(X),) + a.shape[1:]) for a in at]
            done = np.max(np.abs(F), axis=1, initial=0.0) < tol
            for o, a in zip(out, at):
                o[rows[done]] = a[done]
            if done.all():
                break
            left = ~done
            rows, F, J = rows[left], F[left], at[0][left]
            X[rows] -= np.einsum("mcn,mc->mn", J, _gram_solve(J, F))
        else:
            for o, a in zip(out, evaluate(X[rows])[1:]):
                o[rows] = a
        return (X, *out)

    def evaluator(self, f: EqFunction) -> "Evaluator":
        """The Evaluator of f on this manifold.  The last one built is
        kept, so the calls that read the same f in turn (classify at each
        critical point, each flow batch) stack its joint tables once."""
        if self._evaluator is None or self._evaluator.f is not f:
            self._evaluator = Evaluator(f, self)
        return self._evaluator

    def apply(self, s: int, x) -> np.ndarray:
        return self.act_mats[s] @ np.asarray(x, dtype=float)

    def validate_action(self, sample_points, tol=1e-9) -> float:
        """max |F(A_s x)| over samples of the zero set; must stay below tol."""
        X = self.project_points_many(np.array(sample_points, dtype=float)
                                     .reshape(-1, self.ambient))
        moved = np.einsum("gij,mj->gmi", np.array(self.act_mats), X)
        F = self.constraint_values_many(moved.reshape(-1, self.ambient))
        worst = float(np.max(np.abs(F), initial=0.0))
        if worst >= tol:
            raise ValueError(f"action does not preserve the zero set: {worst:.2e}")
        return worst


class Evaluator:
    """f and the constraints of M evaluated at the same points.

    first(X) returns f's values and gradients with the constraint values
    and Jacobian, shapes (m,), (m, N), (m, c) and (m, c, N), and
    gradients(X) the same without the values; second(X) returns f's
    Hessians and the constraint Hessians, (m, N, N) and (m, c, N, N), and
    lagrangian_hessians(X, lam) contracts them with the multipliers;
    project(X) is M's Gauss-Newton projection, returning the projected
    points with f's values, gradients and the Jacobian there.

    For a polynomial f (from_polynomial keeps .polynomial) on M with
    constraints, first and second are one PolyTable call each, of the
    joint tables [f, grad f, c, grad c] and [hess f, hess c], and the
    projection steps on the joint first-order table, so its last
    evaluation of a row also gives f there.  The joint tables stack f's
    and M's own (PolyTable.stacked), and their columns equal those tables'
    bit for bit: the monomials one of them lacks add exact zeros.
    Otherwise first and second call f and M's own tables, and project
    calls f once at the projected points; at codim 0 the constraint arrays
    are empty and no constraint table is called.
    """

    def __init__(self, f: EqFunction, M: ImplicitGManifold):
        self.f, self.M = f, M
        self._first = self._second = None
        if getattr(f, "polynomial", None) is not None and M.codim:
            self._first = PolyTable.stacked([f._first, M._first])
            self._second = PolyTable.stacked([f._second, M._second])

    def first(self, X):
        """(values, gradients, F, J) at the rows of X."""
        if self._first is None:
            return (*self.f.value_grad_many(X), *self._constraints(X))
        N, c = self.M.ambient, self.M.codim
        T = self._first(X)
        return (T[:, 0], T[:, 1:N + 1], T[:, N + 1:N + 1 + c],
                T[:, N + 1 + c:].reshape(len(T), c, N))

    def gradients(self, X):
        """(gradients, F, J) at the rows of X: first without the values, so
        without a joint table it calls f.grad_many."""
        if self._first is None:
            return (self.f.grad_many(X), *self._constraints(X))
        return self.first(X)[1:]

    def _constraints(self, X):
        """M's own (F, J), empty arrays at codim 0."""
        M = self.M
        if M.codim:
            return M.constraint_values_and_jacobian_many(X)
        return np.empty((len(X), 0)), np.empty((len(X), 0, M.ambient))

    def second(self, X):
        """(Hessians of f, constraint Hessians) at the rows of X."""
        M = self.M
        N, c = M.ambient, M.codim
        if self._second is None:
            return self.f.hess_many(X), (M.constraint_hessians_many(X) if c
                                         else np.empty((len(X), 0, N, N)))
        T = self._second(X)
        return (T[:, :N * N].reshape(len(T), N, N),
                T[:, N * N:].reshape(len(T), c, N, N))

    def lagrangian_hessians(self, X, lam):
        """The Hessians of f - lam . c at the rows of X, with lam of shape
        (m, c): f's alone at codim 0."""
        if not self.M.codim:
            return self.f.hess_many(X)
        H, CH = self.second(X)
        return H - np.einsum("mk,mkij->mij", lam, CH)

    def _constraints_first(self, X):
        """first(X) with F and J in front, as the projection reads them."""
        v, g, F, J = self.first(X)
        return F, J, v, g

    def project(self, X, tol=1e-12, iters=20):
        """(points, values, gradients, J) at the projection of every row of
        X onto M (see ImplicitGManifold.project_points_jacobian_many)."""
        M = self.M
        if self._first is None:
            X, J = M.project_points_jacobian_many(X, tol, iters)
            return (X, *self.f.value_grad_many(X), J)
        X, J, v, g = M.project_points_jacobian_many(
            X, tol, iters, evaluate=self._constraints_first)
        return X, v, g, J
