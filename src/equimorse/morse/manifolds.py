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
all of its polynomials at all rows in one pass.

The Gauss-Newton projection onto the zero set returns the Jacobian at the
projected points with them (project_points_jacobian_many), read from its
own last evaluation of the constraint table, and tangent_part projects onto
the tangent spaces from a Jacobian already in hand; the flow uses both, so
a projected point's Jacobian is evaluated once.  One constraint, the common
case, divides by |J|^2 instead of a stacked 1 x 1 solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..polynomials import LinearAction, Polynomial

__all__ = ["EqFunction", "ImplicitGManifold", "PolyTable", "tangent_part"]


class PolyTable:
    """Float polynomials in the same variables, compiled for batch evaluation.

    The polynomials share one exponent table (every monomial any of them
    uses) and a (monomials x polynomials) coefficient matrix.  Evaluating
    at the rows of X takes every power x_i^k of the used variables in one
    `**` on an (nv, D+1) exponent block, D the top degree (a variable's
    exponents above its own top degree are padded with 0, so no power is
    taken that a per-variable table would not take), gathers each
    monomial's powers with one flat index, multiplies them in variable
    order into the monomial matrix, and returns mono @ coef.  That product
    is an einsum, not a BLAS matmul: BLAS picks its kernel by the number of
    rows, so a row's value would depend in the last bit on the other rows
    of the batch.
    """

    def __init__(self, polys, nvars: int):
        polys = list(polys)
        expos = sorted(set().union(*(p.num for p in polys)))
        self.expo = np.array(expos, dtype=np.int64).reshape(len(expos), nvars)
        self.coef = np.zeros((len(expos), len(polys)))
        row = {e: i for i, e in enumerate(expos)}
        for j, p in enumerate(polys):
            for e, c in p.num.items():
                # int / int rounds correctly, as float(Fraction) does
                self.coef[row[e], j] = c / p.den
        top = self.expo.max(axis=0) if len(expos) else np.zeros(nvars, np.int64)
        # the variables some monomial uses, each with the exponents 0..top
        # padded with 0 up to the table's top degree D: one (nv, D+1) block
        self._vars = np.flatnonzero(top)
        ks = np.arange(int(top.max(initial=0)) + 1)
        self._ks = np.where(ks <= top[self._vars, None], ks, 0).astype(float)
        # every (monomial, variable) power as a flat index into that block
        self._col = (np.arange(len(self._vars))[None, :] * len(ks)
                     + self.expo[:, self._vars])

    def __call__(self, X) -> np.ndarray:
        """All polynomials at all rows of X: shape (m, len(polys))."""
        X = np.asarray(X, dtype=float)
        powers = (X[:, self._vars, None] ** self._ks).reshape(len(X), self._ks.size)
        # the gather lays its result out by monomial, not by row, once there
        # are two rows; einsum's summation order follows the layout, so
        # the monomial matrix is made row-major at every batch size
        mono = np.ascontiguousarray(powers[:, self._col].prod(axis=2))
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
        _, _, vt = np.linalg.svd(J)
        return vt[self.codim:].T

    def project_tangent_many(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The tangential part of every row of V at the same row of X."""
        if not self.constraints:
            return V
        return tangent_part(self.jacobian_many(X), V)

    def project_points_many(self, X: np.ndarray, tol=1e-12, iters=20) -> np.ndarray:
        """Every row of X projected onto the zero set (see
        project_points_jacobian_many)."""
        return self.project_points_jacobian_many(X, tol, iters)[0]

    def project_points_jacobian_many(self, X: np.ndarray, tol=1e-12, iters=20):
        """Gauss-Newton projection of every row onto the zero set, by
        minimum-norm steps J^T (J J^T)^{-1} F, with the Jacobian at each
        projected row: (points, J) of shapes (m, ambient) and (m, codim,
        ambient).

        Only the rows whose residual is still at least tol take a step, so
        a row's result does not depend on the other rows of the batch.  A
        row stops at a point where its constraint table was just evaluated,
        so its J is read from that evaluation; only a row still moving after
        iters steps takes one more.
        """
        if not self.constraints:
            return X, np.zeros((len(X), 0, self.ambient))
        X = np.array(X, dtype=float)
        J = np.empty((len(X), self.codim, self.ambient))
        rows = np.arange(len(X))
        for _ in range(iters):
            F, Jr = self.constraint_values_and_jacobian_many(X[rows])
            left = ~(np.max(np.abs(F), axis=1, initial=0.0) < tol)
            J[rows[~left]] = Jr[~left]
            if not left.any():
                break
            rows, F, Jr = rows[left], F[left], Jr[left]
            X[rows] -= np.einsum("mcn,mc->mn", Jr, _gram_solve(Jr, F))
        else:
            J[rows] = self.jacobian_many(X[rows])
        return X, J

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
