"""Exact dense linear algebra over the Scalar field, an oracle for the tests.

Matrices are tuples of row tuples of :class:`Scalar`.  Dimensions here
never exceed 12, so plain Gaussian elimination is the right tool.
The pivot rule (first nonzero entry in column order) is fixed so that ranks,
kernels and solutions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxcent.perms import Perm
from scalars import ONE, ZERO, Scalar, lift

Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]


def vector(entries) -> Vector:
    return tuple(Scalar.of(x) for x in entries)


def matrix(rows) -> Matrix:
    return tuple(vector(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_sub(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(
        tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2)
    )


def mat_neg(m: Matrix) -> Matrix:
    return tuple(tuple(-a for a in row) for row in m)


def mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    cols = tuple(zip(*m2))
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in cols)
        for row in m1
    )


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in m)


def dot(u: Vector, v: Vector) -> Scalar:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_identity(m: Matrix) -> bool:
    n = len(m)
    return all(
        m[i][j] == (ONE if i == j else ZERO) for i in range(n) for j in range(n)
    )


def _rref(m: Matrix) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next(
            (i for i in range(r, n_rows) if not rows[i][c].is_zero()), None
        )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    if not m:
        return 0
    return len(_rref(m)[1])


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the null space; empty iff m is injective."""
    if not m:
        return []
    n_cols = len(m[0])
    rows, pivots = _rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [ZERO] * n_cols
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def mat_inv(m: Matrix) -> Matrix:
    n = len(m)
    augmented = tuple(row + ident_row for row, ident_row in zip(m, identity(n)))
    rows, pivots = _rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def solve(m: Matrix, rhs: Vector) -> Vector:
    """The unique solution of m x = rhs for injective m; raises otherwise."""
    n_cols = len(m[0])
    augmented = tuple(row + (b,) for row, b in zip(m, rhs))
    rows, pivots = _rref(augmented)
    if len(pivots) > n_cols or any(p == n_cols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) < n_cols:
        raise ValueError("underdetermined linear system")
    x = [ZERO] * n_cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][n_cols]
    return tuple(x)


# -- group elements as matrices in the simple-root basis ------------------------------


def matrix_of_perm(rs, perm: Perm) -> Matrix:
    """The matrix on V of the element of the root system `rs` that permutes
    the root indices by `perm`: column k is the image of simple root k."""
    cols = [lift(rs.roots[perm[s]], rs.width) for s in rs.simple]
    return tuple(zip(*cols))


@dataclass
class GroupElement:
    """A group element as a root permutation, with its exact matrix on V."""

    perm: Perm
    system: object

    def matrix(self) -> Matrix:
        return matrix_of_perm(self.system, self.perm)


def reflection(rs, line: int) -> GroupElement:
    return GroupElement(rs.reflection_perm(line), rs)
