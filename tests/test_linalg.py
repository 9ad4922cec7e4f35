from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import linalg
from linalg import (
    identity,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    matrix,
    matrix_of_perm,
    rank,
    solve,
)
from scalars import Scalar

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def _matrices(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(matrix)


def _minor_rank(m) -> int:
    """Independent oracle: the largest size of a nonzero minor."""
    n_rows, n_cols = len(m), len(m[0])

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total = Scalar(0)
        for k, c in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = m[rows[0]][c] * sub
            total = total + term if k % 2 == 0 else total - term
        return total

    for size in range(min(n_rows, n_cols), 0, -1):
        for rows in combinations(range(n_rows), size):
            for cols in combinations(range(n_cols), size):
                if not det(rows, cols).is_zero():
                    return size
    return 0


@settings(max_examples=60)
@given(_matrices(3, 4))
def test_rank_matches_minor_oracle(m):
    assert rank(m) == _minor_rank(m)


@settings(max_examples=60)
@given(_matrices(3, 3))
def test_kernel_dimension_and_membership(m):
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    zero = tuple(Scalar(0) for _ in range(3))
    for v in basis:
        assert mat_vec(m, v) == zero


@settings(max_examples=40)
@given(_matrices(3, 3), _matrices(3, 3), _matrices(3, 3))
def test_matrix_product_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_rank_identity_and_zero():
    assert rank(identity(4)) == 4
    assert rank(matrix([[0] * 3] * 3)) == 0


def test_kernel_of_scaled_identity():
    m = identity(4)
    minus = matrix([[-1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert kernel_basis(mat_sub(minus, identity(4))) == []
    assert len(kernel_basis(mat_sub(minus, minus))) == 4


def test_solve_and_inverse():
    m = matrix([[2, 1, 0], [0, 1, 0], [1, 0, 3]])
    rhs = tuple(Scalar.of(x) for x in (1, 2, 3))
    x = solve(m, rhs)
    assert mat_vec(m, x) == rhs
    inv = mat_inv(m)
    assert linalg.is_identity(mat_mul(m, inv))


def test_surd_entries_are_exact():
    phi = Scalar(Fraction(1, 2), Fraction(1, 2))
    m = matrix([[phi, 1], [1, phi]])
    # det = phi^2 - 1 = phi, nonzero: rank 2
    assert rank(m) == 2
    inv = mat_inv(m)
    assert linalg.is_identity(mat_mul(m, inv))


def test_f4_degree2_plus_eigenspace_dimension():
    # kernel of (u + 1) for u a product of two orthogonal F4 reflections
    from coxcent.coxtype import CoxeterType
    from coxcent.group import CoxeterGroup
    from linalg import mat_neg
    from coxcent.perms import compose

    group = CoxeterGroup(CoxeterType.irreducible("F", 4))
    first = group.lines[0]
    partner = next(l for l in group.lines if l != first and group.orthogonal(first, l))
    u = compose(group.reflection_perm(first), group.reflection_perm(partner))
    m = matrix_of_perm(group.root_system, u)
    minus_space = kernel_basis(mat_sub(m, mat_neg(identity(4))))
    assert len(minus_space) == 2
    plus_space = kernel_basis(mat_sub(m, identity(4)))
    assert len(plus_space) == 2
