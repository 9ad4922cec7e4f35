from hypothesis import given
from hypothesis import strategies as st

from coxcent.perms import (
    compose,
    conjugate,
    identity,
    inverse,
    is_identity,
)
from oracles import is_involution, perm_order

perms = st.permutations(range(8)).map(tuple)


@given(perms, perms, perms)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms)
def test_inverse(p):
    assert compose(p, inverse(p)) == identity(8)
    assert compose(inverse(p), p) == identity(8)


@given(perms, perms)
def test_conjugate_matches_definition(p, g):
    assert conjugate(p, g) == compose(compose(inverse(g), p), g)


@given(perms)
def test_is_identity(p):
    assert is_identity(p) == (p == tuple(range(8)))


@given(perms)
def test_order_annihilates(p):
    n = perm_order(p)
    q = identity(8)
    for _ in range(n):
        q = compose(q, p)
    assert is_identity(q)
    assert all(not is_identity_power(p, k) for k in range(1, n))


def is_identity_power(p, k):
    q = identity(len(p))
    for _ in range(k):
        q = compose(q, p)
    return is_identity(q)


def test_involution_detection():
    assert is_involution((1, 0, 3, 2))
    assert not is_involution((1, 2, 0))


def test_is_identity_of_any_length():
    for n in (0, 1, 2, 240):
        assert is_identity(identity(n))
        assert is_identity(tuple(range(n)))
    assert not is_identity((1, 0))
    assert not is_identity(tuple(range(239)) + (240, 239))
