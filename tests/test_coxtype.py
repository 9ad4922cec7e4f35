import pytest

from coxcent.coxtype import CoxeterType, factored


def test_canonical_aliases():
    assert CoxeterType([("I", 3)]) == CoxeterType.irreducible("A", 2)
    assert CoxeterType([("I", 4)]) == CoxeterType.irreducible("B", 2)
    assert CoxeterType([("I", 6)]) == CoxeterType.irreducible("G", 2)
    assert CoxeterType([("B", 1)]) == CoxeterType.irreducible("A", 1)
    assert CoxeterType([("D", 2)]) == CoxeterType([("A", 1), ("A", 1)])
    assert CoxeterType([("D", 3)]) == CoxeterType.irreducible("A", 3)


def test_degenerate_factors_vanish():
    trivial = CoxeterType.trivial()
    assert CoxeterType([("A", 0)]) == trivial
    assert CoxeterType([("A", -1)]) == trivial
    assert CoxeterType([("B", 0)]) == trivial
    assert CoxeterType([("D", 0)]) == trivial
    assert CoxeterType([("D", 1)]) == trivial
    assert str(trivial) == "1"
    assert trivial.order() == 1


def test_multiset_equality_and_format():
    t = CoxeterType([("A", 1), ("D", 4), ("A", 1), ("A", 1)])
    assert str(t) == "A1^3xD4"
    assert t == CoxeterType([("D", 4), ("A", 1), ("A", 1), ("A", 1)])


def test_orders():
    assert CoxeterType.irreducible("A", 4).order() == 120
    assert CoxeterType.irreducible("B", 3).order() == 48
    assert CoxeterType.irreducible("D", 4).order() == 192
    assert CoxeterType.irreducible("E", 8).order() == 696729600
    assert CoxeterType.irreducible("H", 4).order() == 14400
    assert CoxeterType([("I", 7)]).order() == 14
    assert CoxeterType([("A", 1), ("D", 4)]).order() == 384


def test_root_counts():
    assert CoxeterType.irreducible("A", 2).root_count() == 6
    assert CoxeterType.irreducible("B", 12).root_count() == 288
    assert CoxeterType.irreducible("E", 7).root_count() == 126
    assert CoxeterType.irreducible("H", 3).root_count() == 30


def test_invalid_component():
    with pytest.raises(ValueError):
        CoxeterType([("Z", 3)])
    with pytest.raises(ValueError):
        CoxeterType([("E", 9)])


def test_factored():
    assert factored(696729600) == "2^14 3^5 5^2 7"
    assert factored(1) == "1"
    assert factored(2) == "2"
    assert factored(46080) == "2^10 3^2 5"
