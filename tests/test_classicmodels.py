"""Formula models against brute force and against the generic engine."""

from __future__ import annotations

import itertools
from math import factorial

import pytest

from bruteforce import SignedPerm, brute_force_classes, sym_reference_orders
from coxcent.classicmodels import (
    predict_profile_A,
    predict_profile_B,
    predict_profile_D,
    predicted_rows,
)
from coxcent.coxtype import CoxeterType
from coxcent.tables import analyze
from oracles import canonical_gamma


def test_conventions_collapse_degenerate_factors():
    p = predict_profile_A(2, 1)  # the rank-1 case: a = 0, d = 1
    assert str(p.minus_type) == "A1"
    assert str(p.tilde_minus_type) == "A1"  # B1 = A1
    assert str(p.plus_type) == "1"  # A_{-1} = 1
    assert str(p.tilde_plus_type) == "1"  # A_{-1} x A_0 = 1
    q = predict_profile_B(3, 0, 3, 0)
    assert q.order == 2**3 * 6 and q.degree == 0
    r = predict_profile_D(4, 0, 2, 1)
    assert str(r.plus_type) == "A1^3"  # D2 = A1 x A1 joins the (A1)^b factor


def test_invalid_invariants_rejected():
    with pytest.raises(ValueError):
        predict_profile_A(4, 3)
    with pytest.raises(ValueError):
        predict_profile_B(4, 1, 1, 3)
    with pytest.raises(ValueError):
        predict_profile_D(4, 1, 1, 1)  # odd a
    with pytest.raises(ValueError):
        predict_profile_D(4, 0, 0, 2)  # split label missing


def test_signed_perm_arithmetic():
    x = SignedPerm((1, 0, 2), (1, 1, -1))
    assert (x * x.inverse()).is_identity()
    flip = SignedPerm((0, 1, 2), (-1, 1, 1))
    assert flip.is_involution()
    assert flip.invariants() == (1, 2, 0)
    swap_minus = SignedPerm((1, 0, 2), (-1, -1, 1))
    assert swap_minus.is_involution()
    assert swap_minus.invariants() == (0, 1, 1)


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("B", 4), ("D", 4)])
def test_brute_force_matches_formulas(family, n):
    brute = brute_force_classes(family, n)
    group_order = 2**n * factorial(n) if family == "B" else 2 ** (n - 1) * factorial(n)
    preds = {}
    for p in predicted_rows(family, n):
        preds.setdefault(tuple(map(int, p.label.rstrip("+-").split(","))), []).append(p)
    # every brute class matches its formula row, including orders and the
    # quotient structure (element orders compared against Sym_r built by raw
    # permutation enumeration)
    seen_counts: dict = {}
    for bc in brute:
        p = preds[bc.invariants][0]
        assert bc.centralizer_order == p.order
        assert bc.size == p.class_size
        assert bc.size * bc.centralizer_order == group_order
        assert bc.gamma_order == p.gamma_order
        kind, r = canonical_gamma(p.gamma_kind, p.gamma_r)
        if kind == "sym":
            assert bc.gamma_element_orders == sym_reference_orders(r)
        seen_counts[bc.invariants] = seen_counts.get(bc.invariants, 0) + 1
    for invariants, ps in preds.items():
        assert seen_counts[invariants] == len(ps)


def test_brute_force_a_family():
    # Sym_n directly: involutions with d transpositions
    for n in (3, 4, 5):
        counts: dict[int, int] = {}
        for perm in itertools.permutations(range(n)):
            if all(perm[perm[i]] == i for i in range(n)):
                d = sum(1 for i in range(n) if perm[i] > i)
                counts[d] = counts.get(d, 0) + 1
        for d, count in counts.items():
            p = predict_profile_A(n, d)
            assert p.class_size == count


def test_d5_quotients_are_at_most_order_2():
    # Every involution class of D5 has reflection quotient of order 1 or 2;
    # the first elementary abelian (2,2) quotient appears at rank 7.
    brute = brute_force_classes("D", 5)
    assert max(bc.gamma_order for bc in brute) == 2
    d7_case_iv = predict_profile_D(7, 2, 1, 2)
    assert canonical_gamma(d7_case_iv.gamma_kind, d7_case_iv.gamma_r) == (
        "sym_x_c2",
        2,
    )
    assert d7_case_iv.gamma_order == 4


def test_engine_matches_brute_force_d4(cache):
    brute = {bc.invariants: bc for bc in brute_force_classes("D", 4)}
    split_total = 0
    for p in cache.profiles("D", 4):
        inv = tuple(map(int, p.cls.label.rstrip("+-").split(",")))
        bc = brute[inv]
        assert p.order == bc.centralizer_order
        assert p.order // p.gamma_structure.order == bc.reflection_part_order
        assert p.gamma_structure.order == bc.gamma_order
        if inv == (0, 0, 2):
            split_total += p.cls.size
    assert split_total == brute[(0, 0, 2)].size * 2


@pytest.mark.parametrize(
    "family,n",
    [(family, n) for family in "ABD" for n in range(8, 13)]
    + [("I", m) for m in (5, 8, 12, 30)],
)
def test_engine_matches_the_model_beyond_the_other_oracles(family, n):
    """Every engine profile equals its closed form, at the ranks above the
    brute force (rank <= 4) and criterion 4 (rank <= 7), and on I2(m),
    whose two reflection classes for even m share the label "" (so the
    profiles are compared as sorted lists)."""

    def columns(p, degree, label, size, gamma):
        types = (p.minus_type, p.tilde_minus_type, p.plus_type, p.tilde_plus_type)
        return (degree, label, p.order, size, *map(str, types), gamma)

    engine = sorted(
        columns(
            p,
            p.cls.degree,
            p.cls.label,
            p.cls.size,
            (p.gamma_structure.kind, p.gamma_structure.r),
        )
        for p in analyze(CoxeterType([(family, n)])).profiles
    )
    model = sorted(
        columns(
            p, p.degree, p.label, p.class_size, canonical_gamma(p.gamma_kind, p.gamma_r)
        )
        for p in predicted_rows(family, n)
    )
    assert engine == model
