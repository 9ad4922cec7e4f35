"""Closed-form centralizer profiles for the classical families A, B, D
and the dihedral family I2(m).

These are formula-level predictions used as an independent oracle against
the generic engine.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .coxtype import CoxeterType


class PredictedProfile(NamedTuple):
    degree: int
    label: str
    order: int
    class_size: int
    minus_type: CoxeterType
    tilde_minus_type: CoxeterType
    plus_type: CoxeterType
    tilde_plus_type: CoxeterType
    gamma_kind: str  # "sym" | "sym_x_c2"
    gamma_r: int
    gamma_printed: str

    @property
    def gamma_order(self) -> int:
        base = factorial(max(self.gamma_r, 1))
        return base if self.gamma_kind == "sym" else 2 * base


def _t(*components) -> CoxeterType:
    return CoxeterType(components)


def predict_profile_A(n: int, d: int) -> PredictedProfile:
    """Type A_{n-1} (the symmetric group on n letters), involutions with d
    two-cycles and a = n - 2d fixed letters."""
    if not 0 <= 2 * d <= n:
        raise ValueError(f"no involution with {d} two-cycles in Sym_{n}")
    a = n - 2 * d
    order = 2**d * factorial(d) * factorial(a)
    return PredictedProfile(
        degree=d,
        label=f"a={a}",
        order=order,
        class_size=factorial(n) // order,
        minus_type=_t(*[("A", 1)] * d),
        tilde_minus_type=_t(("B", d)),
        plus_type=_t(("A", a - 1)),
        tilde_plus_type=_t(("A", a - 1), ("A", d - 1)),
        gamma_kind="sym",
        gamma_r=d,
        gamma_printed=str(d),
    )


def _signed_profile(
    family: str, n: int, a: int, a_fixed: int, b: int, split: str
) -> PredictedProfile:
    """The B_n or D_n profile of invariants (a, a', b), as signed
    permutations of n coordinates.

    G_u^-+ are X_a x A1^b and X_a' x A1^b with X the family.  The minus
    projection is Y_a x B_b with Y = B, except in D with a' = 0, where it
    is D_a; the plus side is the mirror image.  Gamma is Sym_b, times C2
    exactly in D with a, a' > 0.  |G_u| = 2^n a! a'! b!, halved in D
    unless a = a' = 0, where the class of B_n splits in two.
    """
    d = family == "D"
    if a + a_fixed + 2 * b != n or min(a, a_fixed, b) < 0 or (d and a % 2):
        raise ValueError(f"({a},{a_fixed},{b}) are not {family}_{n} invariants")
    both = d and a > 0 and a_fixed > 0
    order = 2**n * factorial(a) * factorial(a_fixed) * factorial(b)
    if d and (a or a_fixed):
        order //= 2
    group_order = 2**n * factorial(n) // (2 if d else 1)
    minus_y = "D" if d and a_fixed == 0 else "B"
    plus_y = "D" if d and a == 0 else "B"
    return PredictedProfile(
        degree=a + b,
        label=f"{a},{a_fixed},{b}{split}",
        order=order,
        class_size=group_order // order,
        minus_type=_t((family, a), *[("A", 1)] * b),
        tilde_minus_type=_t((minus_y, a), ("B", b)),
        plus_type=_t((family, a_fixed), *[("A", 1)] * b),
        tilde_plus_type=_t((plus_y, a_fixed), ("B", b)),
        gamma_kind="sym_x_c2" if both else "sym",
        gamma_r=b,
        gamma_printed=f"{b},2" if both else str(b),
    )


def predict_profile_B(n: int, a: int, a_fixed: int, b: int) -> PredictedProfile:
    """Type B_n, invariants (a, a', b): a negated coordinates, a' fixed
    coordinates, b swapped pairs."""
    return _signed_profile("B", n, a, a_fixed, b, "")


def predict_profile_D(
    n: int, a: int, a_fixed: int, b: int, split: str = ""
) -> PredictedProfile:
    """Type D_n, invariants (a, a', b) with a even.

    For a = a' = 0 there are two classes with the same profile; `split`
    ("+" or "-") labels them.  The four (a, a') sign patterns are the
    table's cases (i)-(iv).
    """
    if (a == 0 and a_fixed == 0) != bool(split):
        raise ValueError("split labels apply exactly when a = a' = 0")
    return _signed_profile("D", n, a, a_fixed, b, split)


def _dihedral_profiles(m: int) -> list[PredictedProfile]:
    """I2(m): the identity, the reflections (one class of m for odd m, two
    of m/2 for even m) and, for even m, -1.  Every centralizer is generated
    by reflections, so Gamma is trivial."""
    full, a1, one = _t(("I", m)), _t(("A", 1)), _t()

    def row(degree, size, minus, plus):
        return PredictedProfile(
            degree, "", 2 * m // size, size, minus, minus, plus, plus, "sym", 1, "1"
        )

    if m % 2:
        return [row(0, 1, one, full), row(1, m, a1, one)]
    return [row(0, 1, one, full), *[row(1, m // 2, a1, a1)] * 2, row(2, 1, full, one)]


def all_invariants_B(n: int):
    for b in range(n // 2 + 1):
        for a in range(n - 2 * b + 1):
            yield a, n - 2 * b - a, b


def all_invariants_D(n: int):
    for a, a_fixed, b in all_invariants_B(n):
        if a % 2 == 0:
            yield a, a_fixed, b


def predicted_rows(family: str, n: int) -> list[PredictedProfile]:
    """The profile of every class of A_n, B_n, D_n or I2(n)."""
    if family == "A":
        return [predict_profile_A(n + 1, d) for d in range((n + 1) // 2 + 1)]
    if family == "B":
        return [predict_profile_B(n, *inv) for inv in all_invariants_B(n)]
    if family == "D":
        return [
            predict_profile_D(n, a, a_fixed, b, split)
            for a, a_fixed, b in all_invariants_D(n)
            for split in (("+", "-") if a == a_fixed == 0 else ("",))
        ]
    if family == "I":
        return _dihedral_profiles(n)
    raise ValueError(f"no classical model for family {family}")
