"""Closed-form centralizer profiles for the classical families A, B, D.

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


def canonical_gamma(kind: str, r: int) -> tuple[str, int]:
    """Collapse degenerate structure labels: Sym_0 = Sym_1 = 1 and
    Sym_r x C2 = Sym_2 for r <= 1, as `permengine.fingerprint` labels a
    group of order 2."""
    if kind == "sym":
        return ("sym", max(r, 1))
    if r <= 1:
        return ("sym", 2)
    return ("sym_x_c2", r)


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


def predict_profile_B(n: int, a: int, a_fixed: int, b: int) -> PredictedProfile:
    """Type B_n, invariants (a, a', b): a negated coordinates, a' fixed
    coordinates, b swapped pairs."""
    if a + a_fixed + 2 * b != n or min(a, a_fixed, b) < 0:
        raise ValueError(f"({a},{a_fixed},{b}) are not B_{n} invariants")
    order = 2**n * factorial(a) * factorial(a_fixed) * factorial(b)
    return PredictedProfile(
        degree=a + b,
        label=f"{a},{a_fixed},{b}",
        order=order,
        class_size=factorial(n) // (factorial(a) * factorial(a_fixed) * factorial(b)),
        minus_type=_t(("B", a), *[("A", 1)] * b),
        tilde_minus_type=_t(("B", a), ("B", b)),
        plus_type=_t(("B", a_fixed), *[("A", 1)] * b),
        tilde_plus_type=_t(("B", a_fixed), ("B", b)),
        gamma_kind="sym",
        gamma_r=b,
        gamma_printed=str(b),
    )


def predict_profile_D(
    n: int, a: int, a_fixed: int, b: int, split: str = ""
) -> PredictedProfile:
    """Type D_n, invariants (a, a', b) with a even.

    For a = a' = 0 there are two classes with the same profile; `split`
    ("+" or "-") labels them.  The four (a, a') sign patterns give the
    four table cases, with the reflection quotient picking up an extra
    order-2 factor exactly when a > 0 and a' > 0.
    """
    if a + a_fixed + 2 * b != n or min(a, a_fixed, b) < 0 or a % 2:
        raise ValueError(f"({a},{a_fixed},{b}) are not D_{n} invariants")
    if (a == 0 and a_fixed == 0) != bool(split):
        raise ValueError("split labels apply exactly when a = a' = 0")
    if a == 0 and a_fixed == 0:  # case (i)
        order = 2**n * factorial(b)
        return PredictedProfile(
            degree=b,
            label=f"0,0,{b}{split}",
            order=order,
            class_size=factorial(n) // (2 * factorial(b)),
            minus_type=_t(*[("A", 1)] * b),
            tilde_minus_type=_t(("B", b)),
            plus_type=_t(*[("A", 1)] * b),
            tilde_plus_type=_t(("B", b)),
            gamma_kind="sym",
            gamma_r=b,
            gamma_printed=str(b),
        )
    order = 2 ** (n - 1) * factorial(a) * factorial(a_fixed) * factorial(b)
    class_size = factorial(n) // (factorial(a) * factorial(a_fixed) * factorial(b))
    label = f"{a},{a_fixed},{b}"
    if a == 0:  # case (ii)
        return PredictedProfile(
            degree=b,
            label=label,
            order=order,
            class_size=class_size,
            minus_type=_t(*[("A", 1)] * b),
            tilde_minus_type=_t(("B", b)),
            plus_type=_t(("D", a_fixed), *[("A", 1)] * b),
            tilde_plus_type=_t(("D", a_fixed), ("B", b)),
            gamma_kind="sym",
            gamma_r=b,
            gamma_printed=str(b),
        )
    if a_fixed == 0:  # case (iii)
        return PredictedProfile(
            degree=a + b,
            label=label,
            order=order,
            class_size=class_size,
            minus_type=_t(("D", a), *[("A", 1)] * b),
            tilde_minus_type=_t(("D", a), ("B", b)),
            plus_type=_t(*[("A", 1)] * b),
            tilde_plus_type=_t(("B", b)),
            gamma_kind="sym",
            gamma_r=b,
            gamma_printed=str(b),
        )
    # case (iv): a > 0 and a' > 0
    return PredictedProfile(
        degree=a + b,
        label=label,
        order=order,
        class_size=class_size,
        minus_type=_t(("D", a), *[("A", 1)] * b),
        tilde_minus_type=_t(("B", a), ("B", b)),
        plus_type=_t(("D", a_fixed), *[("A", 1)] * b),
        tilde_plus_type=_t(("B", a_fixed), ("B", b)),
        gamma_kind="sym_x_c2",
        gamma_r=b,
        gamma_printed=f"{b},2",
    )


def all_invariants_B(n: int):
    for b in range(n // 2 + 1):
        for a in range(n - 2 * b + 1):
            yield a, n - 2 * b - a, b


def all_invariants_D(n: int):
    for a, a_fixed, b in all_invariants_B(n):
        if a % 2 == 0:
            yield a, a_fixed, b


def predicted_rows(family: str, n: int) -> list[PredictedProfile]:
    if family == "A":
        return [predict_profile_A(n + 1, d) for d in range((n + 1) // 2 + 1)]
    if family == "B":
        return [predict_profile_B(n, *inv) for inv in all_invariants_B(n)]
    if family == "D":
        rows = []
        for a, a_fixed, b in all_invariants_D(n):
            if a == 0 and a_fixed == 0:
                rows.append(predict_profile_D(n, a, a_fixed, b, "+"))
                rows.append(predict_profile_D(n, a, a_fixed, b, "-"))
            else:
                rows.append(predict_profile_D(n, a, a_fixed, b))
        return rows
    raise ValueError(f"no classical model for family {family}")
