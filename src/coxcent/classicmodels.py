"""Closed-form centralizer profiles for the classical families A, B, D.

These are formula-level predictions used as an independent oracle against
the generic engine, plus a brute-force validator that enumerates the full
signed-permutation group directly for small ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .coxtype import CoxeterType


@dataclass(frozen=True)
class PredictedProfile:
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


# -- brute-force validator ----------------------------------------------------------


@dataclass(frozen=True)
class SignedPerm:
    """An element of the hyperoctahedral group: e_i -> signs[i] * e_perm[i]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        # Apply self first, then other.
        perm = tuple(other.perm[p] for p in self.perm)
        signs = tuple(
            self.signs[i] * other.signs[self.perm[i]] for i in range(len(self.perm))
        )
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i, p in enumerate(self.perm):
            perm[p] = i
            signs[p] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))

    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.perm)) and all(
            s == 1 for s in self.signs
        )

    def is_involution(self) -> bool:
        return (self * self).is_identity()

    def invariants(self) -> tuple[int, int, int]:
        a = sum(1 for i, p in enumerate(self.perm) if p == i and self.signs[i] == -1)
        a_fixed = sum(
            1 for i, p in enumerate(self.perm) if p == i and self.signs[i] == 1
        )
        b = sum(1 for i, p in enumerate(self.perm) if p > i)
        return a, a_fixed, b


def hyperoctahedral_elements(n: int, even_signs: bool = False):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if even_signs and signs.count(-1) % 2:
                continue
            yield SignedPerm(perm, signs)


def reflections_bn(n: int, long_only: bool = False) -> list[SignedPerm]:
    out = []
    ident = tuple(range(n))
    if not long_only:
        for i in range(n):
            signs = tuple(-1 if j == i else 1 for j in range(n))
            out.append(SignedPerm(ident, signs))
    for i in range(n):
        for j in range(i + 1, n):
            perm = list(ident)
            perm[i], perm[j] = j, i
            for s in (1, -1):
                signs = tuple(s if k in (i, j) else 1 for k in range(n))
                out.append(SignedPerm(tuple(perm), signs))
    return out


@dataclass
class BruteClassData:
    invariants: tuple[int, int, int]
    size: int
    centralizer_order: int
    reflection_part_order: int
    gamma_order: int
    gamma_element_orders: tuple[tuple[int, int], ...]
    gamma_abelian: bool


def _closure(gens: list[SignedPerm]) -> set[SignedPerm]:
    ident = gens[0] * gens[0].inverse() if gens else None
    seen = set(gens)
    queue = list(gens)
    while queue:
        x = queue.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if ident is not None:
        seen.add(ident)
    return seen


def brute_force_classes(family: str, n: int) -> list[BruteClassData]:
    """Involution classes of B_n or D_n by direct enumeration (small n).

    Everything here is computed from the raw signed-permutation model:
    conjugacy by exhaustive orbit, centralizers by scanning, the reflection
    part by closure, and the quotient via explicit coset multiplication.
    """
    if family not in ("B", "D"):
        raise ValueError("brute force covers the B and D families")
    even = family == "D"
    elements = list(hyperoctahedral_elements(n, even_signs=even))
    reflections = [
        r for r in reflections_bn(n, long_only=even)
    ]
    involutions = [
        x for x in elements if not x.is_identity() and x.is_involution()
    ]
    unassigned = set(involutions)
    ident = SignedPerm(tuple(range(n)), (1,) * n)
    whole = _closure(reflections)
    out = [
        BruteClassData(
            invariants=(0, n, 0),
            size=1,
            centralizer_order=len(elements),
            reflection_part_order=len(whole),
            gamma_order=len(elements) // len(whole),
            gamma_element_orders=((1, 1),),
            gamma_abelian=True,
        )
    ]
    while unassigned:
        rep = min(
            unassigned, key=lambda x: (x.perm, x.signs)
        )
        orbit = {rep}
        queue = [rep]
        while queue:
            x = queue.pop()
            for g in elements:
                y = g.inverse() * x * g
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        unassigned -= orbit
        centralizer = [g for g in elements if g * rep == rep * g]
        refl_in = [r for r in reflections if r * rep == rep * r]
        g1 = _closure(refl_in) if refl_in else {elements[0] * elements[0].inverse()}
        gamma = _coset_group(centralizer, g1)
        out.append(
            BruteClassData(
                invariants=rep.invariants(),
                size=len(orbit),
                centralizer_order=len(centralizer),
                reflection_part_order=len(g1),
                gamma_order=len(gamma),
                gamma_element_orders=_element_orders(gamma),
                gamma_abelian=_is_abelian(gamma),
            )
        )
    out.sort(key=lambda c: (sum(c.invariants[0:1]) + c.invariants[2], c.invariants))
    return out


def _coset_group(group: list[SignedPerm], normal: set[SignedPerm]):
    """Multiplication table of group/normal as frozenset cosets."""
    cosets: dict[frozenset, int] = {}
    labels: list[frozenset] = []
    for g in group:
        c = frozenset(h * g for h in normal)
        if c not in cosets:
            cosets[c] = len(labels)
            labels.append(c)
    table = []
    for c1 in labels:
        rep1 = next(iter(c1))
        row = []
        for c2 in labels:
            rep2 = next(iter(c2))
            prod = rep1 * rep2
            row.append(next(i for i, c in enumerate(labels) if prod in c))
        table.append(tuple(row))
    return table


def _element_orders(table) -> tuple[tuple[int, int], ...]:
    ident = next(i for i in range(len(table)) if all(table[i][j] == j for j in range(len(table))))
    counts: dict[int, int] = {}
    for i in range(len(table)):
        o = 1
        x = i
        while x != ident:
            x = table[x][i]
            o += 1
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def _is_abelian(table) -> bool:
    k = len(table)
    return all(table[i][j] == table[j][i] for i in range(k) for j in range(k))


def sym_reference_orders(r: int) -> tuple[tuple[int, int], ...]:
    """Element-order multiset of Sym_r by direct enumeration."""
    counts: dict[int, int] = {}
    for perm in itertools.permutations(range(max(r, 1))):
        seen = [False] * len(perm)
        order = 1
        for i in range(len(perm)):
            if seen[i]:
                continue
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            from math import lcm

            order = lcm(order, ln)
        counts[order] = counts.get(order, 0) + 1
    return tuple(sorted(counts.items()))
