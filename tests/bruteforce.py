"""Brute-force oracle for the B and D families: the full signed-permutation
group enumerated directly for small ranks, with conjugacy by exhaustive
orbit, centralizers by scanning, the reflection part by closure and the
quotient by explicit coset multiplication; and the element orders of
Sym_r, by enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass


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
