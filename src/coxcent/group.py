"""A finite Coxeter group bundled with its faithful action on roots, and
the one recognizer that types its reflection subgroups."""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .coxtype import CoxeterType, RecognitionError, classify_coxeter_graph
from .permengine import ParabolicGroupoid, simple_roots
from .perms import Perm, compose
from .rootsys import DEFAULT_MAX_RANK, DihedralModel, RootSystem, build_system


class CoxeterGroup:
    """An irreducible finite Coxeter group acting on its root indices.

    Reflections are labeled by positive-root indices ("lines"); the whole
    group is generated by the simple reflections, and its order is read off
    its Coxeter type.
    """

    def __init__(self, ctype: CoxeterType, max_rank: int = DEFAULT_MAX_RANK):
        if not ctype.is_irreducible():
            raise ValueError("CoxeterGroup wants an irreducible type")
        self.ctype = ctype
        self.geometry = build_system(ctype, max_rank=max_rank)
        self.n_points = self.geometry.n_roots
        self.neg: tuple[int, ...] = tuple(self.geometry.neg)
        self.lines: tuple[int, ...] = tuple(self.geometry.positive)

    @property
    def is_dihedral(self) -> bool:
        return isinstance(self.geometry, DihedralModel)

    @property
    def root_system(self) -> RootSystem:
        if self.is_dihedral:
            raise ValueError(f"{self.ctype} has no vector realization here")
        return self.geometry

    @cached_property
    def order(self) -> int:
        return self.ctype.order()

    @cached_property
    def parabolics(self) -> ParabolicGroupoid:
        """Howlett's groupoid on the subsets of the simple roots, built on
        first use."""
        simple = self.geometry.simple
        return ParabolicGroupoid(
            simple, [self.reflection_perm(a) for a in simple], self._line_set, self.n_points
        )

    @cached_property
    def identity(self) -> Perm:
        return tuple(range(self.n_points))

    def reflection_perm(self, line: int) -> Perm:
        return self.geometry.reflection_perm(line)

    def degree(self, u: Perm) -> int:
        return self.geometry.degree_of(u)

    @cached_property
    def minus_one(self) -> Perm | None:
        """The -1 element when it lies in the group, else None.

        -1 lies in the group exactly when it is the longest element w0, the
        one element sending every positive root to a negative root.
        """
        groupoid = self.parabolics
        return self.neg if groupoid.longest(groupoid.full) == self.neg else None

    def line_of(self, root_index: int) -> int:
        """The positive-root label of the reflection line through a root."""
        return root_index if root_index in self._line_set else self.neg[root_index]

    @cached_property
    def _line_set(self) -> frozenset[int]:
        return frozenset(self.lines)

    def orthogonal(self, i: int, j: int) -> bool:
        return self.geometry.orthogonal(i, j)

    def fixed_lines(self, u: Perm) -> list[int]:
        """Lines whose roots are fixed by u (reflections extending deg by 1)."""
        return [l for l in self.lines if u[l] == l]

    def negated_lines(self, u: Perm) -> list[int]:
        """Lines whose roots are negated by u (the roots inside V_u^-)."""
        neg = self.neg
        return [l for l in self.lines if u[l] == neg[l]]

    def swapped_pairs(self, u: Perm) -> Iterator[Perm]:
        """s_a s_b for each line a that u maps onto a line b > a orthogonal
        to it, in ascending a, built one at a time.  With the reflections
        in the lines u fixes or negates they generate C(u) (Theorem 1.1):
        its other degree-<=2 involutions are products of two of those
        reflections."""
        for a in self.lines:
            b = self.line_of(u[a])
            if b > a and self.orthogonal(a, b):
                yield compose(self.reflection_perm(a), self.reflection_perm(b))


# -- reflection subgroups of the ambient group ------------------------------------


def recognize(positive, reflection, n_roots: int) -> CoxeterType:
    """Coxeter type of a reflection group, from the positive roots of its
    root set of `n_roots` roots and each one's reflection as a permutation
    of that set.

    Two simple roots (`simple_roots`) a, b bond with the order m of the
    product of their reflections, a rotation of order m in their plane,
    whose cycle through a has length m.  The recognized type must have
    `n_roots` roots, else RecognitionError.
    """
    simple = dict(simple_roots(positive, reflection))

    def bond(a: int, b: int) -> int:
        ra, rb = simple[a], simple[b]
        m, x = 1, rb[ra[a]]
        while x != a:
            m, x = m + 1, rb[ra[x]]
        return m

    ctype = classify_coxeter_graph(list(simple), bond)
    if ctype.root_count() != n_roots:
        raise RecognitionError(
            f"recognized {ctype} but root counts disagree "
            f"({ctype.root_count()} vs {n_roots})"
        )
    return ctype


def reflection_subgroup_type(group: CoxeterGroup, rootset) -> CoxeterType:
    """Coxeter type of the subgroup generated by the reflections whose roots
    form `rootset` (which must be negation- and reflection-closed)."""
    rootset = frozenset(rootset)
    if not rootset:
        return CoxeterType.trivial()
    neg = group.neg
    if any(neg[r] not in rootset for r in rootset):
        raise ValueError("root set is not closed under negation")
    pos = sorted(r for r in rootset if r in group._line_set)
    for a in pos:
        pa = group.reflection_perm(a)
        if any(pa[b] not in rootset for b in pos):
            raise ValueError("root set is not closed under its reflections")
    return recognize(pos, group.reflection_perm, len(rootset))


def lines_with_negatives(group: CoxeterGroup, lines) -> frozenset[int]:
    neg = group.neg
    return frozenset(x for l in lines for x in (l, neg[l]))
