"""A finite Coxeter group bundled with its faithful action on roots."""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .coxtype import CoxeterType
from .permengine import LineAction, SubgroupHandle
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
        self.handle = SubgroupHandle.from_gens(
            self.n_points, self.geometry.generators()
        )

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
    def line_action(self) -> LineAction:
        """The generators' action on line positions, built on first use: a
        group's construction and order do not pay for it."""
        return LineAction(self.handle.gens, self.lines, self.neg)

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
        one element sending every positive root to a negative root.  Descent
        reaches w0 from the identity: while a simple root a has y(a)
        positive, y <- s_a y (s_a first, then y) is one longer than y.
        """
        positive = self._line_set
        simple = [(a, self.reflection_perm(a)) for a in self.geometry.simple]
        y = self.identity
        while True:
            for a, s in simple:
                if y[a] in positive:
                    y = compose(s, y)
                    break
            else:
                return self.neg if y == self.neg else None

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

    def stable_lines(self, u: Perm) -> list[int]:
        """Lines preserved by u; their reflections are the reflections
        commuting with u."""
        neg = self.neg
        return [l for l in self.lines if u[l] == l or u[l] == neg[l]]

    def centralizer_involutions_deg_le_2(self, u: Perm) -> Iterator[Perm]:
        """Every involution of degree <= 2 in the centralizer of u, built
        one at a time, so a caller that needs only some of them builds no
        more.

        Degree 1: reflections in u-stable lines.  Degree 2: products of two
        orthogonal reflections whose line pair is preserved by u, either
        linewise (two stable lines) or swapped (a line and the line of its
        image).  Pairs come in the order of their positions in `lines`,
        which ascend.
        """
        neg = self.neg
        stable_lines = self.stable_lines(u)
        for l in stable_lines:
            yield self.reflection_perm(l)
        n_stable = 0
        for la in self.lines:
            ua = u[la]
            if ua == la or ua == neg[la]:
                n_stable += 1
                partners = stable_lines[n_stable:]
            else:
                lb = self.line_of(ua)
                partners = (lb,) if lb > la else ()
            for lb in partners:
                if self.orthogonal(la, lb):
                    yield compose(self.reflection_perm(la), self.reflection_perm(lb))
