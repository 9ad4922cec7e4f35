"""A finite Coxeter group bundled with its faithful action on roots."""

from __future__ import annotations

from functools import cached_property

from .coxtype import CoxeterType
from .permengine import LineAction, SubgroupHandle
from .perms import Perm, compose
from .rootsys import DihedralModel, RootSystem, build_system


class CoxeterGroup:
    """An irreducible finite Coxeter group acting on its root indices.

    Reflections are labeled by positive-root indices ("lines"); the whole
    group is generated by the simple reflections and carries a stabilizer
    chain for exact orders and membership.
    """

    def __init__(self, ctype: CoxeterType, max_rank: int = 12):
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
        return self.handle.order()

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
        """The -1 element when it lies in the group, else None."""
        neg = self.neg
        return neg if self.handle.contains(neg) else None

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

    def centralizer_involutions_deg_le_2(self, u: Perm) -> list[Perm]:
        """All involutions of degree <= 2 in the centralizer of u.

        Degree 1: reflections in u-stable lines.  Degree 2: products of two
        orthogonal reflections whose line pair is preserved by u, either
        linewise or swapped.
        """
        neg = self.neg
        lines = self.lines
        stable_lines = self.stable_lines(u)
        out = [self.reflection_perm(l) for l in stable_lines]
        n_lines = len(lines)
        stable = set(stable_lines)
        for a_pos in range(n_lines):
            la = lines[a_pos]
            ua = u[la]
            for b_pos in range(a_pos + 1, n_lines):
                lb = lines[b_pos]
                if not self.orthogonal(la, lb):
                    continue
                if la in stable:
                    if lb not in stable:
                        continue
                elif ua != lb and ua != neg[lb]:
                    continue
                out.append(
                    compose(self.reflection_perm(la), self.reflection_perm(lb))
                )
        return out
