"""Conjugacy classes of involutions: enumeration, cubes, class labels.

Classes are found by a level BFS over the degree: the classes of degree
d+1 are exactly the conjugacy classes of u * s_alpha where u runs over
degree-d class representatives and alpha over roots fixed by u.  This is
complete because every involution of degree d+1 is a product of d+1
reflections in pairwise orthogonal roots, hence a degree-d involution
times a reflection whose root it fixes.

Deduplication keys an involution u by its negated-root set Phi_u^-, held
as the integer with bit p set for each of its |Phi_u^-|/2 lines
`group.lines[p]`.  The level BFS makes every representative a product of
reflections in pairwise orthogonal roots it negates, so Phi_u^- spans
V_u^-, where u is -1 (and +1 on the orthogonal complement): the key
determines u.  As g^-1 u g negates g(Phi_u^-), the class of u is in
bijection with the W-orbit of its key (R. W. Richardson, Bull. Austral.
Math. Soc. 26, 1982), which `conjugacy_class_set` computes by mapping
only the bits each simple reflection moves.

When -1 lies in the group, classes of degree above n/2 mirror the classes
of the complementary degree through u -> -u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .group import CoxeterGroup
from .permengine import conjugacy_class_set
from .perms import Perm, compose, is_identity
from .rootsys import signed_permutation


@dataclass(eq=False)
class InvolutionClass:
    """One conjugacy class of involutions."""

    rep: Perm
    degree: int
    size: int
    label: str = ""
    mirror_of: "InvolutionClass | None" = field(default=None, repr=False)


# -- cubes ----------------------------------------------------------------------


def _negated_line_adjacency(group: CoxeterGroup, u: Perm):
    lines = group.negated_lines(u)
    ortho = {
        la: frozenset(
            lb for lb in lines if lb != la and group.orthogonal(la, lb)
        )
        for la in lines
    }
    return lines, ortho


def cube_decompositions(
    group: CoxeterGroup,
    u: Perm,
    *,
    limit: int | None = None,
    through: int | None = None,
) -> list[tuple[int, ...]]:
    """All sets of pairwise orthogonal lines whose reflections multiply to u.

    Lines are positive-root indices; each cube is a sorted tuple of size
    deg(u).  `through` restricts to cubes containing that line, `limit`
    stops the search early.
    """
    d = group.degree(u)
    if d == 0:
        return [()] if through is None else []
    lines, ortho = _negated_line_adjacency(group, u)
    found: list[tuple[int, ...]] = []

    def leaf(chosen: list[int]):
        w = u
        for l in chosen:
            w = compose(w, group.reflection_perm(l))
        if is_identity(w):
            found.append(tuple(sorted(chosen)))

    def search(chosen: list[int], allowed, min_next: int):
        if limit is not None and len(found) >= limit:
            return
        if len(chosen) == d:
            leaf(chosen)
            return
        candidates = sorted(x for x in allowed if x >= min_next)
        if len(chosen) + len(candidates) < d:
            return
        for l in candidates:
            search(chosen + [l], allowed & ortho[l], l + 1)
            if limit is not None and len(found) >= limit:
                return

    if through is not None:
        if through not in ortho:
            return []
        search([through], ortho[through], 0)
    else:
        search([], frozenset(lines), 0)
    return found


def first_cube(group: CoxeterGroup, u: Perm) -> tuple[int, ...]:
    cubes = cube_decompositions(group, u, limit=1)
    if not cubes:
        raise ValueError("involution admits no orthogonal decomposition")
    return cubes[0]


# -- labels ---------------------------------------------------------------------


def signed_invariants(sigma: Perm, signs: tuple[int, ...]) -> tuple[int, int, int]:
    """(a, a', b) of a signed permutation (`rootsys.signed_permutation`):
    negated coordinates, fixed coordinates, swapped pairs."""
    a = sum(1 for i, s in enumerate(sigma) if s == i and signs[i] == -1)
    a_fixed = sum(1 for i, s in enumerate(sigma) if s == i and signs[i] == 1)
    b = sum(1 for i, s in enumerate(sigma) if s > i)
    return a, a_fixed, b


def label_class(group: CoxeterGroup, u: Perm, deg: int) -> str:
    family = group.ctype.components[0][0]
    if family == "A":
        n_letters = group.ctype.rank() + 1
        return f"a={n_letters - 2 * deg}"
    if family in ("B", "D"):
        sigma, signs = signed_permutation(group.root_system, u)
        a, a_fixed, b = signed_invariants(sigma, signs)
        base = f"{a},{a_fixed},{b}"
        if family == "D" and a == 0 and a_fixed == 0:
            # The two split classes: "+" goes to the class of the product of
            # canonical plus-swaps, whose minus-swap parity is even.
            minus_swaps = sum(
                1 for i, s in enumerate(sigma) if s > i and signs[i] == -1
            )
            return base + ("+" if minus_swaps % 2 == 0 else "-")
        return base
    if family == "F":
        if deg == 1:
            line = group.negated_lines(u)[0]
            return "L" if group.root_system.is_long(line) else "C"
        if deg == 2:
            return "2" if len(cube_decompositions(group, u, limit=2)) == 2 else "2'"
        if deg == 3:
            return label_class(group, compose(group.neg, u), 1)
        return ""
    if family == "E" and group.ctype.rank() == 7 and deg in (3, 4):
        v = u if deg == 3 else compose(group.neg, u)
        return "droite" if _cube_sum_vanishes(group, v, "R_mod_2P") else "triangle"
    if family == "E" and group.ctype.rank() == 8 and deg == 4:
        return "rectangle" if _cube_sum_vanishes(group, u, "R_mod_2R") else "tetraedre"
    return ""


def _cube_sum_vanishes(group: CoxeterGroup, u: Perm, mode: str) -> bool:
    """Whether the roots of u's first cube sum to 0 in the mod-2 quotient
    `mode` of `RootSystem.mod2_vector`."""
    rs = group.root_system
    total = [0] * rs.rank
    for line in first_cube(group, u):
        for k, x in enumerate(rs.mod2_vector(line, mode)):
            total[k] = (total[k] + x) % 2
    return not any(total)


# -- enumeration -------------------------------------------------------------------


def enumerate_involution_classes(group: CoxeterGroup) -> list[InvolutionClass]:
    """All conjugacy classes of involutions, identity included, sorted by
    (degree, label)."""
    n = group.ctype.rank()
    action = group.line_action
    minus_one = group.minus_one
    top_level = n // 2 if minus_one is not None else n

    classes: list[InvolutionClass] = [
        InvolutionClass(rep=group.identity, degree=0, size=1)
    ]
    current = [classes[0]]
    for d in range(top_level):
        seen: set[int] = set()
        fresh: list[InvolutionClass] = []
        for cls in current:
            u = cls.rep
            for line in group.lines:
                if u[line] != line:
                    continue
                w = compose(u, group.reflection_perm(line))
                key = action.key(group.negated_lines(w))
                if key in seen:
                    continue
                orbit = conjugacy_class_set(action, key)
                seen |= orbit
                new_cls = InvolutionClass(rep=w, degree=d + 1, size=len(orbit))
                fresh.append(new_cls)
                classes.append(new_cls)
        current = fresh
        if not current:
            break

    for cls in classes:
        cls.label = label_class(group, cls.rep, cls.degree)

    if minus_one is not None:
        for src in list(classes):
            if n - src.degree <= top_level:
                continue
            rep = compose(group.neg, src.rep)
            classes.append(
                InvolutionClass(
                    rep=rep,
                    degree=n - src.degree,
                    size=src.size,
                    label=label_class(group, rep, n - src.degree),
                    mirror_of=src,
                )
            )

    classes.sort(key=lambda c: (c.degree, c.label))
    return classes
