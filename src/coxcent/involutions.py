"""Conjugacy classes of involutions: enumeration, cubes, class labels.

Classes are found by a level BFS over the degree: the classes of degree
d+1 are exactly the conjugacy classes of u * s_alpha where u runs over
degree-d class representatives and alpha over roots fixed by u.  This is
complete because every involution of degree d+1 is a product of d+1
reflections in pairwise orthogonal roots, hence a degree-d involution
times a reflection whose root it fixes.

Each candidate is brought to its normal form (R. W. Richardson, Bull.
Austral. Math. Soc. 26, 1982): every involution is conjugate to w_K, the
longest element of a standard parabolic W_K that is -1 on the span of
K, for a subset K of the simple roots, reached by conjugating with simple
reflections (`normal_form`).  w_J and w_K are conjugate iff J and K are,
and the subsets conjugate to K form its component in Howlett's groupoid
of elementary moves (`permengine.conjugacy_class_set`), so a candidate
whose K lies in a component already found is skipped (a normal form is
always admissible, so no list of the admissible K is needed), and, as
g u s_a g^-1 = u s_(g(a)) for g in G_u^+, only the lowest line of each
orbit of G_u^+ on u's fixed lines is tried (`lowest_fixed_lines`).  The
class size is |W| / |C(w_K)| with |C(w_K)| = |G_u^+| |G_u^-| |Gamma|: the
two parts are typed by the one recognizer on their roots, and Gamma, the
quotient of C(w_K) = W_K N_K by its reflection part, is the image of N_K,
which the loops of the groupoid at K generate (B. Brink and R. B. Howlett,
Invent. Math. 136, 1999).  The work per class depends on the rank, not on
the size of the class: no orbit is listed.

When -1 lies in the group, classes of degree above n/2 mirror the classes
of the complementary degree through u -> -u.
"""

from __future__ import annotations

from itertools import combinations

from .group import CoxeterGroup, lines_with_negatives, reflection_subgroup_type
from .permengine import (
    QuotientGroup,
    ViolationError,
    conjugacy_class_set,
    simple_roots,
)
from .perms import Perm, compose, is_identity
from .rootsys import signed_permutation


class InvolutionClass:
    """One conjugacy class of involutions.  Equal only to itself: the label
    is set after enumeration, and the class keys per-class maps."""

    def __init__(
        self, rep: Perm, degree: int, size: int, label: str = "", mirror_of=None
    ):
        self.rep = rep
        self.degree = degree
        self.size = size
        self.label = label
        self.mirror_of: InvolutionClass | None = mirror_of


# -- cubes ----------------------------------------------------------------------


def greedy_cube(
    group: CoxeterGroup, u: Perm, lines
) -> tuple[tuple[int, ...], Perm]:
    """Walk `lines`, keep each line orthogonal to every line kept so far,
    and return the kept lines, sorted, and u times their reflections.

    Over u's negated lines, in any order, the product is 1, so the kept
    lines are a cube of u: deg u pairwise orthogonal lines whose
    reflections multiply to u.  Let S be a maximal orthogonal set of roots
    that u negates and w = u prod_{c in S} s_c.  Then w = 1 on V_u^+ and
    on span S, and w = -1 on V_u^- meet S^perp.  Were that space nonzero,
    w would be a nontrivial involution, and the roots it negates span its
    -1 space (Richardson), so one of them would be negated by u and
    orthogonal to S, against the maximality of S.  So w = 1 and
    |S| = deg u.
    """
    kept: list[int] = []
    w = u
    for line in lines:
        if all(group.orthogonal(line, k) for k in kept):
            kept.append(line)
            w = compose(w, group.reflection_perm(line))
    return tuple(sorted(kept)), w


def first_cube(
    group: CoxeterGroup, u: Perm, through: int | None = None
) -> tuple[int, ...]:
    """The cube `greedy_cube` keeps from u's negated lines in ascending
    order, `through` first if given; ValueError if u does not negate
    `through`.  A depth-first search for cubes over the same lines (the
    tests' `cube_decompositions`) takes this path on its first branch and,
    by `greedy_cube`'s argument, never backtracks: its first cube is this.
    """
    lines = group.negated_lines(u)
    if through is not None:
        lines = [through] + [l for l in lines if l != through]
    cube, w = greedy_cube(group, u, lines)
    if not is_identity(w):
        raise ValueError("involution admits no orthogonal decomposition")
    return cube


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
        if deg == 2:  # every orthogonal pair of negated lines is a cube
            pairs = combinations(group.negated_lines(u), 2)
            return "2" if sum(group.orthogonal(a, b) for a, b in pairs) >= 2 else "2'"
        if deg == 3:
            return label_class(group, compose(group.neg, u), 1)
        return ""
    if family == "E" and group.ctype.rank() == 7 and deg in (3, 4):
        v = u if deg == 3 else compose(group.neg, u)
        return "droite" if _sum_in_2p(group, first_cube(group, v)) else "triangle"
    if family == "E" and group.ctype.rank() == 8 and deg == 4:
        return "rectangle" if _sum_in_2p(group, first_cube(group, u)) else "tetraedre"
    return ""


def _sum_in_2p(group: CoxeterGroup, lines) -> bool:
    """Whether the roots of distinct `lines` sum into 2P, with P the weight
    lattice of a simply-laced type.

    Scale the form so that (a, a) = 2; then the coroots are the roots, and
    x lies in 2P iff (x, s) is even for every simple root s.  A line c and
    s are both positive, so (c, s) is 2 if c = s, 0 if they are orthogonal
    and +-1 otherwise.  So the sum lies in 2P iff, for every simple s, an
    even number of lines c have c != s and c not orthogonal to s.  E8 is
    unimodular (P = R), so there this is the test mod 2R.
    """
    return all(
        sum(c != s and not group.orthogonal(c, s) for c in lines) % 2 == 0
        for s in group.geometry.simple
    )


# -- enumeration -------------------------------------------------------------------


def lowest_fixed_lines(group: CoxeterGroup, u: Perm) -> list[int]:
    """The lowest line of each orbit of G_u^+ on the lines u fixes, in
    ascending order, by a BFS under the reflections in the simple roots of
    the fixed lines (`simple_roots`): they generate G_u^+, so the orbits are
    the same as under every reflection in a fixed line."""
    fixed = group.fixed_lines(u)
    steps = [s for _, s in simple_roots(fixed, group.reflection_perm)]
    seen: set[int] = set()
    lowest = []
    for line in fixed:
        if line in seen:
            continue
        lowest.append(line)
        seen.add(line)
        queue = [line]
        for a in queue:
            for s in steps:
                b = group.line_of(s[a])
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
    return lowest


def normal_form(group: CoxeterGroup, u: Perm) -> int:
    """Richardson's normal form of an involution u: the subset K of the
    simple roots, as a mask over their positions, with u conjugate to w_K.

    While a simple root a has u(a) negative and u(a) != -a, u <- s_a u s_a,
    which is two shorter.  At the end every left descent s_a of u has
    u(a) = -a, so s_a commutes with u; then x = w_K u, with K the a that u
    negates, commutes with W_K and has no descent, so x = 1 and u = w_K.  A
    descent that does not end at w_K raises ViolationError.
    """
    positive, neg = group._line_set, group.neg
    groupoid = group.parabolics
    steps = [(a, group.reflection_perm(a)) for a in groupoid.simple]
    for _ in range(len(group.lines) // 2 + 1):  # the length falls by 2 a step
        for a, s in steps:
            ua = u[a]
            if ua not in positive and ua != neg[a]:
                u = compose(compose(s, u), s)
                break
        else:
            k = sum(1 << i for i, a in enumerate(groupoid.simple) if u[a] == neg[a])
            if u == groupoid.longest(k):
                return k
            break
    raise ViolationError("an involution's normal form is not w_K")


def _class_size(group: CoxeterGroup, k: int, loops: list[Perm]) -> int:
    """|W| / |C(w_K)|, with |C(w_K)| = |G_u^+| |G_u^-| |Gamma| for u = w_K.

    C(w_K) = W_K N_K, where N_K, generated by the loops, keeps K and so
    meets W_K trivially.  Its image in the reflection quotient by
    G1 = G_u^+ x G_u^-, which contains W_K = G_u^-, is all of Gamma, and
    |Gamma| is the order of the quotient's complement on the roots.
    """
    u = group.parabolics.longest(k)
    plus, minus = group.fixed_lines(u), group.negated_lines(u)
    order = 1
    for lines in (plus, minus):
        order *= reflection_subgroup_type(group, lines_with_negatives(group, lines)).order()
    quotient = QuotientGroup(
        group.n_points, loops, {l: group.reflection_perm(l) for l in plus + minus}
    )
    order *= quotient.size
    if group.order % order:
        raise ViolationError("a centralizer order does not divide the group order")
    return group.order // order


def enumerate_involution_classes(group: CoxeterGroup) -> list[InvolutionClass]:
    """All conjugacy classes of involutions, identity included, sorted by
    (degree, label).  Trying only the lowest line of each orbit keeps every
    representative: a line that gives a new class is the lowest of its
    orbit, since a lower line of it was tried first and gives that class."""
    n = group.ctype.rank()
    minus_one = group.minus_one
    top_level = n // 2 if minus_one is not None else n

    classes: list[InvolutionClass] = [
        InvolutionClass(rep=group.identity, degree=0, size=1)
    ]
    current = [classes[0]]
    for d in range(top_level):
        found: set[int] = set()  # the normal forms of degree d + 1 found
        fresh: list[InvolutionClass] = []
        for cls in current:
            u = cls.rep
            for line in lowest_fixed_lines(group, u):
                w = compose(u, group.reflection_perm(line))
                k = normal_form(group, w)
                if k in found:
                    continue
                component, loops = conjugacy_class_set(group.parabolics, k)
                found |= component
                new_cls = InvolutionClass(
                    rep=w, degree=d + 1, size=_class_size(group, k, loops)
                )
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
