"""Centralizer structure of involutions and the proposition checks.

For an involution u the centralizer G_u splits along V = V+ (+) V-:

* the parts G_u^{+,-} are the parabolics generated by reflections whose
  roots are fixed, respectively negated, by u;
* the projections of G_u to GL(V+)/GL(V-) are computed as reflection
  groups on the normals of G_u's degree-<=2 involutions, each reflection's
  permutation of the normals read off the involution's permutation of the
  roots, which also verifies that the projections are reflection groups;
* the quotient Gamma of G_u by its reflection part G1 = G_u^+ x G_u^- is
  realized as its complement N, the elements of G_u that keep the
  positive roots of G1, acting on the roots, generated by the images of
  the swapped pairs s_a s_u(a); its label (Sym_r, or Sym_r x C2) is
  proved by restricting N to its orbits.

No chain is built on G_u.  The orders in the cross-checks come from
separate sources, so no identity asserted here rides on the statement it
is checking: |G_u| = |G| / |class| from the census, which counts the
class from Howlett's loops at u's normal form; the projection orders
from the Coxeter types recognized on the normals (on a line, whether
there is a normal, and on all of V, |W|), with a stabilizer chain on the
normals kept as the tests' oracle; |G_u^+| and |G_u^-| from the Coxeter
types recognized on their root sets; and |Gamma| as |N|, from N's own
stabilizer chain on the images of the paper's generators.  Theorem 1.1
is then the identity |G_u^+| |G_u^-| |N| = |G_u| (check 1.1, and check
2.1b's product), which sets the census's count against the group those
generators generate.

Every chain whose order has a proven upper bound is built to that bound
(see `BSGS`): a partial chain's order, the product of its basic-orbit
lengths, is at most the order its generators generate, so it meets the
bound only on a complete chain, and a chain that falls short is completed
by Schreier verification and reports its exact order.  Each call site
says why its bound is one.  N's chain is left unbounded.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .coxtype import CoxeterType, RecognitionError
from .group import (
    CoxeterGroup,
    lines_with_negatives,
    recognize,
    reflection_subgroup_type,
)
from .involutions import InvolutionClass, first_cube, greedy_cube
from .permengine import (
    BSGS,
    QuotientGroup,
    StructureLabel,
    ViolationError,
    fingerprint,
    quotient_action,
    restricted_order,
)
from .perms import Perm, compose, is_identity
from .rootsys import extended_diagram_Y


# -- centralizers -------------------------------------------------------------------


def centralizer(group: CoxeterGroup, class_size: int) -> int:
    """|G_u|, the order of the centralizer of an involution u whose class
    has `class_size` elements, as |G| / |class|.

    The census reads the class size as |W| / (|G_u^+| |G_u^-| |Gamma|),
    with Gamma the image of the loops of Howlett's groupoid at u's normal
    form K.  The loops map K onto itself, so they lie in N_K, inside
    C(w_K), and by Brink and Howlett they generate N_K, so the quotient is
    |C(u)|.  Check 1.1 sets it against the group that Theorem 1.1's
    generators generate.
    """
    if group.order % class_size:
        raise ViolationError("class size does not divide the group order")
    return group.order // class_size


# -- projections to the two eigenspaces ----------------------------------------------


def _primitive(vec: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero integer vector."""
    g = gcd(*vec)
    if not g:
        raise ValueError("zero vector has no direction")
    return tuple([x // g for x in vec]) if g != 1 else vec


def _projection_entries(group: CoxeterGroup, u: Perm, side: str):
    """(r, u(r)) for every root r with a degree-<=2 involution j of G_u that
    acts on V_u^side as a reflection: u(r) = -r (side "-") or u(r) = r (side
    "+"), with j = s_r and normal r; or u swaps r with an orthogonal root
    u(r) != +-r, with j = s_r s_u(r) and normal r -+ u(r)."""
    neg = group.neg
    for r in range(group.n_points):
        ur = u[r]
        if ur == (r if side == "+" else neg[r]) or (
            ur != r and ur != neg[r] and group.orthogonal(r, ur)
        ):
            yield r, ur


def _projection_reflections(
    group: CoxeterGroup, u: Perm, side: str
) -> tuple[list[tuple], dict[int, Perm]]:
    """The normals of the projection's reflections, one per direction, and
    the permutation of their indices of each positive-direction normal.

    Each j commutes with u and is linear, so it maps the entries onto
    themselves and an entry's normal to the normal of its image: the
    reflection in normal i sends normal k to the normal of j_i(rep_k),
    where j_i is the j of i's first entry and rep_k is k's first entry.

    A direction is keyed by the primitive vector of its flat int tuple.
    Over Z[phi] (H3, H4) two normals on one ray are equal: all roots have
    one length, so their squared length ratio is 1 or 2, and sqrt2 is not
    in Q(sqrt5).  Were it not so, one direction would get two keys, and
    `recognize`'s root count would reject the projection.
    """
    rs, neg = group.root_system, group.neg
    roots = rs.roots
    sign = 1 if side == "+" else -1
    zero = (0,) * rs.rank
    index: dict[tuple, int] = {}
    vectors: list[tuple] = []
    reps: list[int] = []
    root_vec: dict[int, int] = {}
    for r, ur in _projection_entries(group, u, side):
        raw = roots[r]
        if ur != r and ur != neg[r]:
            raw = tuple([a + sign * b for a, b in zip(raw, roots[ur])])
        v = _primitive(raw)
        k = index.get(v)
        if k is None:
            k = index[v] = len(vectors)
            vectors.append(v)
            reps.append(r)
        root_vec[r] = k
    perms = {}
    for k, (v, r) in enumerate(zip(vectors, reps)):
        if rs.real_key(v) < zero:  # its first nonzero coordinate is negative
            continue
        j = group.reflection_perm(r)
        if u[r] != r and u[r] != neg[r]:
            j = compose(j, group.reflection_perm(u[r]))
        try:
            perms[k] = tuple([root_vec[j[x]] for x in reps])
        except KeyError:
            raise RecognitionError(
                f"a reflection of the {side} projection leaves its normals"
            ) from None
    return vectors, perms


def tilde_side(group: CoxeterGroup, u: Perm, side: str) -> CoxeterType:
    """The Coxeter type of the projection of G_u to GL(V_u^side),
    recognized as a reflection group.

    Its reflections come from the degree-<=2 involutions of G_u (see
    `_projection_entries`).  On all of V, u = +-1 and the projection is W.
    On a line or a point the normals are all parallel, so the group is A1
    if there is one and trivial otherwise.  In between, each reflection's
    permutation of the normals is read off its involution's permutation of
    the roots, with no arithmetic in the field.

    The type's order is the order of the group the normals' reflections
    generate, with no chain on the normals: the reflections map the
    normals onto themselves (else `_projection_reflections` raises), and
    the normals are keyed one per direction and sign, so they form a
    finite root system.  Its reflection group is the Coxeter group of its
    simple system, which has as many roots as the set, and `recognize`
    checks that count.  That this group is the whole projection,
    |G_u| / |G_u^opp| elements, is check 2.9's equality (and 2.5's).
    """
    rank = group.geometry.rank
    deg = group.degree(u)
    dim = deg if side == "-" else rank - deg
    if dim == rank:
        return group.ctype
    if dim <= 1:
        if next(_projection_entries(group, u, side), None) is None:
            return CoxeterType.trivial()
        return CoxeterType.irreducible("A", 1)
    vectors, perms = _projection_reflections(group, u, side)
    return recognize(list(perms), perms.__getitem__, len(vectors))


def gamma(
    group: CoxeterGroup, u: Perm, stable: list[int]
) -> tuple[QuotientGroup, StructureLabel]:
    """The quotient Gamma of G_u by its reflection part G1, the group of
    the reflections in the `stable` lines, with its structure label, whose
    order is the quotient's size.

    Gamma is realized as the complement N = Stab(Phi1+) acting on the
    roots, Phi1+ the stable lines (see `QuotientGroup`), generated by the
    images of the swapped pairs: by Theorem 1.1 they generate G_u with
    G1, and a stable reflection, or a product of two, maps to 1.  So does
    a swapped pair j that negates a root c of G1, which lies in G1: j is -1
    on a plane whose roots hold c and a root c' orthogonal to c, which u
    keeps as it keeps c and the plane, and then j = s_c s_c'.  Only the
    other pairs are read.  |N| comes from N's own chain, independent of
    the Coxeter types and of the class size, and every generator it kept
    must commute with u, else ViolationError.  The label is proved from
    N's orbits (`fingerprint`); a trivial quotient is Sym_1.
    """
    neg = group.neg
    pairs = group.swapped_pairs(u)
    outside = [j for j in pairs if all(j[l] != neg[l] for l in stable)]
    q = quotient_action(
        group.n_points, outside, {l: group.reflection_perm(l) for l in stable}
    )
    if any(compose(g, u) != compose(u, g) for g in q.handle.gens):
        raise ViolationError("a generator of N does not commute with u")
    if q.size == 1:
        return q, StructureLabel("sym", 1, 1)
    return q, fingerprint(q.handle)


# -- the full profile ------------------------------------------------------------------


class CentralizerProfile(NamedTuple):
    """The invariants of an involution class: |G_u|, the Coxeter types of
    G_u^-, G_u^+ and of the projections of G_u to V_u^-, V_u^+, and the
    label of Gamma.  Every other order is read off these: |Gamma| is
    `gamma_structure.order`, |G1| is `order` over it."""

    cls: InvolutionClass
    order: int
    minus_type: CoxeterType
    tilde_minus_type: CoxeterType
    plus_type: CoxeterType
    tilde_plus_type: CoxeterType
    gamma_structure: StructureLabel
    mirrored: bool = False


class ClassData:
    """Per-class computations behind a profile, built once per class and
    read by the checks; the class itself and its quotient structure are on
    the profile.

    The build raises only where `centralizer`, `gamma` or `tilde_side`
    cannot go on.  A Gamma label or a projection order that breaks a
    check is kept as found: checks 1.2, 2.9, 2.1b and 2.5 report it, like
    any other failure."""

    def __init__(
        self,
        group: CoxeterGroup,
        plus_lines: list[int],
        minus_lines: list[int],
        quotient: QuotientGroup,
        profile: CentralizerProfile,
    ):
        self.group = group
        self.plus_lines = plus_lines
        self.minus_lines = minus_lines
        self.quotient = quotient
        self.profile = profile


def _compute_class_data(group: CoxeterGroup, cls: InvolutionClass) -> ClassData:
    u = cls.rep
    gu_order = centralizer(group, cls.size)
    plus_lines, minus_lines = group.fixed_lines(u), group.negated_lines(u)
    quotient, gamma_label = gamma(group, u, plus_lines + minus_lines)
    plus_type = reflection_subgroup_type(
        group, lines_with_negatives(group, plus_lines)
    )
    minus_type = reflection_subgroup_type(
        group, lines_with_negatives(group, minus_lines)
    )
    tilde_plus = tilde_side(group, u, "+")
    tilde_minus = tilde_side(group, u, "-")
    profile = CentralizerProfile(
        cls=cls,
        order=gu_order,
        minus_type=minus_type,
        tilde_minus_type=tilde_minus,
        plus_type=plus_type,
        tilde_plus_type=tilde_plus,
        gamma_structure=gamma_label,
    )
    return ClassData(
        group=group,
        plus_lines=plus_lines,
        minus_lines=minus_lines,
        quotient=quotient,
        profile=profile,
    )


def _mirror_profile(
    cls: InvolutionClass, source: CentralizerProfile
) -> CentralizerProfile:
    """The profile of -u from that of u: -1 is central, so the two share
    their centralizer, with the eigenspace sides swapped."""
    return source._replace(
        cls=cls,
        minus_type=source.plus_type,
        tilde_minus_type=source.tilde_plus_type,
        plus_type=source.minus_type,
        tilde_plus_type=source.tilde_minus_type,
        mirrored=True,
    )


def profiles_for_group(
    group: CoxeterGroup, classes: list[InvolutionClass]
) -> list[CentralizerProfile]:
    """One CentralizerProfile per class, in class order."""
    return _class_pipeline(group, classes)


# -- checks ------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    subject: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


def check_theorem_1_1(data: ClassData) -> CheckResult:
    """Check 1.1, Theorem 1.1: G_u is generated by its degree-<=2
    involutions, that is, by G1 and the swapped pairs.  Their images
    generate N (`gamma`), which meets G1 trivially, so the theorem holds
    iff |G_u^+| |G_u^-| |N| = |G_u|, with |G_u| = |G| / |class| from the
    census.  This is check 2.1b's product read as Theorem 1.1."""
    name = "1.1"
    subject = _subject(data)
    p, size = data.profile, data.quotient.size
    generated = p.plus_type.order() * p.minus_type.order() * size
    if generated != p.order:
        detail = f"|G+| |G-| |N| = {generated}, |G| / |class| = {p.order}"
        return CheckResult(name, subject, "fail", detail)
    detail = "reflection quotient trivial" if size == 1 else ""
    return CheckResult(name, subject, "pass", detail)


def _subject(data: ClassData) -> str:
    cls = data.profile.cls
    label = f"/{cls.label}" if cls.label else ""
    return f"{data.group.ctype} deg {cls.degree}{label}"


def check_order_identities(data: ClassData) -> list[CheckResult]:
    """Order identities (checks 2.1b and 2.5): the reflection part is the
    product of the two sides, and each projection order factors through the
    quotient: |Gu| = |G-| |proj+| = |G+| |proj-|, |proj+-| = |G+-| |Gamma|.

    |G1| is |Gu| over |Gamma| = |N|, which must divide it; |G+-|
    are the orders of the sides' Coxeter types."""
    p = data.profile
    subject = _subject(data)
    gu, gamma_order = p.order, p.gamma_structure.order
    g1, plus, minus = gu // gamma_order, p.plus_type.order(), p.minus_type.order()
    tilde_minus, tilde_plus = p.tilde_minus_type.order(), p.tilde_plus_type.order()
    ok_21b = g1 * gamma_order == gu and g1 == plus * minus
    ok_25 = (
        gu == minus * tilde_plus
        and gu == plus * tilde_minus
        and tilde_minus == minus * gamma_order
        and tilde_plus == plus * gamma_order
    )
    return [
        CheckResult(
            "2.1b",
            subject,
            "pass" if ok_21b else "fail",
            f"|G1|={g1} |G+|={plus} |G-|={minus}",
        ),
        CheckResult(
            "2.5",
            subject,
            "pass" if ok_25 else "fail",
            f"|Gu|={gu} sides=({minus},{plus}) "
            f"tilde=({tilde_minus},{tilde_plus}) gamma={gamma_order}",
        ),
    ]


def check_cube_generation(data: ClassData) -> CheckResult:
    """Check 2.1c: the cubes ending at u generate the minus part.

    Since every cube lies inside G_u^-, equality holds as soon as every
    negated line appears in some cube: `first_cube` through each uncovered
    line, which `greedy_cube`'s argument shows exists.
    """
    name = "2.1c"
    subject = _subject(data)
    group = data.group
    u = data.profile.cls.rep
    uncovered = set(data.minus_lines)
    while uncovered:
        line = min(uncovered)
        try:
            uncovered.difference_update(first_cube(group, u, through=line))
        except ValueError:
            return CheckResult(
                name, subject, "fail", f"no orthogonal decomposition through line {line}"
            )
    return CheckResult(name, subject, "pass")


def check_normalizer(data: ClassData) -> CheckResult:
    """Check 2.3: the normalizer of the minus part equals the centralizer,
    by two containments.

    The normalizer is the stabilizer of the minus part's set of roots.
    C(u) lies in it when each generator of N maps that set onto itself:
    by check 1.1's identity C(u) is G1 N, and G1 = G_u^+ x G_u^- keeps the
    set, G_u^- as a reflection group on it and G_u^+ fixing V_u^-
    pointwise.
    The normalizer lies in C(u) when u negates every one of the lines and
    is the product of the reflections in pairwise orthogonal lines of the
    set: then the set spans V_u^-, and whatever keeps V_u^- keeps its
    orthogonal complement and commutes with u.  The lines are chosen by
    `greedy_cube`, whose argument shows that for u's own minus part any
    maximal choice is such a product.
    """
    name = "2.3"
    subject = _subject(data)
    group = data.group
    u = data.profile.cls.rep
    minus = lines_with_negatives(group, data.minus_lines)
    movers = sum(
        1 for j in data.quotient.handle.gens if any(j[r] not in minus for r in minus)
    )
    _, w = greedy_cube(group, u, data.minus_lines)
    inside = is_identity(w) and all(u[l] == group.neg[l] for l in data.minus_lines)
    if not movers and inside:
        return CheckResult(name, subject, "pass")
    detail = f"{movers} generators of N move the minus roots"
    if not inside:
        detail += "; the minus part does not determine u"
    return CheckResult(name, subject, "fail", detail)


def check_tilde_reflection_generated(data: ClassData) -> list[CheckResult]:
    """Check 2.9: both projections are generated by their reflections."""
    subject = _subject(data)
    p = data.profile
    out = []
    for side, tilde, opposite in (
        ("-", p.tilde_minus_type, p.plus_type),
        ("+", p.tilde_plus_type, p.minus_type),
    ):
        order, expected = tilde.order(), p.order // opposite.order()
        out.append(
            CheckResult(
                "2.9",
                f"{subject} side {side}",
                "pass" if order == expected else "fail",
                f"reflection subgroup order {order}, projection order {expected}",
            )
        )
    return out


def check_parabolic_chain(data: ClassData) -> CheckResult:
    """Check 3.2: iterating the fixed-line parabolic along a cube lands on
    the plus part."""
    name = "3.2"
    subject = _subject(data)
    group = data.group
    u = data.profile.cls.rep
    if data.profile.cls.degree == 0:
        return CheckResult(name, subject, "pass", "degenerate")
    cube = first_cube(group, u)
    current = set(range(group.n_points))
    for line in cube:
        perm = group.reflection_perm(line)
        current = {r for r in current if perm[r] == r}
    expected = lines_with_negatives(group, data.plus_lines)
    if current == set(expected):
        return CheckResult(name, subject, "pass")
    return CheckResult(name, subject, "fail", "iterated parabolic differs from G_u^+")


# Checks 2.7/2.8 report "skipped" when |G_u^-| exceeds this.  Their test
# needs no such limit, but the recorded `theorems` artifacts hold these rows
# as skipped (D7 deg 6, |D6| = 23,040), so running them means re-recording.
SKIP_MINUS_ORDER = 10_000


def check_out_injectivity(data: ClassData) -> list[CheckResult]:
    """Checks 2.7 and 2.8 on the minus side: no element of G_u outside G1
    acts on G_u^- as an inner automorphism (2.7), and none centralizes it
    (2.8).  Both pass iff the complement N of G1 acts faithfully on the
    minus lines, the positive roots Phi-+ of G_u^-.

    Take y in N.  It commutes with u and keeps Phi1+, so it permutes the
    minus lines: they are a union of N's orbits.  If y acts on G_u^- as
    conjugation by some z in G_u^-, then y = z e on V_u^-, where e is +-1
    on each component's span (Schur).  By check 2.3's second containment,
    the minus part determines u: u lies in G_u^- and is -1 on V_u^-, so
    every component of G_u^- contains -1, and e lies in G_u^-.  Then y
    restricted to V_u^- is an element of G_u^- that keeps Phi-+, so it is
    1: y fixes every minus line.  Conversely, an element that fixes every
    minus line centralizes G_u^-.  So a nontrivial element of N acts
    innerly iff it centralizes G_u^- iff it fixes every minus line, and
    both checks pass iff N's restriction to the minus lines has order |N|.
    """
    subject = _subject(data)
    q, minus_order = data.quotient, data.profile.minus_type.order()
    if q.size == 1:
        status, details = "pass", ["trivial quotient"] * 2
    elif minus_order > SKIP_MINUS_ORDER:
        status, details = "skipped", [f"|G-| = {minus_order} over bound"] * 2
    else:
        kernel = q.size // restricted_order(q.handle, data.minus_lines)
        status = "pass" if kernel == 1 else "fail"
        details = [
            f"{kernel - 1} elements of N {what}" if kernel > 1 else ""
            for what in ("act innerly", "centralize")
        ]
    return [
        CheckResult(name, subject, status, detail)
        for name, detail in zip(("2.7", "2.8"), details)
    ]


def check_complement(data: ClassData) -> CheckResult:
    """Check 2.4: the stabilizer N of the positive system Phi1+ of the
    reflection part G1 is a complement of G1, generated by involutions.

    G1 acts simply transitively on the positive systems of its root system,
    so N meets G1 trivially and holds one element of each coset, the
    quotient's representatives (B. Brink and R. B. Howlett, Invent. Math.
    136, 1999).  The check passes iff the degree-<=2 involutions of G_u
    that fix Phi1+ generate a group of order |Gamma|, that is, all of N.
    A reflection in a stable line negates its root, a root of G1, and so
    does a product of two, so only the swapped pairs can fix Phi1+.  One
    that does negates no root of G1, so it is among the pairs `gamma`
    read, the quotient's `gens`, and their chain stops reading at |Gamma|.
    """
    name = "2.4"
    subject = _subject(data)
    q = data.quotient
    if q.size == 1:
        return CheckResult(name, subject, "pass", "trivial quotient")
    positive = q.positive
    fixers = (j for j in q.gens if all(j[a] in positive for a in positive))
    # the fixers lie in N, so |N| = |Gamma| bounds the group they generate
    order = BSGS(data.group.n_points, fixers, q.size).order()
    if order == q.size:
        return CheckResult(name, subject, "pass")
    return CheckResult(
        name,
        subject,
        "fail",
        f"involutions fixing the positive system generate order {order} of {q.size}",
    )


def check_gamma_structure(data: ClassData) -> CheckResult:
    """Check 1.2: the quotient is symmetric, or symmetric x C2 in type D
    only."""
    label = data.profile.gamma_structure
    if label.kind == "sym" or (
        label.kind == "sym_x_c2" and data.group.ctype.components[0][0] == "D"
    ):
        return CheckResult("1.2", _subject(data), "pass", str(label))
    return CheckResult("1.2", _subject(data), "fail", f"structure {label}")


# every name a CheckResult of run_property_suite can carry
CHECK_NAMES = (
    "1.1", "1.2", "2.1b", "2.1c", "2.3", "2.4", "2.5",
    "2.7", "2.8", "2.9", "3.2", "3.3", "mirror",
)


def class_property_suite(data: ClassData) -> list[CheckResult]:
    results = [check_theorem_1_1(data)]
    results.extend(check_order_identities(data))
    results.append(check_cube_generation(data))
    results.append(check_normalizer(data))
    results.append(check_complement(data))
    results.extend(check_out_injectivity(data))
    results.extend(check_tilde_reflection_generated(data))
    results.append(check_parabolic_chain(data))
    results.append(check_gamma_structure(data))
    return results


def check_extended_diagram(group: CoxeterGroup) -> list[CheckResult]:
    """Check 3.3: the fixed-line parabolic of the lowest-root reflection is
    the parabolic on the simple roots not adjacent to it.

    The roots of the parabolic W_Y are the roots whose sign its longest
    element w_0^Y flips: it sends the positive roots of W_Y to negative
    ones and permutes the other positive roots (Humphreys, 1.8 and 1.10)."""
    rs = group.root_system
    subject = str(group.ctype)
    y = extended_diagram_Y(rs)
    s0 = rs.highest
    perm = group.reflection_perm(s0)
    fixed_roots = {r for r in range(group.n_points) if perm[r] == r}
    w0 = group.parabolics.longest(sum(1 << c for c in y))
    positive = group._line_set
    parabolic = {
        r for r in range(group.n_points) if (r in positive) != (w0[r] in positive)
    }
    status = "pass" if fixed_roots == parabolic else "fail"
    ctype = reflection_subgroup_type(group, fixed_roots)
    return [CheckResult("3.3", subject, status, f"Y of type {ctype}")]


def run_property_suite(
    group: CoxeterGroup,
    classes: list[InvolutionClass],
    profiles: list[CentralizerProfile] | None = None,
) -> list[CheckResult]:
    """Run the per-group diagram check, then every per-class check in class
    order.  When `profiles` is a list, each class's profile is appended to
    it, so the profiles and the checks share one build of each class."""
    results: list[CheckResult] = []
    if group.geometry.crystallographic:
        results.extend(check_extended_diagram(group))
    built = _class_pipeline(group, classes, results)
    if profiles is not None:
        profiles.extend(built)
    return results


def _class_pipeline(
    group: CoxeterGroup,
    classes: list[InvolutionClass],
    results: list[CheckResult] | None = None,
) -> list[CentralizerProfile]:
    """The one per-class loop: one profile per class, in class order.

    A class's ClassData is built once, and dropped before the next class,
    so at most one is alive at a time.  Classes of degree above n/2 in
    groups containing -1 reuse the profile of their mirror class, which
    comes earlier, with the two sides swapped; their `mirror` row
    cross-checks the orders against the class sizes.  A built class gets
    the full suite when `results` is a list, and otherwise only the checks
    a printed row rests on: Gamma's label (1.2), the projection orders
    (2.9), and the order identities that tie Gamma's order to the sides
    and projections (2.1b and 2.5).  With `results`, every row is appended
    to it; without, the first failed row raises ViolationError naming its
    check.
    """
    by_rep: dict[InvolutionClass, CentralizerProfile] = {}
    out = []
    for cls in classes:
        source = by_rep.get(cls.mirror_of)
        if source is not None:
            profile = _mirror_profile(cls, source)
            # the shared centralizer must have the order the class size gives
            if cls.size * source.order == group.order:
                status, detail = "pass", "orders consistent with the mirror class"
            else:
                status, detail = "fail", "centralizers of u and -u differ in order"
            subject = f"{group.ctype} deg {cls.degree}/{cls.label}"
            found = [CheckResult("mirror", subject, status, detail)]
        else:
            data = _compute_class_data(group, cls)
            profile = data.profile
            if results is not None:
                found = class_property_suite(data)
            else:
                found = [check_gamma_structure(data), *check_tilde_reflection_generated(data)]
                found += check_order_identities(data)
            del data  # free it before the next class's data is built
        if results is not None:
            results.extend(found)
        else:
            for r in found:
                if r.status == "fail":
                    raise ViolationError(f"check {r.name} failed on {r.subject}: {r.detail}")
        by_rep[cls] = profile
        out.append(profile)
    return out
