"""Oracles for the tests: the whole group as a subgroup handle, every
degree-<=2 involution of a centralizer, the order of a permutation,
whether it is an involution, membership in a stabilizer chain by
sifting, every element of a group listed from its chain, checks 2.7/2.8
by a scan of G_u^- for each element of the reflection quotient's
complement, a point orbit by plain BFS, the action of a permutation on a
point, the normalizer of a reflection subgroup as the stabilizer of its
root set (`orbit_stabilizer` on sorted root tuples), the involution
census by orbits of negated-line sets, the admissible subsets of the
simple roots listed, the lowest line of each orbit of G_u^+ on u's fixed
lines under every fixed reflection, the Gram matrix of the simple
roots over Q or Q(sqrt5), the projections of a centralizer as
reflection groups on normal vectors closed by reflecting them over the
field, every cube of an involution by a backtracking search, the image
of a root of E7 in R/2P and of E8 in R/2R, and a Gamma label with its
degenerate forms collapsed; and a copy of a plain-class record with some
fields set."""

from __future__ import annotations

import copy
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from coxcent.coxtype import RecognitionError, classify_coxeter_graph
from coxcent.involutions import InvolutionClass, label_class
from coxcent.permengine import MembershipError, SubgroupHandle, _bits, orbit_stabilizer
from coxcent.perms import Perm, compose, conjugate, identity, inverse, is_identity
from coxcent.structure import CheckResult, _primitive, _subject
from scalars import GOLDEN, Scalar, lift


def with_fields(record, **changes):
    """A shallow copy of `record` (an InvolutionClass, ClassData or other
    plain-class record) with `changes` set on it; `record` is unchanged."""
    out = copy.copy(record)
    for name, value in changes.items():
        if not hasattr(out, name):
            raise AttributeError(f"{type(record).__name__} has no field {name!r}")
        setattr(out, name, value)
    return out


def whole_group(group) -> SubgroupHandle:
    """A CoxeterGroup as the subgroup its simple reflections generate."""
    geometry = group.geometry
    return SubgroupHandle.from_gens(
        group.n_points, [geometry.reflection_perm(a) for a in geometry.simple]
    )


def involutions_deg_le_2(group, u: Perm) -> Iterator[Perm]:
    """Every involution of degree <= 2 in the centralizer of u, built one
    at a time.

    Degree 1: reflections in u-stable lines.  Degree 2: products of two
    orthogonal reflections whose line pair is preserved by u, either
    linewise (two stable lines) or swapped (a line and the line of its
    image).  Pairs come in the order of their positions in `lines`, which
    ascend.
    """
    neg = group.neg
    stable_lines = [l for l in group.lines if u[l] == l or u[l] == neg[l]]
    for l in stable_lines:
        yield group.reflection_perm(l)
    n_stable = 0
    for la in group.lines:
        ua = u[la]
        if ua == la or ua == neg[la]:
            n_stable += 1
            partners = stable_lines[n_stable:]
        else:
            lb = group.line_of(ua)
            partners = (lb,) if lb > la else ()
        for lb in partners:
            if group.orthogonal(la, lb):
                yield compose(group.reflection_perm(la), group.reflection_perm(lb))


def is_involution(p: Perm) -> bool:
    return all(p[p[i]] == i for i in range(len(p)))


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = bytearray(n)
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = p[j]
            length += 1
        order = lcm(order, length)
    return order


def contains(group, g: Perm) -> bool:
    """Whether g lies in a SubgroupHandle or a BSGS: g sifts to the
    identity through the stabilizer chain."""
    chain = group.chain if isinstance(group, SubgroupHandle) else group
    if len(g) != chain.n:
        raise MembershipError("degree mismatch")
    residue, _ = chain.sift(g)
    return is_identity(residue)


def elements(group, limit: int | None = None) -> list[Perm]:
    """Every element of a SubgroupHandle or a BSGS, in deterministic
    transversal order, the identity first; MembershipError above `limit`."""
    chain = group.chain if isinstance(group, SubgroupHandle) else group
    total = chain.order()
    if limit is not None and total > limit:
        raise MembershipError(f"group of order {total} exceeds limit {limit}")
    result = [identity(chain.n)]
    for lvl in range(len(chain.base) - 1, -1, -1):
        trans = [inverse(t) for t in chain.tinv[lvl].values()]
        result = [compose(h, t) for h in result for t in trans]
    return result


def out_injectivity_by_scan(data, limit: int) -> list[CheckResult]:
    """Checks 2.7 and 2.8 by explicit coset scan, listing G_u^- (up to
    `limit` elements) and the complement N of the reflection part.

    For each nontrivial element of N, one per nontrivial coset, no element
    of G_u^- may induce the same conjugation on G_u^-; otherwise the
    element times an inverse inner piece would centralize G_u^- without
    lying in it."""
    subject = _subject(data)
    if data.quotient.size == 1:
        return [
            CheckResult("2.7", subject, "pass", "trivial quotient"),
            CheckResult("2.8", subject, "pass", "trivial quotient"),
        ]
    minus_handle = SubgroupHandle.from_gens(
        data.group.n_points,
        [data.group.reflection_perm(l) for l in data.minus_lines],
    )
    minus_elements = elements(minus_handle, limit)
    minus_gens = minus_handle.gens
    offenders = []
    for i, rep in enumerate(elements(data.quotient.handle)):
        if i == 0:
            continue
        conj_rep = [conjugate(x, rep) for x in minus_gens]
        for z in minus_elements:
            if all(conjugate(x, z) == c for x, c in zip(minus_gens, conj_rep)):
                offenders.append(i)
                break
    if not offenders:
        return [
            CheckResult("2.7", subject, "pass"),
            CheckResult("2.8", subject, "pass"),
        ]
    return [
        CheckResult("2.7", subject, "fail", f"cosets {offenders} act innerly"),
        CheckResult("2.8", subject, "fail", f"cosets {offenders} centralize"),
    ]


def point_orbit(gens, seed: int) -> list[int]:
    seen = {seed}
    order = [seed]
    i = 0
    while i < len(order):
        p = order[i]
        i += 1
        for g in gens:
            y = g[p]
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def act_on_point(g: Perm, x: int) -> int:
    return g[x]


def normalizer_of_reflection_subgroup(
    group: SubgroupHandle, rootset, neg
) -> SubgroupHandle:
    """Normalizer in `group` of the reflection subgroup with the given roots.

    The root set must be closed under negation and under its own
    reflections; the normalizer is then exactly the set stabilizer.
    """
    closed = frozenset(rootset)
    if any(neg[r] not in closed for r in closed):
        raise ValueError("root set is not closed under negation")
    seed = tuple(sorted(closed))
    _, stab = orbit_stabilizer(
        group.n_points,
        group.gens,
        seed,
        lambda g, xs: tuple(sorted(g[x] for x in xs)),
        group_order=group.order(),
    )
    return stab


# -- cubes by backtracking ---------------------------------------------------------


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


# -- the census by orbits of negated-line sets --------------------------------------


class LineAction:
    """A group's action on the reflection lines, for orbits of line sets.

    A set of lines is keyed by an integer bitmask, bit p standing for
    `lines[p]`.  Each generator is kept as `(keep, moved, table)`: `moved`
    holds the bits of the positions it moves, `keep` the other bits, and
    `table` maps each moved bit to the bit of its image.
    """

    def __init__(self, gens, lines, neg):
        self.position = position = {}
        for p, line in enumerate(lines):
            position[line] = position[neg[line]] = p
        full = (1 << len(lines)) - 1
        images = [[position[g[line]] for line in lines] for g in gens]
        tables = [{1 << p: 1 << q for p, q in enumerate(im) if q != p} for im in images]
        self.generators = [(full ^ sum(t), sum(t), t) for t in tables]

    def key(self, roots) -> int:
        """The key of the lines through the given roots."""
        return sum(1 << p for p in {self.position[r] for r in roots})


def line_action(group, gens=None) -> LineAction:
    """The action of generators of a group, by default its simple
    reflections, on its line positions."""
    return LineAction(gens or whole_group(group).gens, group.lines, group.neg)


class _MovedImages(dict):
    """A generator's table, extended on demand to every moved part m."""

    def __missing__(self, m):
        image, rest = 0, m
        while rest:
            image |= self[rest & -rest]
            rest &= rest - 1
        self[m] = image
        return image


def line_key_orbit(action: LineAction, key: int) -> set[int]:
    """The orbit of a line-set key.  For the lines an involution negates:
    the keys of its conjugacy class, one per element.  Each generator maps
    x to `(x & keep) | images[x & moved]`, memoized within the call."""
    gens = [(keep, moved, _MovedImages(t)) for keep, moved, t in action.generators]
    seen = {key}
    queue = [key]
    while queue:
        x = queue.pop()
        for keep, moved, images in gens:
            m = x & moved
            if m:  # else the generator fixes x
                y = (x & keep) | images[m]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return seen


def enumerate_by_orbits(group, gens=None) -> list[InvolutionClass]:
    """The involution census by the level BFS with each class's size the
    orbit of its negated-line set: the line set determines the involution,
    and g^-1 u g negates g(Phi_u^-), so the orbit is in bijection with the
    class.  A level keeps one key per involution of its degree.  The orbits
    are those of `gens`, by default the simple reflections."""
    n = group.ctype.rank()
    action = line_action(group, gens)
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
                orbit = line_key_orbit(action, key)
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


# -- what the census skips ---------------------------------------------------------


def admissible(group, size: int) -> set[int]:
    """The subsets K of `size` simple roots with w_0^K = -1 on their
    span, listed: each connected component's w_0 negates its simple roots.
    These are the normal forms of the involutions of degree `size`."""
    groupoid, neg = group.parabolics, group.neg

    def negates(part: int) -> bool:
        w = groupoid._connected_longest(part)
        return all(w[a] == neg[a] for a in (groupoid.simple[i] for i in _bits(part)))

    subsets = (sum(1 << i for i in c) for c in combinations(range(len(groupoid.simple)), size))
    return {k for k in subsets if all(map(negates, groupoid._parts(k)))}


def lowest_lines_by_every_reflection(group, u: Perm) -> list[int]:
    """The lowest line of each orbit on the lines u fixes, the orbits taken
    by a BFS on the roots under the reflection in every fixed line."""
    fixed = group.fixed_lines(u)
    reflections = [group.reflection_perm(a) for a in fixed]
    lowest, seen = [], set()
    for line in fixed:
        if line not in seen:
            lowest.append(line)
            seen |= {group.line_of(r) for r in point_orbit(reflections, line)}
    return lowest


# -- the root system over the field ------------------------------------------------


def _gram_data(family: str, n: int):
    """Dynkin data, 0-based Bourbaki numbering: (edges with the exact inner
    product of the two simple roots, squared lengths of the simple roots)."""
    one, two, bond = Scalar(1), Scalar(2), Scalar(-1)
    if family == "A":
        return [(i, i + 1, bond) for i in range(n - 1)], [two] * n
    if family == "B":
        return [(i, i + 1, bond) for i in range(n - 1)], [two] * (n - 1) + [one]
    if family == "D":
        edges = [(i, i + 1, bond) for i in range(n - 2)]
        return edges + [(n - 3, n - 1, bond)], [two] * n
    if family == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]
        return [(i, j, bond) for i, j in chain + [(1, 3)]], [two] * n
    if family == "F":
        edges = [(0, 1, bond), (1, 2, bond), (2, 3, Scalar(Fraction(-1, 2)))]
        return edges, [two, two, one, one]
    if family == "H":
        edges = [(0, 1, -GOLDEN)] + [(i, i + 1, bond) for i in range(1, n - 1)]
        return edges, [two] * n
    raise ValueError(f"no Gram data for {family}{n}")


def gram_matrix(rs) -> tuple[tuple[Scalar, ...], ...]:
    """The Gram matrix of the simple roots of `rs`, over Q or Q(sqrt5)."""
    family, n = rs.ctype.components[0]
    edges, norms = _gram_data(family, n)
    gram = [[norms[i] if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    for i, j, prod in edges:
        gram[i][j] = gram[j][i] = prod
    return tuple(map(tuple, gram))


def field_product(gram, x, y):
    """The inner product of two Scalar vectors under `gram`."""
    n = len(gram)
    return sum((x[j] * gram[j][k] * y[k] for j in range(n) for k in range(n)), Scalar(0))


def field_roots(rs) -> tuple[tuple[Scalar, ...], ...]:
    """The roots of `rs` lifted to Scalars, in the order of `rs.roots`."""
    return tuple(lift(v, rs.width) for v in rs.roots)


def closed_roots(rs) -> tuple[tuple[Scalar, ...], ...]:
    """The roots closed from the simple roots by the field formula
    s_i(v) = v - 2 (v, alpha_i) / (alpha_i, alpha_i) alpha_i, sorted by
    height, then by coordinates, as real numbers."""
    gram = gram_matrix(rs)
    n = len(gram)
    simple = [tuple(Scalar(int(k == i)) for k in range(n)) for i in range(n)]
    seen = set(simple)
    queue = list(simple)
    for v in queue:
        for i, alpha in enumerate(simple):
            c = 2 * field_product(gram, v, alpha) / gram[i][i]
            w = tuple(x - c * a for x, a in zip(v, alpha))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen, key=lambda v: (sum(v, Scalar(0)), v)))


# -- projections by closing normal vectors over the field --------------------------


def _canonical_direction(vec):
    """The representative of the ray of a nonzero Scalar vector whose first
    nonzero coordinate is +-1."""
    lead = next((x for x in vec if x), None)
    if lead is None:
        raise ValueError("zero vector has no direction")
    if lead.sign() < 0:
        lead = -lead
    scale = lead.inverse()
    return tuple(scale * x for x in vec)


def _is_positive_direction(vec) -> bool:
    for x in vec:
        if x:
            return x > 0
    raise ValueError("zero vector has no direction")


def vector_roots(rs) -> tuple:
    """The roots as the projection oracle's vectors, in the field of
    `invariant_form`: int tuples over Z, Scalar tuples over Q(sqrt5)."""
    return rs.roots if rs.width == 1 else field_roots(rs)


def field_direction(rs, v) -> tuple:
    """The oracle's representative of the ray of a flat int vector of `rs`:
    the vector itself over Z (where the oracle keeps primitive int
    vectors), its lift's canonical direction over Z[phi]."""
    return v if rs.width == 1 else _canonical_direction(lift(v, 2))


def invariant_form(rs) -> tuple:
    """An invariant form in the field of the oracle's vectors: 2 * gram,
    which is integral, as ints for the crystallographic types (squared
    lengths 4 and 2, bonds -2 and -1); gram itself over Q(sqrt5) for H."""
    gram = gram_matrix(rs)
    if rs.width == 2:
        return gram
    return tuple(tuple(int((2 * x).a) for x in row) for row in gram)


def mod2_image(rs, line: int) -> tuple[int, ...]:
    """The class of a root of E7 in R/2P, P the weight lattice: its
    pairings with the simple coroots, 2 (x, a) / (a, a) under
    `invariant_form`, mod 2.  Of a root of E8 in R/2R: its simple-root
    coordinates mod 2."""
    family, n = rs.ctype.components[0]
    v = rs.roots[line]
    if (family, n) == ("E", 8):
        return tuple(x % 2 for x in v)
    if (family, n) != ("E", 7):
        raise ValueError(f"no mod-2 image for {rs.ctype}")
    form = invariant_form(rs)
    return tuple(
        2 * sum(map(mul, v, col)) // col[j] % 2 for j, col in enumerate(zip(*form))
    )


class _VectorReflectionGroup:
    """A reflection group on an explicitly closed set of exact vectors.

    The field of `gram` picks the arithmetic.  An integral form (twice the
    Gram matrix of a crystallographic type) keeps every vector as a
    primitive integer tuple; a form over Q(sqrt5) keeps Scalar vectors with
    a leading coordinate of +-1.  Either way each ray has exactly one
    representative, so vectors are looked up by value.
    """

    def __init__(self, gram, normals):
        self.gram = gram
        self._canonical = (
            _primitive if isinstance(gram[0][0], int) else _canonical_direction
        )
        vectors: dict[tuple, int] = {}
        order: list[tuple] = []

        def add(v) -> int:
            idx = vectors.get(v)
            if idx is None:
                idx = len(order)
                vectors[v] = idx
                order.append(v)
            return idx

        gen_lines: list[tuple] = []
        for raw in normals:
            v = self._canonical(raw)
            if not _is_positive_direction(v):
                v = tuple(-x for x in v)
            if v not in vectors:
                gen_lines.append(v)
            add(v)
            add(tuple(-x for x in v))
        self._gdots: dict[tuple, tuple] = {}
        # images[k][i]: the index of vector i reflected in gen_lines[k]
        images: list[list[int]] = [[] for _ in gen_lines]
        i = 0
        while i < len(order):
            if len(order) > 1000:
                # largest legitimate closure is the 480 root vectors of E8
                raise RecognitionError("normal-vector closure does not terminate")
            w = order[i]
            i += 1
            for v, image in zip(gen_lines, images):
                image.append(add(self.reflect(w, v)))
        self.vectors = vectors
        self.order_list = order
        self.gen_lines = gen_lines
        # Every vector is g(x) for a generator g and a vector x reached
        # before it from the generators' own vectors, and s_g(x) = g s_x g.
        gens = [tuple(image) for image in images]
        perms: list[Perm | None] = [None] * len(order)
        for v, g in zip(gen_lines, gens):
            perms[vectors[v]] = perms[vectors[tuple(-x for x in v)]] = g
        queue = [k for k, p in enumerate(perms) if p is not None]
        for x in queue:
            for g in gens:
                y = g[x]
                if perms[y] is None:
                    perms[y] = conjugate(perms[x], g)
                    queue.append(y)
        self._perms = perms

    def _gram_dot(self, v):
        """(the pairings of v with the basis vectors, v.v)."""
        cached = self._gdots.get(v)
        if cached is None:
            gv = tuple(sum(map(mul, v, col)) for col in zip(*self.gram))
            cached = (gv, sum(map(mul, gv, v)))
            self._gdots[v] = cached
        return cached

    def reflect(self, x, v):
        """The representative of the ray of x reflected in v.  Since
        v.v > 0, (v.v) x - 2 (x.v) v lies on that ray, so no division comes
        before the canonical scaling."""
        gv, vv = self._gram_dot(v)
        c = 2 * sum(map(mul, gv, x))
        return self._canonical(tuple(vv * xi - c * vi for xi, vi in zip(x, v)))

    def reflection_perm(self, v) -> Perm:
        return self._perms[self.vectors[v]]

    def positive_lines(self) -> list[tuple]:
        return [v for v in self.order_list if _is_positive_direction(v)]


def projection_normals(group, u: Perm, side: str) -> list[tuple]:
    """The generating normals of the projection of G_u to V_u^side: roots
    on that side, and root +- u(root) for the orthogonally swapped lines,
    as int vectors over Z and as Scalar vectors over Q(sqrt5)."""
    rs = group.root_system
    roots = vector_roots(rs)
    neg = group.neg
    normals = []
    for l in group.lines:
        v = u[l]
        if side == "+":
            if v == neg[l]:
                continue
            if v != l and not group.orthogonal(l, group.line_of(v)):
                continue
            normals.append(tuple(a + b for a, b in zip(roots[l], roots[v])))
        else:
            if v == l:
                continue
            if v != neg[l] and not group.orthogonal(l, group.line_of(v)):
                continue
            normals.append(tuple(a - b for a, b in zip(roots[l], roots[v])))
    return normals


def closed_projection(gram, normals):
    """(closure, Coxeter type, order) of the reflection group generated by
    `normals` under `gram`, with the order from a stabilizer chain on the
    closed vectors and the type from the positive-direction simples."""
    vgroup = _VectorReflectionGroup(gram, normals)
    positives = vgroup.positive_lines()
    perms = {v: vgroup.reflection_perm(v) for v in positives}
    handle = SubgroupHandle.from_gens(
        len(vgroup.order_list), [perms[v] for v in vgroup.gen_lines]
    )
    pos_index = {vgroup.vectors[v] for v in positives}
    simples = [
        v
        for v in positives
        if all(
            perms[v][vgroup.vectors[w]] in pos_index for w in positives if w != v
        )
    ]
    ctype = classify_coxeter_graph(
        simples, lambda a, b: perm_order(compose(perms[a], perms[b]))
    )
    return vgroup, ctype, handle.order()


# -- structure labels ----------------------------------------------------------------


def canonical_gamma(kind: str, r: int) -> tuple[str, int]:
    """Collapse degenerate structure labels: Sym_0 = Sym_1 = 1 and
    Sym_r x C2 = Sym_2 for r <= 1, as `permengine.fingerprint` labels a
    group of order 2."""
    if kind == "sym":
        return ("sym", max(r, 1))
    if r <= 1:
        return ("sym", 2)
    return ("sym_x_c2", r)
