"""Root systems: closure, reflections, diagrams, lattices."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coxcent
from coxcent.cli import ALL_SMALL
from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.permengine import SubgroupHandle
from coxcent.perms import compose, is_identity
from coxcent.rootsys import (
    MAX_DIHEDRAL_M,
    CapabilityError,
    DihedralModel,
    build_system,
    extended_diagram_Y,
    signed_permutation,
)
from coxcent.structure import reflection_subgroup_type
from linalg import identity, mat_sub, matrix_of_perm, rank
from oracles import (
    closed_roots,
    field_product,
    field_roots,
    gram_matrix,
    invariant_form,
    mod2_image,
    perm_order,
    root_data_by_fresh_images,
    vector_roots,
    whole_group,
)
from scalars import Scalar, lift


def _rs(family, n):
    return build_system(CoxeterType.irreducible(family, n))


@pytest.mark.parametrize(
    "family,n,count",
    [
        ("A", 2, 6),
        ("A", 5, 30),
        ("B", 2, 8),
        ("B", 4, 32),
        ("D", 4, 24),
        ("F", 4, 48),
        ("E", 6, 72),
        ("E", 7, 126),
        ("E", 8, 240),
        ("H", 3, 30),
        ("H", 4, 120),
    ],
)
def test_root_counts(family, n, count):
    assert _rs(family, n).n_roots == count


def test_roots_closed_under_negation_and_reflections():
    rs = _rs("F", 4)
    for i in range(rs.n_roots):
        assert rs.neg[rs.neg[i]] == i
    for line in rs.positive[:10]:
        p = rs.reflection_perm(line)
        assert sorted(p) == list(range(rs.n_roots))


def _field_reflection_perm(gram, roots, index, line):
    # s_alpha(v) = v - 2 (v, alpha) / (alpha, alpha) alpha on the coordinates
    alpha = roots[line]
    galpha = tuple(field_product(gram, alpha, e) for e in identity(len(gram)))
    nn = field_product(gram, alpha, alpha)
    images = []
    for v in roots:
        c = 2 * sum(g * x for g, x in zip(galpha, v)) / nn
        images.append(index[tuple(x - c * a for x, a in zip(v, alpha))])
    return tuple(images)


@pytest.mark.parametrize(
    "family,n",
    [("A", 4), ("B", 4), ("D", 5), ("F", 4), ("E", 6), ("H", 3), ("H", 4)],
)
def test_reflection_perms_match_the_field_formula(family, n):
    # reflection_perm conjugates simple reflections; the oracle computes
    # every root's reflection in Q or Q(sqrt5) arithmetic
    rs = _rs(family, n)
    gram, roots = gram_matrix(rs), field_roots(rs)
    index = {v: i for i, v in enumerate(roots)}
    for i in range(rs.n_roots):
        assert rs.reflection_perm(i) == _field_reflection_perm(gram, roots, index, i), i


@pytest.mark.parametrize("family,n", [("A", 11), ("B", 9), ("E", 8), ("H", 4)])
def test_a_root_and_its_negative_share_one_reflection(family, n):
    # s_beta = s_-beta, so the table holds one tuple per line
    rs = _rs(family, n)
    for r in range(rs.n_roots):
        assert rs.reflection_perm(r) is rs.reflection_perm(rs.neg[r]), r


@pytest.mark.parametrize(
    "family,n", [("A", 4), ("B", 4), ("D", 5), ("F", 4), ("H", 3), ("H", 4)]
)
def test_integer_closure_matches_the_field_closure(family, n):
    # the package closes the roots over Z or Z[phi] and sorts them by an
    # integer key; the oracle closes them over Q or Q(sqrt5) from the Gram
    # matrix and sorts them as Scalars, so the order is pinned root by root
    rs = _rs(family, n)
    roots = field_roots(rs)
    assert closed_roots(rs) == roots
    assert rs.positive == tuple(
        i for i, v in enumerate(roots) if sum(v, Scalar(0)) > 0
    )
    # a positive root has every int of its flat tuple >= 0
    assert all(min(rs.roots[i]) >= 0 for i in rs.positive)


@pytest.mark.parametrize(
    "family,n",
    [c for c in ALL_SMALL if c[0] != "I"] + [("A", 12), ("B", 12), ("D", 12), ("E", 8)],
)
def test_closure_holding_each_root_once_matches_the_fresh_image_closure(family, n):
    rs = _rs(family, n)
    want = root_data_by_fresh_images(rs)
    for name in (
        "roots", "index", "_simple_perms", "neg", "simple", "positive", "_reflection_perms",
    ):
        assert getattr(rs, name) == getattr(want, name), name


_FREE_TUPLES = re.compile(r"free\s+\d+-sized PyTupleObjects \*\s*\d+ bytes each =\s*([\d,]+)")


def test_analysis_leaves_few_dead_tuples_on_the_free_lists():
    # CPython keeps up to 2,000 freed tuples of each length below 20 for
    # reuse, and a full collection empties those lists, so none runs before
    # they are read.  With the coordinate tuples of the closure, the
    # negation map and the projections' normals built from generators, they
    # held about 640 KB after these types, and about 112 KB built at their
    # exact length
    script = (
        "import sys\n"
        "from coxcent.cli import ALL_SMALL\n"
        "from coxcent.coxtype import CoxeterType\n"
        "from coxcent.tables import analyze, class_csv, class_json\n"
        "for c in ALL_SMALL:\n"
        "    analysis = analyze(CoxeterType([c]))\n"
        "    class_csv(analysis)\n"
        "    class_json(analysis)\n"
        "sys._debugmallocstats()\n"
    )
    src = str(Path(coxcent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    sizes = _FREE_TUPLES.findall(proc.stderr)
    if not sizes:
        pytest.skip("this interpreter reports no tuple free lists")
    assert sum(int(b.replace(",", "")) for b in sizes) < 320_000


# a + b*phi with b = -F(k), a = F(k+1): within about phi^-k of 0, of both signs
_NEAR_ZERO = [(832040, -514229), (-832040, 514229), (514229, -317811), (-514229, 317811)]
_COORD = st.tuples(
    st.integers(-(10**6) + 1, 10**6 - 1), st.integers(-(10**6) + 1, 10**6 - 1)
)


@settings(max_examples=300)
@example(x=(1, -1), y=(0, 0))  # 1 - phi < 0
@example(x=(-1, 1), y=(0, 0))  # phi - 1 > 0
@example(x=(-2, 1), y=(-1, 0))  # phi - 2 < -1
@given(x=st.one_of(_COORD, st.sampled_from(_NEAR_ZERO)), y=_COORD)
def test_real_key_orders_as_scalar_sign(x, y):
    # real_key orders Z[phi] coordinates as their real values, which
    # Scalar.sign decides exactly
    h3 = _rs("H", 3)
    kx, ky = (h3.real_key(c + (0, 0, 0, 0))[0] for c in (x, y))
    (sx,), (sy,) = (lift(c, 2) for c in (x, y))
    assert (kx > 0) - (kx < 0) == sx.sign()
    assert (kx > ky) - (kx < ky) == (sx - sy).sign()


@pytest.mark.parametrize("family,n", [("B", 4), ("F", 4), ("E", 6), ("H", 3)])
def test_long_roots_have_the_longest_norm(family, n):
    # is_long reads the W-orbit of the highest root; the oracle compares
    # squared lengths under the Gram matrix
    rs = _rs(family, n)
    gram = gram_matrix(rs)
    norms = [field_product(gram, v, v) for v in field_roots(rs)]
    longest = max(norms)
    assert [rs.is_long(i) for i in range(rs.n_roots)] == [x == longest for x in norms]


def test_positive_system_is_nonnegative_and_sum_closed():
    rs = _rs("D", 4)
    pos = set(rs.positive)
    for i in pos:
        assert all(c >= 0 for c in rs.roots[i])
    # positive + positive sums that are roots stay positive
    for i in pos:
        for j in pos:
            s = tuple(a + b for a, b in zip(rs.roots[i], rs.roots[j]))
            if s in rs.index:
                assert rs.index[s] in pos


def test_reflection_involution_and_negates_own_root():
    for family, n in [("B", 3), ("H", 3), ("E", 6)]:
        rs = _rs(family, n)
        for line in rs.positive[:6]:
            p = rs.reflection_perm(line)
            assert is_identity(compose(p, p))
            assert p[line] == rs.neg[line]


def test_braid_order_in_a2():
    rs = _rs("A", 2)
    s, t = (rs.reflection_perm(i) for i in rs.simple)
    assert perm_order(compose(s, t)) == 3


def test_reflection_matrix_squares_to_identity():
    rs = _rs("H", 3)
    for line in rs.positive[:5]:
        m = matrix_of_perm(rs, rs.reflection_perm(line))
        assert rank(mat_sub(m, identity(rs.rank))) == 1


def test_degree_examples():
    group = CoxeterGroup(CoxeterType.irreducible("H", 4))
    assert group.degree(group.identity) == 0
    assert group.degree(group.reflection_perm(group.lines[0])) == 1
    assert group.degree(group.neg) == 4


@pytest.mark.parametrize("family,n", [t for t in ALL_SMALL if t[0] != "I"])
def test_degree_from_trace_matches_rank(cache, family, n):
    # degree_of reads (rank - trace) / 2 off the images of the simple roots;
    # the reference is the exact rank of M - I
    rs = cache.group(family, n).root_system
    for cls in cache.classes(family, n):
        m = matrix_of_perm(rs, cls.rep)
        assert rs.degree_of(cls.rep) == rank(mat_sub(m, identity(rs.rank))) == cls.degree


@pytest.mark.parametrize("family,n", [("B", 4), ("F", 4), ("E", 6), ("H", 3)])
def test_orthogonal_matches_gram_product(family, n):
    rs = _rs(family, n)
    gram = gram_matrix(rs)
    if rs.crystallographic:
        # twice the Gram matrix is integral: squared lengths 4 and 2, bonds
        # -2 and -1
        assert all(not (2 * x).b and (2 * x).a.denominator == 1 for row in gram for x in row)
    roots = field_roots(rs)
    for i in range(rs.n_roots):
        for j in range(rs.n_roots):
            assert rs.orthogonal(i, j) == (field_product(gram, roots[i], roots[j]) == 0)


def _form_rows(rs):
    # row i: the pairings of root i with the simple roots under an invariant
    # form in the field of the oracle's vectors: 2 * gram as ints, or gram
    # for H on the lifted roots
    form = invariant_form(rs)
    roots = vector_roots(rs)
    return tuple(
        tuple(sum(map(mul, v, col)) for col in zip(*form)) for v in roots
    ), roots


@pytest.mark.parametrize("family,n", ALL_SMALL)
def test_orthogonal_matches_the_form_rows(family, n):
    # orthogonal reads a fixed point of a reflection permutation; the oracle
    # is the dot product against cached rows of the invariant form
    rs = _rs(family, n)
    if isinstance(rs, DihedralModel):
        for i in range(rs.n_roots):
            p = rs.reflection_perm(i)
            for j in range(rs.n_roots):
                assert rs.orthogonal(i, j) == (p[j] == j), (i, j)
        return
    rows, roots = _form_rows(rs)
    for i in range(rs.n_roots):
        for j in range(rs.n_roots):
            expected = not sum(map(mul, rows[i], roots[j]))
            assert rs.orthogonal(i, j) == expected, (i, j)


def test_eigenspace_dimensions_sum():
    # dim ker(u - 1) + dim ker(u + 1) = dim V for involutions
    from linalg import kernel_basis, mat_neg

    group = CoxeterGroup(CoxeterType.irreducible("B", 3))
    for line in group.lines[:3]:
        u = group.reflection_perm(line)
        m = matrix_of_perm(group.root_system, u)
        plus = kernel_basis(mat_sub(m, identity(3)))
        minus = kernel_basis(mat_sub(m, mat_neg(identity(3))))
        assert len(plus) + len(minus) == 3


@pytest.mark.parametrize(
    "family,n,expected_positions,expected_type",
    [
        ("E", 6, {0, 2, 3, 4, 5}, "A5"),
        ("E", 7, {1, 2, 3, 4, 5, 6}, "D6"),
        ("E", 8, {0, 1, 2, 3, 4, 5, 6}, "E7"),
        ("A", 2, set(), "1"),
        ("F", 4, {1, 2, 3}, "B3"),
        ("B", 4, {0, 2, 3}, "A1xB2"),
        ("D", 5, {0, 2, 3, 4}, "A1xA3"),
    ],
)
def test_extended_diagram_y(family, n, expected_positions, expected_type):
    group = CoxeterGroup(CoxeterType.irreducible(family, n))
    rs = group.root_system
    y = extended_diagram_Y(rs)
    assert y == frozenset(expected_positions)
    if expected_positions:
        rootset = set()
        frontier = [rs.simple[c] for c in y]
        rootset.update(x for l in frontier for x in (l, rs.neg[l]))
        perms = [rs.reflection_perm(rs.simple[c]) for c in y]
        changed = True
        while changed:
            changed = False
            for p in perms:
                for r in list(rootset):
                    if p[r] not in rootset:
                        rootset.add(p[r])
                        changed = True
        assert str(reflection_subgroup_type(group, rootset)) == expected_type


def test_extended_diagram_requires_crystallographic():
    rs = _rs("H", 3)
    with pytest.raises(CapabilityError):
        extended_diagram_Y(rs)


def test_rank_bound_capability_error():
    with pytest.raises(CapabilityError):
        build_system(CoxeterType.irreducible("B", 13))
    build_system(CoxeterType.irreducible("B", 13), max_rank=13)
    with pytest.raises(CapabilityError):
        build_system(CoxeterType.irreducible("I", MAX_DIHEDRAL_M + 1))
    assert build_system(CoxeterType.irreducible("I", MAX_DIHEDRAL_M)).m == MAX_DIHEDRAL_M


# -- mod 2 lattice machinery ---------------------------------------------------


def mod2_form(rs, i: int, j: int) -> int:
    """Pairing (root_i . root_j^vee) = 2 (root_i, root_j) / (root_j, root_j)
    mod 2, under the integral form 2 * gram."""
    form = invariant_form(rs)

    def dot(x, y):
        return sum(map(mul, (sum(map(mul, x, col)) for col in zip(*form)), y))

    x, y = rs.roots[i], rs.roots[j]
    return 2 * dot(x, y) // dot(y, y) % 2


def test_e7_mod2_form_alternating_nondegenerate():
    rs = _rs("E", 7)
    vectors = {}
    for line in rs.positive:
        v = mod2_image(rs, line)
        assert any(v), "a root must map to a nonzero class"
        vectors[line] = v
    # 63 lines biject onto the nonzero classes of a 6-dimensional space
    assert len(set(vectors.values())) == 63
    # alternating: b(x, x) = 0
    for line in rs.positive[:20]:
        assert mod2_form(rs, line, line) == 0
    # nondegenerate: a basis of the 6-dimensional quotient has an invertible
    # Gram matrix over F2
    basis: list[int] = []
    span: set[tuple[int, ...]] = {tuple([0] * 7)}
    for line in rs.positive:
        v = mod2_image(rs, line)
        if v not in span:
            basis.append(line)
            span = {tuple((a + b) % 2 for a, b in zip(v, w)) for w in span} | span
    assert len(basis) == 6
    rows = [[mod2_form(rs, a, b) for b in basis] for a in basis]
    # Gaussian elimination over F2
    rank2 = 0
    for col in range(6):
        pivot = next((r for r in range(rank2, 6) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank2], rows[pivot] = rows[pivot], rows[rank2]
        for r in range(6):
            if r != rank2 and rows[r][col]:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[rank2])]
        rank2 += 1
    assert rank2 == 6


def test_e7_commuting_reflections_match_mod2_form():
    rs = _rs("E", 7)
    lines = rs.positive[:25]
    for i in lines:
        for j in lines:
            if i == j:
                continue
            commute = rs.orthogonal(i, j)
            assert (mod2_form(rs, i, j) == 0) == commute


def test_e8_rectangle_witness_in_2r():
    rs = _rs("E", 8)
    # the four pairwise orthogonal reflections: simple 2, 5, 7 and the
    # highest root; their sum has all-even simple coordinates
    lines = [rs.simple[1], rs.simple[4], rs.simple[6], rs.highest]
    for a in lines:
        for b in lines:
            if a != b:
                assert rs.orthogonal(a, b)
    total = [0] * 8
    for l in lines:
        for k, x in enumerate(rs.roots[l]):
            total[k] += x
    assert all(x % 2 == 0 for x in total)


# -- exhaustive reflection counts (whole group enumeration) ----------------------


@pytest.mark.parametrize(
    "family,n",
    [("A", 3), ("B", 3), ("H", 3), ("D", 4), ("B", 4), ("F", 4), ("H", 4)],
)
def test_reflection_count_by_exhaustion(family, n):
    group = CoxeterGroup(CoxeterType.irreducible(family, n))
    gens = whole_group(group).gens
    ident = group.identity
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    assert len(seen) == group.order
    reflections = [
        p
        for p in seen
        if not is_identity(p) and group.degree(p) == 1 and is_identity(compose(p, p))
    ]
    assert len(reflections) == group.n_points // 2


# -- dihedral model ---------------------------------------------------------------


def test_dihedral_model_structure():
    m = DihedralModel(7)
    s0, s1 = (m.reflection_perm(a) for a in m.simple)
    assert is_identity(compose(s0, s0))
    assert perm_order(compose(s0, s1)) == 7
    h = SubgroupHandle.from_gens(m.n_roots, [s0, s1])
    assert h.order() == 14
    assert m.degree_of(s0) == 1


@pytest.mark.parametrize("m", [5, 6, 8, 257, 1024])
def test_dihedral_reflections_match_the_rotation_formula(m):
    # the reflection in the line of root j maps root k to 2j + m - k (mod 2m)
    model = DihedralModel(m)
    for j in model.positive:
        expected = tuple((2 * j + m - k) % (2 * m) for k in range(2 * m))
        assert model.reflection_perm(j) == expected


def test_dihedral_half_turn_degree_2():
    m = DihedralModel(8)
    h = SubgroupHandle.from_gens(m.n_roots, [m.reflection_perm(a) for a in m.simple])
    assert h.order() == 16
    assert m.degree_of(tuple(m.neg)) == 2
    # orthogonality exists only for even m
    assert m.orthogonal(0, 4)
    assert not DihedralModel(7).orthogonal(0, 3)


def test_signed_permutation_extraction():
    group = CoxeterGroup(CoxeterType.irreducible("B", 3))
    for line in group.lines:
        sigma, signs = signed_permutation(group.root_system, group.reflection_perm(line))
        moved = sum(1 for i, s in enumerate(sigma) if s != i or signs[i] != 1)
        assert moved in (1, 2)  # short flip or a transposition with signs


@pytest.mark.parametrize(
    "family,n", list(ALL_SMALL) + [("E", 8)]
)
def test_group_order_from_the_type_matches_schreier_sims(cache, family, n):
    # CoxeterGroup.order reads |W| off the Coxeter type; the oracle is the
    # stabilizer chain of the simple reflections' root permutations
    group = cache.group(family, n)
    assert whole_group(group).order() == group.order
