"""Cross-cutting invariants promised by the engine."""

from __future__ import annotations

import pytest

from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.perms import compose, is_identity
from coxcent.structure import gamma, lines_with_negatives
from linalg import GroupElement, matrix_of_perm, reflection
from oracles import contains, normalizer_of_reflection_subgroup, whole_group


def test_reflection_returns_group_element(cache):
    group = cache.group("H", 3)
    rs = group.root_system
    elem = reflection(rs, group.lines[0])
    assert isinstance(elem, GroupElement)
    m = elem.matrix()
    from linalg import identity as ident, is_identity as mat_is_id, mat_mul

    assert mat_is_id(mat_mul(m, m))


def test_commuting_reflections_iff_orthogonal_or_equal(cache):
    for family, n in [("B", 3), ("F", 4), ("H", 3)]:
        group = cache.group(family, n)
        lines = group.lines[:14]
        for i in lines:
            pi = group.reflection_perm(i)
            for j in lines:
                pj = group.reflection_perm(j)
                commute = compose(pi, pj) == compose(pj, pi)
                assert commute == (i == j or group.orthogonal(i, j))


def test_sifting_soundness_on_generator_words(cache):
    group = cache.group("D", 4)
    handle = whole_group(group)
    gens = handle.gens
    word = group.identity
    for i in range(25):
        word = compose(word, gens[i % len(gens)])
        assert contains(handle, word)


def test_normalizer_handle_of_minus_part(cache):
    group = cache.group("H", 3)
    cls = next(c for c in cache.classes("H", 3) if c.degree == 1)
    rootset = lines_with_negatives(group, group.negated_lines(cls.rep))
    handle = normalizer_of_reflection_subgroup(whole_group(group), rootset, group.neg)
    assert handle.order() == 8
    assert contains(handle, cls.rep)


def test_normalizer_of_whole_rootset_is_group(cache):
    group = cache.group("B", 3)
    handle = normalizer_of_reflection_subgroup(
        whole_group(group), range(group.n_points), group.neg
    )
    assert handle.order() == group.order


def test_normalizer_rejects_unclosed_set(cache):
    group = cache.group("B", 3)
    with pytest.raises(ValueError):
        normalizer_of_reflection_subgroup(
            whole_group(group), (group.lines[0],), group.neg
        )


def test_gamma_wrapper(cache):
    group = cache.group("H", 4)
    cls = next(c for c in cache.classes("H", 4) if c.degree == 2)
    stable = group.fixed_lines(cls.rep) + group.negated_lines(cls.rep)
    q, label = gamma(group, cls.rep, stable)
    assert label.order == 2 and str(label) == "Sym2"
    assert q is not None and q.size == 2
    # trivial quotient path: u = 1 fixes every line and swaps none
    q0, label0 = gamma(group, group.identity, list(group.lines))
    assert q0.size == 1 and label0.order == 1 and str(label0) == "Sym1"


def test_e6_reflection_count_by_exhaustion(cache):
    # the largest group where the whole-element census is still reasonable
    group = cache.group("E", 6)
    gens = whole_group(group).gens
    seen = {group.identity}
    queue = [group.identity]
    while queue:
        x = queue.pop()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    assert len(seen) == 51840 == group.order
    reflections = sum(
        1
        for p in seen
        if not is_identity(p)
        and is_identity(compose(p, p))
        and group.degree(p) == 1
    )
    assert reflections == group.n_points // 2 == 36


def test_minus_one_membership(cache):
    # -1 lies in B/D(even)/E7/E8/F4/H but not in A(n>=2), D(odd), E6
    assert cache.group("E", 6).minus_one is None
    assert cache.group("A", 3).minus_one is None
    assert cache.group("D", 5).minus_one is None
    assert cache.group("D", 4).minus_one is not None
    assert cache.group("B", 3).minus_one is not None
    assert cache.group("H", 3).minus_one is not None
    assert cache.group("E", 7).minus_one is not None


@pytest.mark.parametrize(
    "family,n",
    [("A", n) for n in range(1, 12)]
    + [("B", n) for n in range(2, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("H", 3), ("H", 4)]
    + [("I", m) for m in (3, 4, 5, 8, 12, 1024)],
)
def test_minus_one_by_descent_matches_membership(family, n):
    # minus_one descends to the longest element; the oracle sifts -1
    # through the stabilizer chain of the whole group
    group = CoxeterGroup(CoxeterType.irreducible(family, n))
    expected = group.neg if contains(whole_group(group), group.neg) else None
    assert group.minus_one == expected


def test_e8_degree4_classes_closed_under_negation():
    # -u lands in the same class for both degree-4 types: the class label is
    # a conjugacy invariant and separates the only two degree-4 classes.
    from coxcent.involutions import label_class

    group = CoxeterGroup(CoxeterType.irreducible("E", 8))
    rs = group.root_system
    s = {i + 1: rs.reflection_perm(rs.simple[i]) for i in range(8)}
    s0 = rs.reflection_perm(rs.highest)
    rect = compose(compose(compose(s[2], s[5]), s[7]), s0)
    tetra = compose(compose(compose(s[1], s[4]), s[6]), s[8])
    for u in (rect, tetra):
        minus_u = compose(group.neg, u)
        assert label_class(group, minus_u, 4) == label_class(group, u, 4)


def test_matrix_and_permutation_actions_agree(cache):
    # applying the matrix of an element to a root vector lands on the root
    # at the permuted index
    from linalg import mat_vec
    from scalars import lift

    for family, n in [("B", 3), ("H", 3)]:
        group = cache.group(family, n)
        rs = group.root_system
        for line in group.lines[:5]:
            perm = rs.reflection_perm(line)
            m = matrix_of_perm(rs, perm)
            for r in range(0, rs.n_roots, 5):
                image = mat_vec(m, lift(rs.roots[r], rs.width))
                expected = lift(rs.roots[perm[r]], rs.width)
                assert image == expected


def test_bsgs_invariants(cache):
    group = cache.group("D", 4)
    chain = whole_group(group).chain
    product = 1
    for orbit in chain.tinv:
        product *= len(orbit)
    assert product == chain.order() == 192
    for b, tinv, level_gens in zip(chain.base, chain.tinv, chain.level_gens):
        # each entry is t_p^-1, mapping its point p back to the base point
        assert all(t_inv[p] == b for p, t_inv in tinv.items())
        # the basic orbit is closed under the level's strong generators
        assert all(g[p] in tinv for g, _ in level_gens for p in tinv)
        for g, g_inv in level_gens:
            assert compose(g, g_inv) == group.identity
            assert contains(chain, g)


def test_unique_cube_iff_minus_part_is_a1_power(cache):
    from oracles import cube_decompositions

    for family, n in [("E", 6), ("E", 7), ("F", 4), ("H", 4)]:
        group = cache.group(family, n)
        for p in cache.profiles(family, n):
            if p.mirrored or p.cls.degree == 0:
                continue
            cubes = cube_decompositions(group, p.cls.rep, limit=3)
            is_a1_power = all(f == "A" and r == 1 for f, r in p.minus_type.components)
            assert (len(cubes) == 1) == is_a1_power, (family, n, p.cls.label)


def test_eigenspace_decomposition_per_class(cache):
    from linalg import identity as ident, kernel_basis, mat_neg, mat_sub

    for family, n in [("H", 3), ("F", 4)]:
        group = cache.group(family, n)
        rs = group.root_system
        for cls in cache.classes(family, n):
            m = matrix_of_perm(rs, cls.rep)
            plus = kernel_basis(mat_sub(m, ident(n)))
            minus = kernel_basis(mat_sub(m, mat_neg(ident(n))))
            assert len(plus) + len(minus) == n
            assert len(minus) == cls.degree
