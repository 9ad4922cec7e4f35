"""Involution class enumeration, cubes and labels."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from coxcent.classicmodels import predicted_rows
from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.cli import ALL_SMALL
from coxcent.involutions import (
    _sum_in_2p,
    first_cube,
    greedy_cube,
    label_class,
    signed_invariants,
)
from coxcent.perms import compose, is_identity
from coxcent.rootsys import signed_permutation
from oracles import (
    cube_decompositions,
    elements,
    is_involution,
    mod2_image,
    whole_group,
)


def census(cache, family, n):
    return [(c.degree, c.label, c.size) for c in cache.classes(family, n)]


def negated_root_set(group, u):
    return tuple(r for r in range(group.n_points) if u[r] == group.neg[r])


@pytest.mark.parametrize(
    "family,n", [("A", 5), ("B", 4), ("D", 5), ("F", 4), ("H", 3)]
)
def test_negated_root_sets_identify_involutions(cache, family, n):
    # the enumeration counts a class by the orbit of its negated-root set,
    # which is only right if u -> Phi_u^- is injective on involutions
    group = cache.group(family, n)
    involutions = [g for g in elements(whole_group(group)) if is_involution(g)]
    keys = {negated_root_set(group, u) for u in involutions}
    assert len(keys) == len(involutions)
    assert sum(c.size for c in cache.classes(family, n)) == len(involutions)


@pytest.mark.parametrize(
    "family,n",
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)],
)
def test_census_matches_the_closed_form(cache, family, n):
    expected = [(p.degree, p.label, p.class_size) for p in predicted_rows(family, n)]
    assert sorted(census(cache, family, n)) == sorted(expected)


def test_h3_census(cache):
    assert census(cache, "H", 3) == [
        (0, "", 1),
        (1, "", 15),
        (2, "", 15),
        (3, "", 1),
    ]


def test_h4_census(cache):
    assert [(c.degree, c.size) for c in cache.classes("H", 4)] == [
        (0, 1),
        (1, 60),
        (2, 450),
        (3, 60),
        (4, 1),
    ]


def test_f4_census(cache):
    rows = census(cache, "F", 4)
    assert rows.count((1, "C", 12)) == 1 and rows.count((1, "L", 12)) == 1
    assert (2, "2", 18) in rows
    assert (2, "2'", 72) in rows
    assert len([r for r in rows if r[0] == 3]) == 2


def test_e6_census(cache):
    assert [(c.degree, c.size) for c in cache.classes("E", 6)] == [
        (0, 1),
        (1, 36),
        (2, 270),
        (3, 540),
        (4, 45),
    ]


def test_e7_census_with_split_degrees(cache):
    rows = census(cache, "E", 7)
    assert len(rows) == 10
    assert (3, "droite", 315) in rows
    assert (3, "triangle", 3780) in rows
    assert (4, "droite", 315) in rows
    assert (4, "triangle", 3780) in rows
    assert (1, "", 63) in rows


def test_class_sizes_divide_group_order(cache):
    for family, n in [("H", 4), ("F", 4), ("E", 6), ("B", 5)]:
        group = cache.group(family, n)
        for cls in cache.classes(family, n):
            assert group.order % cls.size == 0
            assert is_involution(cls.rep)
            assert group.degree(cls.rep) == cls.degree


def test_reflection_classes_cover_all_reflections(cache):
    for family, n in [("A", 4), ("B", 4), ("D", 4), ("F", 4), ("H", 3)]:
        group = cache.group(family, n)
        deg1 = [c for c in cache.classes(family, n) if c.degree == 1]
        assert sum(c.size for c in deg1) == group.n_points // 2


# -- B/D invariants -----------------------------------------------------------------


def test_b5_all_invariants_occur(cache):
    labels = {c.label for c in cache.classes("B", 5)}
    expected = set()
    for b in range(3):
        for a in range(5 - 2 * b + 1):
            expected.add(f"{a},{5 - 2 * b - a},{b}")
    assert labels == expected


def test_d4_split_classes(cache):
    classes = cache.classes("D", 4)
    split = [c for c in classes if c.label.startswith("0,0,2")]
    assert sorted(c.label for c in split) == ["0,0,2+", "0,0,2-"]
    assert all(c.size == 6 for c in split)
    # the witness product of the two canonical plus-swaps lies in the "+" class
    group = cache.group("D", 4)
    plus = next(c for c in split if c.label.endswith("+"))
    a, a_fixed, b = signed_invariants(*signed_permutation(group.root_system, plus.rep))
    assert (a, a_fixed, b) == (0, 0, 2)


def test_d_split_unique_otherwise(cache):
    classes = cache.classes("D", 5)
    by_invariants = {}
    for c in classes:
        by_invariants.setdefault(c.label.rstrip("+-"), []).append(c)
    for label, cs in by_invariants.items():
        a, a_fixed, _ = map(int, label.split(","))
        assert len(cs) == (2 if (a, a_fixed) == (0, 0) else 1)


# -- cubes --------------------------------------------------------------------------


def test_reflection_has_unique_cube(cache):
    group = cache.group("B", 3)
    line = group.lines[0]
    u = group.reflection_perm(line)
    assert cube_decompositions(group, u) == [(line,)]


def test_f4_cube_counts(cache):
    group = cache.group("F", 4)
    rs = group.root_system
    for cls in cache.classes("F", 4):
        if cls.degree != 2:
            continue
        cubes = cube_decompositions(group, cls.rep)
        if cls.label == "2":
            assert len(cubes) == 2
            lengths = {
                tuple(sorted(rs.is_long(l) for l in cube)) for cube in cubes
            }
            # one decomposition uses two short roots, the other two long ones
            assert lengths == {(False, False), (True, True)}
        else:
            assert len(cubes) == 1
            cube = cubes[0]
            assert sorted(rs.is_long(l) for l in cube) == [False, True]


def test_cube_through_specific_line(cache):
    group = cache.group("D", 4)
    minus_one = group.minus_one
    for line in group.negated_lines(minus_one)[:4]:
        cubes = cube_decompositions(group, minus_one, limit=1, through=line)
        assert cubes and line in cubes[0]
        w = minus_one
        for l in cubes[0]:
            w = compose(w, group.reflection_perm(l))
        assert all(i == x for i, x in enumerate(w))


@pytest.mark.parametrize("family,n", [*ALL_SMALL, ("B", 8), ("D", 8), ("I", 1024)])
def test_greedy_cube_is_the_backtracking_search_first_cube(cache, family, n):
    group = cache.group(family, n)
    rng = random.Random(29)
    for cls in cache.classes(family, n):
        u, lines = cls.rep, group.negated_lines(cls.rep)
        assert [first_cube(group, u)] == cube_decompositions(group, u, limit=1)
        # through every negated line; I2(1024)'s -1 has 1024 of them
        for line in lines if len(lines) < 100 else lines[:2] + lines[-1:]:
            cube = first_cube(group, u, through=line)
            assert [cube] == cube_decompositions(group, u, limit=1, through=line)
        # a maximal orthogonal set of negated lines in any order is a cube
        rng.shuffle(lines)
        cube, w = greedy_cube(group, u, lines)
        assert len(cube) == cls.degree and is_identity(w)
        if cls.degree == 2:
            # each orthogonal pair of negated lines is a cube, as F4's labels use
            pairs = sum(group.orthogonal(a, b) for a, b in combinations(lines, 2))
            assert pairs == len(cube_decompositions(group, u))


# -- labels by explicit witnesses ------------------------------------------------------


def test_e7_line_triangle_witnesses(cache):
    group = cache.group("E", 7)
    rs = group.root_system
    s = {i + 1: rs.reflection_perm(rs.simple[i]) for i in range(7)}
    triangle = compose(compose(s[3], s[5]), s[7])
    line = compose(compose(s[2], s[5]), s[7])
    assert group.degree(triangle) == 3 and group.degree(line) == 3
    assert label_class(group, triangle, 3) == "triangle"
    assert label_class(group, line, 3) == "droite"


def test_e8_rectangle_tetrahedron_witnesses():
    # Needs only the root system (no stabilizer chains): cheap despite E8.
    group = CoxeterGroup(CoxeterType.irreducible("E", 8))
    rs = group.root_system
    s = {i + 1: rs.reflection_perm(rs.simple[i]) for i in range(8)}
    s0 = rs.reflection_perm(rs.highest)
    rect = compose(compose(compose(s[2], s[5]), s[7]), s0)
    tetra = compose(compose(compose(s[1], s[4]), s[6]), s[8])
    assert group.degree(rect) == 4 and group.degree(tetra) == 4
    assert label_class(group, rect, 4) == "rectangle"
    assert label_class(group, tetra, 4) == "tetraedre"


def test_e8_degree4_labels_constant_across_cubes(cache=None):
    group = CoxeterGroup(CoxeterType.irreducible("E", 8))
    rs = group.root_system
    s = {i + 1: rs.reflection_perm(rs.simple[i]) for i in range(8)}
    s0 = rs.reflection_perm(rs.highest)
    rect = compose(compose(compose(s[2], s[5]), s[7]), s0)
    cubes = cube_decompositions(group, rect)
    assert len(cubes) > 1  # its minus part is D4, which has several frames
    for cube in cubes:
        total = [0] * 8
        for l in cube:
            for k, x in enumerate(rs.roots[l]):
                total[k] = (total[k] + x) % 2
        assert not any(total)


@pytest.mark.parametrize(
    "n,set_counts,labels",
    [
        (7, {3: 4095, 4: 4725}, ("droite", "triangle")),
        (8, {4: 122850}, ("rectangle", "tetraedre")),
    ],
)
def test_cube_parity_is_the_mod2_lattice_test(cache, n, set_counts, labels):
    # `_sum_in_2p` counts the lines not orthogonal to each simple root; the
    # oracle sums the roots' classes in R/2P (E7) or R/2R (E8) by coordinates
    group = cache.group("E", n)
    rs = group.root_system
    image = {l: mod2_image(rs, l) for l in group.lines}

    def in_2p(lines) -> bool:
        return not any(sum(col) % 2 for col in zip(*(image[l] for l in lines)))

    later = {
        a: frozenset(b for b in group.lines if b > a and group.orthogonal(a, b))
        for a in group.lines
    }

    def orthogonal_sets(k, candidates, chosen=()):
        if len(chosen) == k:
            yield chosen
            return
        for a in sorted(candidates):
            yield from orthogonal_sets(k, candidates & later[a], chosen + (a,))

    for k, count in set_counts.items():
        sets = list(orthogonal_sets(k, frozenset(group.lines)))
        assert len(sets) == count
        assert [_sum_in_2p(group, c) for c in sets] == [in_2p(c) for c in sets]
    # every class of the labelled degrees, through its first cube as labelled
    seen = set()
    for cls in cache.classes("E", n):
        if cls.degree in set_counts:
            u = compose(group.neg, cls.rep) if cls.degree == 4 and n == 7 else cls.rep
            assert cls.label == labels[not in_2p(first_cube(group, u))]
            seen.add(cls.label)
    assert seen == set(labels)


def test_first_cube_multiplies_back(cache):
    group = cache.group("E", 6)
    for cls in cache.classes("E", 6):
        cube = first_cube(group, cls.rep)
        assert len(cube) == cls.degree
        w = cls.rep
        for l in cube:
            w = compose(w, group.reflection_perm(l))
        assert all(i == x for i, x in enumerate(w))
        for i, a in enumerate(cube):
            for b in cube[i + 1 :]:
                assert group.orthogonal(a, b)
