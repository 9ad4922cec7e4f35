"""The census from Richardson normal forms and Howlett's groupoid, against
the orbit census, the closed forms and brute force."""

from __future__ import annotations

import tracemalloc

import pytest

from coxcent import involutions, permengine
from coxcent.classicmodels import predicted_rows
from coxcent.cli import ALL_SMALL
from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.involutions import (
    enumerate_involution_classes,
    lowest_fixed_lines,
    normal_form,
)
from coxcent.permengine import SubgroupHandle, ViolationError, conjugacy_class_set
from coxcent.perms import compose
from oracles import elements as list_elements
from oracles import (
    admissible,
    enumerate_by_orbits,
    line_action,
    line_key_orbit,
    lowest_lines_by_every_reflection,
    whole_group,
)


def census(classes):
    return [
        (
            c.rep,
            c.degree,
            c.label,
            c.size,
            None if c.mirror_of is None else c.mirror_of.rep,
        )
        for c in classes
    ]


ORACLE_TYPES = list(ALL_SMALL) + [
    ("A", 7), ("A", 8), ("A", 9), ("A", 10), ("B", 8), ("B", 9),
    ("D", 8), ("D", 9), ("E", 8), ("I", 257), ("I", 1024),
]


@pytest.mark.parametrize("family,n", ORACLE_TYPES)
def test_census_matches_the_orbit_oracle(cache, family, n):
    group = cache.group(family, n)
    assert census(cache.classes(family, n)) == census(enumerate_by_orbits(group))


def _census_rows_match_the_closed_form(family, n):
    group = CoxeterGroup(CoxeterType.irreducible(family, n), max_rank=n)
    got = sorted((c.degree, c.label, c.size) for c in enumerate_involution_classes(group))
    want = sorted((p.degree, p.label, p.class_size) for p in predicted_rows(family, n))
    assert got == want


@pytest.mark.parametrize(
    "family,n", [(f, n) for f in ("A", "B", "D") for n in (10, 11, 12)]
)
def test_ranks_10_to_12_match_the_closed_form(family, n):
    _census_rows_match_the_closed_form(family, n)


@pytest.mark.large
@pytest.mark.parametrize(
    "family,n", [(f, n) for f in ("A", "B", "D") for n in (13, 14, 15, 16)]
)
def test_ranks_13_to_16_match_the_closed_form(family, n):
    # above the default max_rank: run with -m large
    _census_rows_match_the_closed_form(family, n)


def _census_peak(family, n):
    group = CoxeterGroup(CoxeterType.irreducible(family, n), max_rank=n)
    tracemalloc.start()
    try:
        enumerate_involution_classes(group)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_census_stores_nothing_per_involution():
    # B9 has 5.2 M involutions; the orbit census peaked at 5.4 MB here
    assert _census_peak("B", 9) < 2_000_000


def test_census_holds_each_groupoid_loop_once():
    # B14's walks close many copies of each loop; holding every copy
    # peaked at about 9.2 MB here, the distinct loops at about 3.9 MB
    assert _census_peak("B", 14) < 5_000_000


# -- what the census skips ---------------------------------------------------------


COMPLETENESS_TYPES = list(ALL_SMALL) + [
    ("A", 9), ("A", 10), ("A", 11), ("A", 12), ("B", 8), ("B", 9), ("B", 10),
    ("B", 11), ("B", 12), ("D", 8), ("D", 9), ("D", 10), ("D", 11), ("D", 12), ("E", 8),
]


@pytest.mark.parametrize("family,n", COMPLETENESS_TYPES)
def test_census_components_are_the_admissible_subsets(cache, family, n):
    # every normal form of every degree lies in the groupoid component of
    # exactly one class: no class is missed and none is found twice
    group = cache.group(family, n)
    components: dict[int, list[frozenset[int]]] = {}
    for cls in cache.classes(family, n):
        component, _ = conjugacy_class_set(group.parabolics, normal_form(group, cls.rep))
        components.setdefault(cls.degree, []).append(component)
    for d in range(n + 1):
        found = components.get(d, [])
        assert sum(map(len, found)) == len(frozenset().union(*found))
        assert frozenset().union(*found) == admissible(group, d)


def test_b12_census_tries_one_line_per_orbit(monkeypatch):
    # every fixed line gives 832 normal forms; the lowest line of each
    # orbit gives 77
    calls = []
    real = involutions.normal_form

    def counted(group, u):
        calls.append(u)
        return real(group, u)

    monkeypatch.setattr(involutions, "normal_form", counted)
    enumerate_involution_classes(CoxeterGroup(CoxeterType.irreducible("B", 12)))
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("family,n", [("A", 11), ("B", 9)])
def test_groupoid_loops_are_pairwise_distinct(cache, family, n):
    group = cache.group(family, n)
    for cls in cache.classes(family, n):
        _, loops = conjugacy_class_set(group.parabolics, normal_form(group, cls.rep))
        assert len(set(loops)) == len(loops)


@pytest.mark.parametrize("family,n", list(ALL_SMALL) + [("B", 9), ("D", 9)])
def test_lowest_lines_match_the_orbits_of_every_fixed_reflection(cache, family, n):
    group = cache.group(family, n)
    for cls in cache.classes(family, n):
        want = lowest_lines_by_every_reflection(group, cls.rep)
        assert lowest_fixed_lines(group, cls.rep) == want


# -- normal forms ------------------------------------------------------------------


@pytest.mark.parametrize("family,n", [("B", 5), ("D", 6), ("E", 7), ("H", 4), ("I", 12)])
def test_normal_form_lies_in_the_class(cache, family, n):
    group = cache.group(family, n)
    action = line_action(group)
    for cls in cache.classes(family, n):
        k = normal_form(group, cls.rep)
        w_k = group.parabolics.longest(k)
        assert bin(k).count("1") == cls.degree
        orbit = line_key_orbit(action, action.key(group.negated_lines(cls.rep)))
        assert action.key(group.negated_lines(w_k)) in orbit


def test_normal_form_that_misses_w_k_raises(cache, monkeypatch):
    group = CoxeterGroup(CoxeterType.irreducible("B", 4))
    u = group.reflection_perm(group.lines[-1])
    assert group.degree(u) == 1
    monkeypatch.setattr(group.parabolics, "longest", lambda subset: group.identity)
    with pytest.raises(ViolationError, match="normal form"):
        normal_form(group, u)


def test_normal_form_of_a_non_involution_raises(cache):
    group = cache.group("A", 3)
    s, t = (group.reflection_perm(a) for a in group.parabolics.simple[:2])
    with pytest.raises(ViolationError, match="normal form"):
        normal_form(group, compose(s, t))


# -- the groupoid --------------------------------------------------------------------


def _image(group, g, subset):
    """g(J) as a mask, or None when g(J) is not a set of simple roots."""
    position = group.parabolics.position
    simple = group.parabolics.simple
    try:
        return sum(1 << position[g[simple[i]]] for i in range(len(simple)) if subset >> i & 1)
    except KeyError:
        return None


@pytest.mark.parametrize(
    "family,n", [("A", 4), ("B", 4), ("D", 5), ("F", 4), ("H", 3), ("I", 8), ("I", 9)]
)
def test_components_and_loops_match_brute_force(cache, family, n):
    # the component of K is {w(K)} among the subsets, and the loops
    # generate N_K = {w : w(K) = K}, as Brink and Howlett prove
    group = cache.group(family, n)
    elements = list_elements(whole_group(group))
    groupoid = group.parabolics
    for k in range(groupoid.full + 1):
        images = [_image(group, g, k) for g in elements]
        component, loops = conjugacy_class_set(groupoid, k)
        assert component == {j for j in images if j is not None}
        stabilizer = SubgroupHandle.from_gens(group.n_points, loops)
        assert stabilizer.order() == images.count(k)


def test_loop_that_moves_its_base_raises(cache, monkeypatch):
    group = cache.group("A", 5)
    k = 1  # the first simple root: every reflection is conjugate to it
    component, loops = conjugacy_class_set(group.parabolics, k)
    assert len(component) == 5 and loops
    # a loop closed without inverting the tree path moves k
    monkeypatch.setattr(permengine, "inverse", lambda p: p)
    with pytest.raises(ViolationError, match="moves its base"):
        conjugacy_class_set(group.parabolics, k)
