"""Census keys as bitmasks of line positions, and B/D labels from root
images, each against the formula it replaced."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.involutions import enumerate_involution_classes
from coxcent.rootsys import signed_permutation
from coxcent.structure import profiles_for_group
from coxcent.tables import Analysis, class_csv, class_json, expected_rows
import linalg
from oracles import (
    _MovedImages,
    enumerate_by_orbits,
    line_action,
    line_key_orbit,
    whole_group,
)


def census(classes):
    return [(c.rep, c.degree, c.label, c.size) for c in classes]


# -- the orbit of a line-position key against the orbit of a root tuple ----------


def root_tuple_orbit(gens, key):
    """The orbit of a sorted tuple of root indices, as the census computed
    it before line keys."""

    def act_on_index_set(g, xs):
        return tuple(sorted(g[x] for x in xs))

    seen = {key}
    queue = [key]
    while queue:
        x = queue.pop()
        for g in gens:
            y = act_on_index_set(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def assert_orbits_match_root_tuple_orbits(group, classes):
    action = line_action(group)
    assert classes
    for cls in classes:
        u = cls.rep
        old = root_tuple_orbit(
            whole_group(group).gens,
            tuple(r for r in range(group.n_points) if u[r] == group.neg[r]),
        )
        new = line_key_orbit(action, action.key(group.negated_lines(u)))
        assert {action.key(x) for x in old} == new
        assert len(old) == len(new) == cls.size


@pytest.mark.parametrize(
    "family,n", [("B", 4), ("D", 5), ("F", 4), ("E", 6), ("H", 3), ("I", 8)]
)
def test_line_key_orbit_matches_root_tuple_orbit(cache, family, n):
    group = cache.group(family, n)
    own = [c for c in cache.classes(family, n) if c.mirror_of is None]
    assert_orbits_match_root_tuple_orbits(group, own)


@pytest.mark.parametrize("family,n", [("B", 9), ("D", 9), ("I", 257)])
def test_keys_beyond_64_lines_match_root_tuple_orbit(cache, family, n):
    # keys wider than a machine word; degrees <= 2 keep the oracle cheap
    group = cache.group(family, n)
    assert len(group.lines) > 64
    low = [c for c in cache.classes(family, n) if 0 < c.degree <= 2]
    assert_orbits_match_root_tuple_orbits(group, low)


# -- signed permutations against the Fraction-matrix formula ----------------------


def _standard_basis_matrix(family, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n - 1):
        rows[c][c] = Fraction(1)
        rows[c + 1][c] = Fraction(-1)
    rows[n - 1][n - 1] = Fraction(1)
    if family == "D":
        rows[n - 2][n - 1] = Fraction(1)
    return linalg.matrix(rows)


def matrix_signed_permutation(rs, perm):
    """The signed permutation read off the element's matrix, conjugated to
    the e-basis, as the B/D labels computed it before root images."""
    family = rs.ctype.components[0][0]
    s = _standard_basis_matrix(family, rs.rank)
    s_inv = linalg.mat_inv(s)
    m = linalg.mat_mul(linalg.mat_mul(s, linalg.matrix_of_perm(rs, perm)), s_inv)
    sigma = []
    signs = []
    for j in range(rs.rank):
        entries = [(i, m[i][j]) for i in range(rs.rank) if not m[i][j].is_zero()]
        if len(entries) != 1 or entries[0][1].a not in (1, -1):
            raise ValueError("element is not a signed permutation")
        i, val = entries[0]
        sigma.append(i)
        signs.append(1 if val.a == 1 else -1)
    return tuple(sigma), tuple(signs)


@pytest.mark.parametrize(
    "family,n", [("B", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
)
def test_signed_permutation_matches_matrix_formula(cache, family, n):
    group = cache.group(family, n)
    rs = group.root_system
    elements = [c.rep for c in cache.classes(family, n)]
    elements += [group.reflection_perm(line) for line in group.lines]
    for perm in elements:
        assert signed_permutation(rs, perm) == matrix_signed_permutation(rs, perm)


def test_signed_permutation_rejects_a_non_element(cache):
    group = cache.group("B", 3)
    swap = list(group.identity)
    a, b = group.lines[0], group.lines[-1]
    swap[a], swap[b] = swap[b], swap[a]
    with pytest.raises(ValueError):
        signed_permutation(group.root_system, tuple(swap))


# -- invariance under the order of the generators ----------------------------------


@pytest.mark.parametrize("family,n", [("B", 5), ("D", 6), ("E", 6)])
def test_census_ignores_generator_order(cache, family, n):
    # the orbit census, the oracle of the census, walks its orbits with
    # the generators in the order given
    group = cache.group(family, n)
    expected = census(cache.classes(family, n))
    gens = list(whole_group(group).gens)
    shuffled = gens[:]
    random.Random(7).shuffle(shuffled)
    for order in (gens[::-1], shuffled):
        assert census(enumerate_by_orbits(group, order)) == expected


def artifact_bytes(group, classes, profiles):
    analysis = Analysis(group, classes, profiles)
    return class_csv(analysis).encode(), class_json(analysis).encode()


@pytest.mark.parametrize("family,n", [("B", 5), ("D", 6), ("E", 6)])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_analyze_artifacts_ignore_generator_order(cache, family, n, data):
    # the orbit census's per-generator masks come from these generators,
    # and the profiles built on its classes give the same bytes
    group = cache.group(family, n)
    expected = artifact_bytes(group, cache.classes(family, n), cache.profiles(family, n))
    gens = list(whole_group(group).gens)
    for order in (gens[::-1], data.draw(st.permutations(gens))):
        classes = enumerate_by_orbits(group, order)
        assert artifact_bytes(group, classes, profiles_for_group(group, classes)) == expected


# -- bitmask keys --------------------------------------------------------------------


def test_key_sets_one_bit_per_line(cache):
    group = cache.group("B", 5)
    action = line_action(group)
    lines = group.lines
    assert action.key(lines[:3]) == 0b111
    assert action.key([group.neg[lines[4]], lines[4], lines[0]]) == 0b10001
    assert action.key([]) == 0


@pytest.mark.parametrize("family,n", [("B", 5), ("E", 6), ("H", 3)])
def test_moved_line_memo_maps_keys_as_the_root_permutation_does(cache, family, n):
    group = cache.group(family, n)
    action = line_action(group)
    lines = group.lines
    full = (1 << len(lines)) - 1

    def position(root):
        return lines.index(root if root in lines else group.neg[root])

    def image_key(g, subset):
        return sum(1 << position(g[l]) for l in subset)

    rng = random.Random(10)
    gens = whole_group(group).gens
    assert len(action.generators) == len(gens)
    for g, (keep, moved, table) in zip(gens, action.generators):
        stays = [l for l in lines if position(g[l]) == position(l)]
        assert moved == full ^ sum(1 << position(l) for l in stays)
        assert keep == full ^ moved
        images = _MovedImages(table)
        for _ in range(300):
            subset = rng.sample(lines, rng.randint(0, len(lines)))
            x = sum(1 << position(l) for l in subset)
            m = x & moved
            assert m or image_key(g, subset) == x
            assert (x & keep) | images[m] == image_key(g, subset)
        # a generator fixes every set of the lines it does not move, and
        # the set of all lines
        for subset in (stays, rng.sample(stays, len(stays) // 2), lines):
            x = sum(1 << position(l) for l in subset)
            assert (x & keep) | images[x & moved] == x == image_key(g, subset)


@pytest.mark.parametrize("m", [257, 300, 1024])
def test_wide_dihedral_census_matches_reference_rows(m):
    group = CoxeterGroup(CoxeterType.irreducible("I", m))
    got = sorted((c.degree, c.label, c.size) for c in enumerate_involution_classes(group))
    want = sorted(
        (r.degree, label, r.class_size)
        for r in expected_rows(group.ctype)
        for label in r.labels
    )
    assert got == want
