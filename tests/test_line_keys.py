"""Census keys as byte strings of line positions, and B/D labels from root
images, each against the formula it replaced."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxcent import linalg
from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.involutions import enumerate_involution_classes
from coxcent.permengine import LineAction, SubgroupHandle, conjugacy_class_set
from coxcent.perms import pack
from coxcent.rootsys import signed_permutation
from coxcent.tables import expected_rows


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


@pytest.mark.parametrize(
    "family,n", [("B", 4), ("D", 5), ("F", 4), ("E", 6), ("H", 3), ("I", 8)]
)
def test_line_key_orbit_matches_root_tuple_orbit(cache, family, n):
    group = cache.group(family, n)
    action = group.line_action
    own = [c for c in cache.classes(family, n) if c.mirror_of is None]
    assert own
    for cls in own:
        u = cls.rep
        old = root_tuple_orbit(
            group.handle.gens,
            tuple(r for r in range(group.n_points) if u[r] == group.neg[r]),
        )
        new = conjugacy_class_set(action, action.key(group.negated_lines(u)))
        assert {action.key(x) for x in old} == new
        assert len(old) == len(new) == cls.size


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
    m = linalg.mat_mul(linalg.mat_mul(s, rs.matrix_of_perm(perm)), s_inv)
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
    expected = census(cache.classes(family, n))
    gens = list(cache.group(family, n).handle.gens)
    shuffled = gens[:]
    random.Random(7).shuffle(shuffled)
    for order in (gens[::-1], shuffled):
        group = CoxeterGroup(CoxeterType.irreducible(family, n))
        group.handle = SubgroupHandle.from_gens(group.n_points, order)
        assert census(enumerate_involution_classes(group)) == expected


# -- two-byte keys -------------------------------------------------------------------


def test_key_width_follows_the_line_count():
    assert CoxeterGroup(CoxeterType.irreducible("I", 256)).line_action.width == 1
    assert CoxeterGroup(CoxeterType.irreducible("I", 257)).line_action.width == 2


@pytest.mark.parametrize("m", [257, 300, 1024])
def test_wide_dihedral_census_matches_reference_rows(m):
    group = CoxeterGroup(CoxeterType.irreducible("I", m))
    assert group.line_action.width == 2
    got = sorted((c.degree, c.label, c.size) for c in enumerate_involution_classes(group))
    want = sorted(
        (r.degree, label, r.class_size)
        for r in expected_rows(group.ctype)
        for label in r.labels
    )
    assert got == want


@pytest.mark.parametrize("family,n", [("B", 5), ("D", 5)])
def test_two_byte_keys_give_the_same_census(cache, family, n):
    group = CoxeterGroup(CoxeterType.irreducible(family, n))
    group.line_action = LineAction(group.handle.gens, group.lines, group.neg, width=2)
    key = group.line_action.key(group.lines[:3])
    assert key == pack((0, 1, 2), 2)
    assert census(enumerate_involution_classes(group)) == census(cache.classes(family, n))
