"""Stabilizer chains, orbits, quotients and structure labels, validated
against brute-force closures."""

from __future__ import annotations

from math import factorial

import pytest

from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.permengine import (
    BSGS,
    MembershipError,
    QuotientGroup,
    SubgroupHandle,
    fingerprint,
    orbit_stabilizer,
    quotient_action,
    simple_roots,
)
from coxcent.perms import compose, identity
from oracles import (
    act_on_point,
    contains,
    elements,
    involutions_deg_le_2,
    normalizer_of_reflection_subgroup,
    point_orbit,
    whole_group,
)


def brute_closure(n, gens):
    seen = {identity(n)}
    queue = [identity(n)]
    while queue:
        x = queue.pop()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def coxeter_gens(family, n):
    g = CoxeterGroup(CoxeterType.irreducible(family, n))
    return g, whole_group(g).gens


@pytest.mark.parametrize(
    "family,n,order",
    [("A", 3, 24), ("B", 3, 48), ("D", 4, 192), ("H", 3, 120), ("A", 4, 120), ("B", 4, 384)],
)
def test_bsgs_order_matches_brute_closure(family, n, order):
    group, gens = coxeter_gens(family, n)
    elements = brute_closure(group.n_points, gens)
    assert len(elements) == order
    handle = whole_group(group)
    assert handle.order() == order
    # membership: every brute element sifts in; a transposition of two roots
    # that is no group element does not.
    for e in list(sorted(elements))[:20]:
        assert contains(handle, e)


def test_bound_above_the_order_leaves_the_chain_exact():
    # a bound the chain never reaches stops nothing: verification runs in full
    group, gens = coxeter_gens("B", 4)
    chain = BSGS(group.n_points, gens, bound=2 * 384)
    assert chain.order() == 384 == whole_group(group).order()
    assert len(set(elements(chain, limit=400))) == 384


def _subgroup_generators(cache, family, n):
    """Generator lists of subgroups of a group: random subsets of its
    reflections, and of the degree-<=2 involutions centralizing a class
    representative, from a fixed seed."""
    import random

    rng = random.Random(1995)
    group = cache.group(family, n)
    reflections = [group.reflection_perm(l) for l in group.lines]
    out = [reflections]
    for _ in range(6):
        out.append(rng.sample(reflections, rng.randint(1, 4)))
    for cls in cache.classes(family, n):
        seeds = list(involutions_deg_le_2(group, cls.rep))
        out.append(seeds)
        out.append(rng.sample(seeds, min(len(seeds), rng.randint(1, 3))))
    return group, out


@pytest.mark.parametrize("family,n", [("B", 4), ("D", 5), ("F", 4), ("H", 3)])
def test_bounded_chain_reaches_the_true_order(cache, family, n):
    # the true order comes from an unbounded chain; a bound at, or above,
    # it gives that order and a complete chain, whose listing has that many
    # distinct elements
    group, generator_lists = _subgroup_generators(cache, family, n)
    for gens in generator_lists:
        true = BSGS(group.n_points, gens).order()
        for bound in (true, 2 * true, 3 * true):
            chain = BSGS(group.n_points, gens, bound=bound)
            assert chain.order() == true, (gens, bound)
            assert len(set(elements(chain, limit=4000))) == true


@pytest.mark.parametrize("family,n", [("B", 4), ("F", 4), ("H", 3)])
def test_bounded_chain_is_deterministic(cache, family, n):
    # the pseudo-random elements come from a fixed seed, so two
    # constructions from one input agree in every choice
    group, generator_lists = _subgroup_generators(cache, family, n)
    for gens in generator_lists:
        bound = BSGS(group.n_points, gens).order()
        first, second = (BSGS(group.n_points, gens, bound=bound) for _ in range(2))
        assert first.base == second.base
        assert first.level_gens == second.level_gens
        assert first.kept == second.kept


def test_bounded_chain_reads_generators_only_up_to_its_bound(cache):
    # once the order reaches the bound the remaining generators are unread:
    # here the degree-<=2 involutions of B4, which generate it
    group = cache.group("B", 4)
    seeds = list(involutions_deg_le_2(group, group.identity))
    read = []

    def lazily():
        for g in seeds:
            read.append(g)
            yield g

    chain = BSGS(group.n_points, lazily(), bound=group.order)
    assert chain.order() == group.order
    assert chain.kept == [g for g in read if g in chain.kept]
    assert len(read) < len(seeds)


def test_f4_exhaustive_order():
    group, gens = coxeter_gens("F", 4)
    assert len(brute_closure(group.n_points, gens)) == 1152 == group.order


def test_membership_rejects_outsiders():
    group, gens = coxeter_gens("A", 3)
    # swapping two arbitrary root indices is typically not in the group
    outsider = list(identity(group.n_points))
    outsider[0], outsider[2] = outsider[2], outsider[0]
    others = [p for p in brute_closure(group.n_points, gens)]
    assert (tuple(outsider) in others) == contains(whole_group(group), tuple(outsider))


def test_trivial_generators():
    h = SubgroupHandle.from_gens(5, [identity(5)])
    assert h.order() == 1
    assert contains(h, identity(5))


def test_handle_is_its_chain_on_the_kept_generators():
    # the identity and a repeat sift to the identity, so the chain keeps
    # neither, and what it keeps generates the group the raw list does
    group, gens = coxeter_gens("B", 3)
    e = identity(group.n_points)
    raw = [e, gens[0], gens[1], gens[0], e, gens[2], gens[1]]
    h = SubgroupHandle.from_gens(group.n_points, raw)
    assert h.gens is h.chain.kept
    assert e not in h.gens and len(set(h.gens)) == len(h.gens)
    assert h.order() == BSGS(group.n_points, raw).order() == group.order


def test_orbit_stabilizer_handle_keeps_generators_of_its_chain():
    group, gens = coxeter_gens("B", 3)
    for seed in group.lines[:4]:
        _, stab = orbit_stabilizer(
            group.n_points, gens, seed, act_on_point, group_order=group.order
        )
        assert stab.gens is stab.chain.kept
        assert BSGS(group.n_points, stab.gens).order() == stab.order()


def test_quotient_descends_each_distinct_generator_once(monkeypatch):
    group, gens = coxeter_gens("B", 3)
    shorts = [l for l in group.lines if not group.geometry.is_long(l)]
    normal = {l: group.reflection_perm(l) for l in shorts}
    real = QuotientGroup.image
    calls = []

    def counted(self, y):
        calls.append(y)
        return real(self, y)

    monkeypatch.setattr(QuotientGroup, "image", counted)
    q = QuotientGroup(group.n_points, gens + gens, normal)
    assert sorted(calls) == sorted(set(gens))
    assert q.size == 6


@pytest.mark.parametrize("family,n", [("A", 3), ("B", 4), ("H", 3), ("I", 8)])
def test_simple_roots_read_each_reflection_once_in_ascending_order(family, n):
    # the rule the recognizer and the quotient's descent share: on the
    # group's own positive roots it finds the simple roots
    group = CoxeterGroup(CoxeterType([(family, n)]))
    calls = []

    def reflection(a):
        calls.append(a)
        return group.reflection_perm(a)

    simple = simple_roots(reversed(group.lines), reflection)
    assert calls == sorted(group.lines)
    assert [a for a, _ in simple] == sorted(group.geometry.simple)
    assert all(s == group.reflection_perm(a) for a, s in simple)


def test_elements_enumeration():
    group, gens = coxeter_gens("B", 3)
    handle = whole_group(group)
    listed = elements(handle, limit=100)
    assert len(listed) == 48
    assert len(set(listed)) == 48
    with pytest.raises(MembershipError):
        elements(handle, limit=10)


def test_orbit_stabilizer_identity():
    group, gens = coxeter_gens("A", 2)
    orbit = point_orbit(gens, group.lines[0])
    assert len(orbit) == 6
    orbit2, stab = orbit_stabilizer(
        group.n_points, gens, group.lines[0], act_on_point, group_order=6
    )
    assert len(orbit2) == 6
    assert stab.order() * len(orbit2) == group.order


@pytest.mark.parametrize("family,n", [("A", 3), ("B", 3), ("D", 4)])
def test_orbit_stabilizer_on_every_root(family, n):
    group, gens = coxeter_gens(family, n)
    for seed in group.lines[: 4]:
        orbit, stab = orbit_stabilizer(
            group.n_points, gens, seed, act_on_point, group_order=group.order
        )
        assert len(orbit) * stab.order() == group.order


def test_set_stabilizer_of_everything_is_group():
    group, _ = coxeter_gens("B", 3)
    whole = range(group.n_points)
    normalizer = normalizer_of_reflection_subgroup(whole_group(group), whole, group.neg)
    assert normalizer.order() == group.order


def test_quotient_of_group_by_itself_is_trivial():
    group, gens = coxeter_gens("A", 3)
    q = quotient_action(
        group.n_points, gens, {l: group.reflection_perm(l) for l in group.lines}
    )
    assert q.size == 1


def test_quotient_sym3_from_b3():
    # W(B3) modulo its sign-change subgroup (A1)^3 is Sym_3.
    group, gens = coxeter_gens("B", 3)
    minus_one = group.minus_one
    assert minus_one is not None
    # (A1)^3: reflections in the three pairwise orthogonal short roots
    shorts = [l for l in group.lines if not group.geometry.is_long(l)]
    normal = {l: group.reflection_perm(l) for l in shorts}
    assert SubgroupHandle.from_gens(group.n_points, normal.values()).order() == 8
    q = quotient_action(group.n_points, gens, normal)
    assert q.size == 6
    assert str(fingerprint(q.handle)) == "Sym3"
    # quotient map is a homomorphism
    a, b = gens[:2]
    assert q.image(compose(a, b)) == compose(q.image(a), q.image(b))


def test_quotient_requires_normal():
    group, gens = coxeter_gens("A", 3)
    line = group.lines[0]
    with pytest.raises(ValueError):
        quotient_action(group.n_points, gens, {line: group.reflection_perm(line)})


def _sym_handle(r):
    gens = []
    for i in range(r - 1):
        img = list(range(r))
        img[i], img[i + 1] = img[i + 1], img[i]
        gens.append(tuple(img))
    return SubgroupHandle.from_gens(r, gens)


def test_fingerprint_symmetric_groups():
    assert str(fingerprint(SubgroupHandle.from_gens(1, []))) == "Sym1"
    for r in (2, 3, 4):
        label = fingerprint(_sym_handle(r))
        assert (label.kind, label.r) == ("sym", r)
        assert label.order == factorial(r)


def test_fingerprint_sym_x_c2_and_klein():
    # Sym3 x C2 on 5 points
    gens = [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3)]
    label = fingerprint(SubgroupHandle.from_gens(5, gens))
    assert (label.kind, label.r) == ("sym_x_c2", 3)
    # Klein four group = Sym2 x C2, printed C2xC2
    klein = [(1, 0, 2, 3), (0, 1, 3, 2)]
    label = fingerprint(SubgroupHandle.from_gens(4, klein))
    assert str(label) == "C2xC2"


def test_fingerprint_other():
    # The quaternion group of order 8 on 8 points (regular action): not a
    # symmetric group nor a doubling of one.
    # i -> (0 1 2 3)(4 7 6 5), j -> (0 4 2 6)(1 5 3 7)
    i = (1, 2, 3, 0, 7, 4, 5, 6)
    j = (4, 5, 6, 7, 2, 3, 0, 1)
    label = fingerprint(SubgroupHandle.from_gens(8, [i, j]))
    assert label.kind == "other"
    assert label.order == 8


def test_fingerprint_needs_a_faithful_orbit():
    # Sym3 on a 3-orbit and, through the sign, on a 2-orbit: order 6 = 3!,
    # so it is Sym3 and not Sym3 x C2
    gens = [(1, 0, 2, 4, 3), (0, 2, 1, 4, 3)]
    label = fingerprint(SubgroupHandle.from_gens(5, gens))
    assert str(label) == "Sym3"
    # C6, regular on 6 points, has order 3! but no 3-orbit: other
    label = fingerprint(SubgroupHandle.from_gens(6, [(1, 2, 3, 4, 5, 0)]))
    assert label.kind == "other" and label.order == 6
    # nor with a 3-orbit it acts on through C3
    c6 = (1, 2, 3, 4, 5, 0, 7, 8, 6)
    assert fingerprint(SubgroupHandle.from_gens(9, [c6])).kind == "other"
    # C12 of order 2 * 3!, regular, and through C3 and C2 on a 3-orbit and
    # a 2-orbit, whose joint restriction has order 6 only
    c12 = tuple((i + 1) % 12 for i in range(12)) + (13, 14, 12, 16, 15)
    label = fingerprint(SubgroupHandle.from_gens(17, [c12]))
    assert label.kind == "other" and label.order == 12
    # a larger symmetric group, beyond any element listing
    label = fingerprint(_sym_handle(8))
    assert (label.kind, label.r, label.order) == ("sym", 8, factorial(8))


def test_bsgs_determinism():
    group1, _ = coxeter_gens("D", 4)
    group2, _ = coxeter_gens("D", 4)
    b1, b2 = whole_group(group1).chain, whole_group(group2).chain
    assert b1.base == b2.base
    assert [sorted(t) for t in b1.tinv] == [sorted(t) for t in b2.tinv]
