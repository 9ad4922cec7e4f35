"""Centralizers, recognition, projections, quotients, and the checks."""

from __future__ import annotations

import tracemalloc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxcent.group
from coxcent import structure
from coxcent.cli import ALL_SMALL
from coxcent.coxtype import CoxeterType
from coxcent.group import CoxeterGroup
from coxcent.involutions import InvolutionClass, enumerate_involution_classes
from coxcent.permengine import BSGS, StructureLabel, SubgroupHandle
from coxcent.perms import compose, conjugate, inverse
from coxcent.structure import (
    CHECK_NAMES,
    RecognitionError,
    ViolationError,
    _compute_class_data,
    _mirror_profile,
    _projection_reflections,
    centralizer,
    check_complement,
    check_cube_generation,
    check_extended_diagram,
    check_gamma_structure,
    check_normalizer,
    check_out_injectivity,
    check_order_identities,
    check_parabolic_chain,
    check_theorem_1_1,
    lines_with_negatives,
    reflection_subgroup_type,
    run_property_suite,
    tilde_side,
)
from linalg import matrix_of_perm
from oracles import (
    _canonical_direction,
    _is_positive_direction,
    _VectorReflectionGroup,
    centralizer_by_chain,
    closed_projection,
    contains,
    elements as list_elements,
    field_direction,
    invariant_form,
    involutions_deg_le_2,
    line_action,
    line_key_orbit,
    normalizer_of_reflection_subgroup,
    orbit_stabilizer,
    out_injectivity_by_scan,
    projection_normals,
    vector_roots,
    whole_group,
    with_fields,
)
from scalars import Scalar, lift


def test_centralizer_of_identity_is_group(cache):
    group = cache.group("B", 3)
    assert centralizer(group, class_size=1) == group.order
    assert centralizer_by_chain(group, group.identity, class_size=1).order() == group.order


def test_centralizer_orders_match_class_sizes(cache):
    for family, n in [("H", 3), ("F", 4), ("E", 6)]:
        group = cache.group(family, n)
        for cls in cache.classes(family, n):
            c = centralizer_by_chain(group, cls.rep, class_size=cls.size)
            assert c.order() * cls.size == group.order == centralizer(group, cls.size) * cls.size
            assert contains(c, cls.rep)


def test_class_size_short_of_the_centralizer_fails_check_1_1(cache):
    # A reflection of A3 has a class of 6 and a centralizer of order 4.  A
    # class size of 3 gives |G| / |class| = 8, which the paper's generators
    # do not reach, so check 1.1 fails; a size that does not divide |G| is
    # refused before any class data is built.
    group = cache.group("A", 3)
    cls = next(c for c in cache.classes("A", 3) if c.degree == 1)
    assert cls.size == 6 and check_theorem_1_1(_compute_class_data(group, cls)).status == "pass"
    data = _compute_class_data(group, with_fields(cls, size=3))
    result = check_theorem_1_1(data)
    assert (result.status, result.detail) == ("fail", "|G+| |G-| |N| = 4, |G| / |class| = 8")
    assert check_order_identities(data)[0].status == "fail"  # 2.1b, the same product
    with pytest.raises(ViolationError, match="does not divide"):
        centralizer(group, class_size=5)


def test_gamma_rejects_a_noncommuting_generator(monkeypatch, cache):
    # A product of two orthogonal reflections can keep the positive roots
    # of G1, so pass the quotient's normality guard, and still not commute
    # with u; put first among the swapped pairs, N's chain keeps it, and
    # the class build refuses it.
    group = cache.group("A", 3)
    cls = next(c for c in cache.classes("A", 3) if c.degree == 1)
    u, neg = cls.rep, group.neg
    stable = group.fixed_lines(u) + group.negated_lines(u)
    roots = lines_with_negatives(group, stable)
    stranger = next(
        j
        for j in involutions_deg_le_2(group, group.identity)
        if compose(j, u) != compose(u, j)
        and all(j[r] in roots for r in roots)
        and all(j[l] != neg[l] for l in stable)
    )
    real = group.swapped_pairs
    monkeypatch.setattr(group, "swapped_pairs", lambda u: iter([stranger, *real(u)]))
    with pytest.raises(ViolationError, match="does not commute with u"):
        _compute_class_data(group, cls)


@pytest.mark.parametrize("family,n", [*ALL_SMALL, ("B", 8), ("D", 8), ("E", 8), ("I", 1024)])
def test_class_size_and_quotient_agree_with_the_chain_oracle(cache, family, n):
    # |G| / |class|, the census's count, is the order of the oracle's chain
    # on the stable reflections and swapped pairs, and N, built from the
    # swapped pairs alone, has the order of the quotient of that chain's
    # group by G1
    group = cache.group(family, n)
    for cls in cache.classes(family, n):
        if cls.mirror_of is not None:
            continue
        data = _compute_class_data(group, cls)
        chain = centralizer_by_chain(group, cls.rep, cls.size)
        assert data.profile.order == group.order // cls.size == chain.order()
        stable = data.plus_lines + data.minus_lines
        reflections = {l: group.reflection_perm(l) for l in stable}
        q = structure.quotient_action(group.n_points, chain.gens, reflections)
        assert data.quotient.size == q.size


@pytest.mark.parametrize("family,n", [("B", 5), ("E", 6), ("F", 4), ("H", 3)])
def test_early_stopped_centralizer_chain_is_complete(cache, family, n):
    # the centralizer's chain stops verifying once its order reaches
    # |G| / |class|; the oracle is a fresh, fully verified chain on the kept
    # seeds, and membership in C(u) is commuting with u
    group = cache.group(family, n)
    gens = whole_group(group).gens
    limit = 4000
    sifted = {"stopped": 0, "full": 0}
    for cls in cache.classes(family, n):
        if cls.mirror_of is not None:
            continue
        u = cls.rep
        handle = centralizer_by_chain(group, u, cls.size)
        chain = handle.chain
        fresh = BSGS(group.n_points, handle.gens)
        assert chain.order() == fresh.order() == group.order // cls.size
        sifted["stopped"] += sum(map(len, chain._checked))
        sifted["full"] += sum(map(len, fresh._checked))
        probes = list(gens)
        probes += [compose(g, h) for g in gens for h in handle.gens]
        if fresh.order() <= limit:
            elements = list_elements(fresh, limit=limit)
            assert sorted(list_elements(chain, limit=limit)) == sorted(elements)
            probes += elements
        for x in probes:
            assert contains(chain, x) == contains(fresh, x) == (compose(x, u) == compose(u, x))
    # the stop leaves Schreier generators unsifted
    assert sifted["stopped"] < sifted["full"]


def test_no_bounded_chain_falls_back_to_schreier_verification(monkeypatch, cache):
    # Every chain with a proven bound on its order reaches it by sifting, on
    # every `verify --all` type: the profiles and the checks that read them
    # (`run_property_suite` builds each profile as `profiles_for_group`
    # does).  A change that sent bounded chains back through Schreier
    # verification would keep every output and only show here.  The
    # projections and the centralizer build no chain, so A9-A10, B8-B10,
    # D8-D10 and E8 add the label proofs and checks 2.4 and 2.7/2.8 of
    # larger groups.
    bounded, fallbacks = [], []
    real_init, real_verify = BSGS.__init__, BSGS._verify_from

    def init(chain, n_points, gens=(), bound=None):
        if bound is not None:
            bounded.append(bound)
        real_init(chain, n_points, gens, bound)

    def verify(chain, start, bound):
        if bound is not None:
            fallbacks.append(bound)
        return real_verify(chain, start, bound)

    monkeypatch.setattr(BSGS, "__init__", init)
    monkeypatch.setattr(BSGS, "_verify_from", verify)
    larger = [(f, n) for n in (8, 9, 10) for f in "ABD" if (f, n) != ("A", 8)]
    for family, n in [*ALL_SMALL, *larger, ("E", 8)]:
        profiles = []
        results = run_property_suite(
            cache.group(family, n), cache.classes(family, n), profiles
        )
        assert profiles and all(r.status != "fail" for r in results)
    assert len(bounded) > 300
    assert fallbacks == []


@pytest.mark.parametrize(
    "family,n", [("B", 5), ("D", 6), ("E", 6), ("E", 7), ("F", 4), ("H", 3), ("H", 4)]
)
def test_projection_reflections_match_the_arithmetic(cache, family, n):
    # tilde_side reads each reflection off a root permutation; the oracle
    # closes the normals by reflecting them over the form's field
    group = cache.group(family, n)
    rs = group.root_system
    form = invariant_form(rs)
    for cls in cache.classes(family, n):
        if cls.mirror_of is not None:
            continue
        for side in "+-":
            normals = projection_normals(group, cls.rep, side)
            closure, ctype, order = closed_projection(form, normals)
            flat, perms = _projection_reflections(group, cls.rep, side)
            vectors = [field_direction(rs, v) for v in flat]
            assert sorted(vectors) == sorted(closure.order_list)
            assert set(perms) == {
                k for k, v in enumerate(vectors) if _is_positive_direction(v)
            }
            for k, p in perms.items():
                assert [vectors[x] for x in p] == [
                    closure.reflect(w, vectors[k]) for w in vectors
                ]
            t = tilde_side(group, cls.rep, side)
            assert (t, t.order()) == (ctype, order)
    # from the simple roots alone the oracle's closure is the root system
    roots = vector_roots(rs)
    whole = _VectorReflectionGroup(form, [roots[s] for s in rs.simple])
    assert len(whole.order_list) == rs.n_roots


@pytest.mark.parametrize("side", "+-")
def test_projection_rejects_a_missing_entry(monkeypatch, cache, side):
    # with one entry dropped, some reflection maps a normal to a root that
    # has none: a RecognitionError, not a KeyError
    group = cache.group("E", 6)
    cls = next(c for c in cache.classes("E", 6) if c.degree == 2)
    real = structure._projection_entries

    def dropped(group, u, side):
        entries = real(group, u, side)
        next(entries)
        yield from entries

    monkeypatch.setattr(structure, "_projection_entries", dropped)
    with pytest.raises(RecognitionError, match="leaves its normals"):
        tilde_side(group, cls.rep, side)


def test_reflection_subgroup_type_trivial_and_whole(cache):
    group = cache.group("F", 4)
    assert str(reflection_subgroup_type(group, ())) == "1"
    assert str(reflection_subgroup_type(group, range(group.n_points))) == "F4"


def test_reflection_subgroup_type_rejects_unclosed(cache):
    b3, i12 = cache.group("B", 3), cache.group("I", 12)
    for group, rootset in [
        (b3, (b3.lines[0],)),
        # the lines at angles 0 and pi/12 generate all of I2(12)
        (i12, lines_with_negatives(i12, [0, 1])),
    ]:
        with pytest.raises(ValueError):
            reflection_subgroup_type(group, rootset)


def test_recognizer_on_parabolic_subsets(cache):
    # remove one simple reflection from B4: types A1xB2 etc. appear
    group = cache.group("B", 4)
    rs = group.root_system
    for drop, expected in [(0, "B3"), (1, "A1xB2"), (3, "A3")]:
        seed = [s for i, s in enumerate(rs.simple) if i != drop]
        roots = set()
        frontier = [x for l in seed for x in (l, rs.neg[l])]
        roots.update(frontier)
        perms = [rs.reflection_perm(l) for l in seed]
        while frontier:
            r = frontier.pop()
            for p in perms:
                if p[r] not in roots:
                    roots.add(p[r])
                    frontier.append(p[r])
        assert str(reflection_subgroup_type(group, roots)) == expected


def test_h4_profile_row_degree_2(cache):
    profiles = cache.profiles("H", 4)
    p = next(q for q in profiles if q.cls.degree == 2)
    assert str(p.minus_type) == "A1^2"
    assert str(p.tilde_minus_type) == "B2"
    assert str(p.plus_type) == "A1^2"
    assert str(p.tilde_plus_type) == "B2"
    assert p.gamma_structure.order == 2
    assert p.order == 32


def test_tilde_orders_are_reflection_subgroup_orders(cache):
    # the chain on the normals is the oracle: the recognized type's order is
    # the order of the group its reflections generate, counted by a chain
    # with no bound, on every projection with 1 < dim < rank
    sides = 0
    for family, n in [*ALL_SMALL, ("B", 8), ("D", 8)]:
        group = cache.group(family, n)
        rank = group.geometry.rank
        for cls, p in zip(cache.classes(family, n), cache.profiles(family, n)):
            assert p.tilde_minus_type.order() == p.order // p.plus_type.order()
            assert p.tilde_plus_type.order() == p.order // p.minus_type.order()
            for side, dim, ctype in (
                ("-", cls.degree, p.tilde_minus_type),
                ("+", rank - cls.degree, p.tilde_plus_type),
            ):
                if 1 < dim < rank:
                    sides += 1
                    vectors, perms = _projection_reflections(group, cls.rep, side)
                    handle = SubgroupHandle.from_gens(len(vectors), list(perms.values()))
                    assert handle.order() == ctype.order(), (family, n, cls.label, side)
    assert sides


def test_recognize_rejects_a_type_with_the_wrong_root_count(monkeypatch, cache):
    # G_u^+-, the projections and the whole group are typed by one
    # `recognize`, whose root count catches a wrong type
    group = cache.group("E", 6)
    cls = next(c for c in cache.classes("E", 6) if c.degree == 2)
    # A9 has 90 roots; E6 has 72, and a projection to a plane at most 12
    wrong = CoxeterType.irreducible("A", 9)
    monkeypatch.setattr(coxcent.group, "classify_coxeter_graph", lambda *_: wrong)
    with pytest.raises(RecognitionError, match="root counts disagree"):
        reflection_subgroup_type(group, range(group.n_points))
    with pytest.raises(RecognitionError, match="root counts disagree"):
        tilde_side(group, cls.rep, "-")


def test_tilde_side_on_a_line_matches_the_vector_path(cache):
    # on a side of dimension <= 1, tilde_side reads the projection off
    # whether any normal exists; the oracle closes the normals over the field
    sides = 0
    for family, n in [
        ("A", 5), ("B", 5), ("D", 6), ("E", 6), ("F", 4), ("H", 3), ("H", 4)
    ]:
        group = cache.group(family, n)
        form = invariant_form(group.root_system)
        for cls in cache.classes(family, n):
            for side, dim in (("-", cls.degree), ("+", n - cls.degree)):
                if dim > 1:
                    continue
                sides += 1
                normals = projection_normals(group, cls.rep, side)
                _, ctype, order = closed_projection(form, normals)
                t = tilde_side(group, cls.rep, side)
                assert (t, t.order()) == (ctype, order), (family, n, cls.label)
    assert sides == 28


@pytest.mark.parametrize(
    "family,n", [("B", 4), ("D", 5), ("F", 4), ("E", 6), ("H", 3), ("H", 4)]
)
def test_tilde_integer_path_matches_scalar_path(cache, family, n):
    # tilde_side keys the normals by primitive vectors over Z or Z[phi]; the
    # oracle on the same form and normals as Scalars takes the Q(sqrt5) path
    group = cache.group(family, n)
    rs = group.root_system
    form = invariant_form(rs)

    def to_scalars(v):
        return tuple(Scalar.of(x) for x in v)

    scalar_form = tuple(map(to_scalars, form))
    for cls in cache.classes(family, n):
        for side in "+-":
            normals = projection_normals(group, cls.rep, side)
            vectors, _ = _projection_reflections(group, cls.rep, side)
            scalar_run = closed_projection(
                scalar_form, [to_scalars(v) for v in normals]
            )
            # over Q(sqrt5) the form and the normals are Scalars already
            field_run = (
                closed_projection(form, normals) if rs.crystallographic else scalar_run
            )
            lifted, scalar_type, scalar_order = scalar_run
            _, int_type, int_order = field_run
            assert {_canonical_direction(lift(v, rs.width)) for v in vectors} == set(
                lifted.order_list
            )
            t = tilde_side(group, cls.rep, side)
            assert (t, t.order()) == (int_type, int_order)
            assert (t, t.order()) == (scalar_type, scalar_order)


def test_a_family_tilde_types(cache):
    # Sym_6: involution with d = 2, a = 2: minus projection B2, plus A1xA1
    profiles = cache.profiles("A", 5)
    p = next(q for q in profiles if q.cls.degree == 2)
    assert str(p.minus_type) == "A1^2"
    assert str(p.tilde_minus_type) == "B2"
    assert str(p.plus_type) == "A1"
    assert str(p.tilde_plus_type) == "A1^2"
    assert p.gamma_structure.kind == "sym" and p.gamma_structure.r == 2


def test_normalizer_check_needs_generators_inside_the_normalizer(cache):
    # a reflection that does not commute with u moves u's minus roots, so
    # put among the generators of N it fails check 2.3
    for family, n, degree in [("B", 4, 2), ("E", 6, 2), ("H", 3, 1)]:
        group = cache.group(family, n)
        cls = next(c for c in cache.classes(family, n) if c.degree == degree)
        data = _compute_class_data(group, cls)
        assert check_normalizer(data).status == "pass"
        u = cls.rep
        stranger = next(
            s
            for s in map(group.reflection_perm, group.lines)
            if compose(s, u) != compose(u, s)
        )
        q = data.quotient
        handle = with_fields(q.handle, gens=[*q.handle.gens, stranger])
        result = check_normalizer(with_fields(data, quotient=with_fields(q, handle=handle)))
        assert result.status == "fail" and "move the minus roots" in result.detail


def test_normalizer_examples(cache):
    # the normalizer of the minus part equals the centralizer
    h3 = cache.group("H", 3)
    cls1 = next(c for c in cache.classes("H", 3) if c.degree == 1)
    rootset = lines_with_negatives(h3, h3.negated_lines(cls1.rep))
    assert normalizer_of_reflection_subgroup(whole_group(h3), rootset, h3.neg).order() == 8

    e6 = cache.group("E", 6)
    cls2 = next(c for c in cache.classes("E", 6) if c.degree == 2)
    rootset = lines_with_negatives(e6, e6.negated_lines(cls2.rep))
    assert normalizer_of_reflection_subgroup(whole_group(e6), rootset, e6.neg).order() == 192


def test_normalizer_check_needs_the_minus_part_of_u(cache):
    # check 2.3 on a degree-2 class of B4 passes; with one of its two
    # negated lines dropped, the stabilizer of the remaining root pair is no
    # longer inside the centralizer of u
    group = cache.group("B", 4)
    cls = next(c for c in cache.classes("B", 4) if c.degree == 2)
    data = _compute_class_data(group, cls)
    assert check_normalizer(data).status == "pass"
    minus_lines = data.minus_lines
    data.minus_lines = minus_lines[:1]
    assert check_normalizer(data).status == "fail"
    # nor with the centralizer order set to that stabilizer's: one
    # reflection is not u
    profile = data.profile
    pair = line_action(group).key(minus_lines[:1])
    pair_order = group.order // len(line_key_orbit(line_action(group), pair))
    data.profile = profile._replace(order=pair_order)
    result = check_normalizer(data)
    assert result.status == "fail" and "does not determine u" in result.detail
    # nor with a line that u does not negate put after its own, which leaves
    # the product alone
    u = cls.rep
    extra = next(
        l
        for l in group.lines
        if u[l] != group.neg[l] and not group.orthogonal(l, minus_lines[0])
    )
    data.minus_lines = minus_lines + [extra]
    roots = line_action(group).key(data.minus_lines)
    order = group.order // len(line_key_orbit(line_action(group), roots))
    data.profile = profile._replace(order=order)
    result = check_normalizer(data)
    assert result.status == "fail" and "does not determine u" in result.detail
    data.profile = profile
    # the minus part of a conjugate has a normalizer of the same order, so
    # only the test that the minus part determines u can tell it from u's
    v = next(
        w
        for w in (conjugate(u, s) for s in whole_group(group).gens)
        if group.negated_lines(w) != minus_lines
    )
    data.minus_lines = group.negated_lines(v)
    result = check_normalizer(data)
    assert result.status == "fail" and "does not determine u" in result.detail


def test_normalizer_of_whole_group_is_group(cache):
    group = cache.group("B", 3)
    whole = range(group.n_points)
    normalizer = normalizer_of_reflection_subgroup(whole_group(group), whole, group.neg)
    assert normalizer.order() == group.order


def test_plus_normalizer_asymmetry_in_a2(cache):
    # For a reflection in A2 the plus part is trivial, so its "normalizer"
    # (the stabilizer of the empty root set) is everything, yet the
    # centralizer is just {1, u}: the minus-side statement has no plus twin.
    group = cache.group("A", 2)
    u = group.reflection_perm(group.lines[0])
    assert group.fixed_lines(u) == []
    assert line_key_orbit(line_action(group), 0) == {0}
    assert group.order == 6
    assert centralizer_by_chain(group, u, class_size=3).order() == 2


def test_h4_explicit_quotient_witness(cache):
    # Simple reflections a, x, y, z with the 5-bond on (a, x); u = xz has a
    # degree-2 element y u y of the centralizer with nontrivial image in the
    # reflection quotient.
    group = cache.group("H", 4)
    rs = group.root_system
    a, x, y, z = (rs.reflection_perm(s) for s in rs.simple)
    u = compose(x, z)
    assert group.degree(u) == 2
    g = compose(compose(y, u), y)
    assert group.degree(g) == 2
    assert compose(u, g) == compose(g, u)
    cls = next(c for c in cache.classes("H", 4) if c.degree == 2)
    data = _compute_class_data(group, cls)
    # transport g into the stored class representative's centralizer:
    # u and the representative are conjugate
    assert data.quotient is not None and data.quotient.size == 2

    def key(w):
        return line_action(group).key(group.negated_lines(w))

    # the witness certifies Theorem 1.1 for u directly: its image generates
    assert key(u) in line_key_orbit(line_action(group), key(cls.rep))
    result = check_theorem_1_1(data)
    assert result.status == "pass"


def test_extended_diagram_check(cache):
    for family, n in [("E", 6), ("E", 7), ("F", 4), ("B", 4), ("A", 3)]:
        group = cache.group(family, n)
        results = check_extended_diagram(group)
        assert all(r.status == "pass" for r in results)


def test_check_names_cover_the_suite(cache):
    # B4 contains -1, so its suite has mirrored classes too
    results = run_property_suite(cache.group("B", 4), cache.classes("B", 4))
    assert {r.name for r in results} == set(CHECK_NAMES)


def test_suite_profiles_match_profiles_for_group(cache):
    group = cache.group("D", 5)
    profiles = []
    run_property_suite(group, cache.classes("D", 5), profiles)
    assert profiles == cache.profiles("D", 5)


def test_class_pipeline_streams(monkeypatch, cache):
    # Each class's data must be freed before the next class's is built, so
    # peak memory does not grow with the number of classes.
    from coxcent import structure

    built = []
    original = structure._compute_class_data

    def tracking(group, cls):
        assert all(ref() is None for ref in built), "earlier class data still alive"
        data = original(group, cls)
        built.append(weakref.ref(data))
        return data

    monkeypatch.setattr(structure, "_compute_class_data", tracking)
    group = cache.group("B", 4)
    run_property_suite(group, cache.classes("B", 4), [])
    structure.profiles_for_group(group, cache.classes("B", 4))
    assert len(built) == 2 * sum(1 for c in cache.classes("B", 4) if c.mirror_of is None)


def test_property_suite_clean_on_samples(cache):
    for family, n in [("B", 4), ("D", 5), ("H", 3), ("I", 8)]:
        group = cache.group(family, n)
        results = run_property_suite(group, cache.classes(family, n))
        assert all(r.status != "fail" for r in results), [
            (r.name, r.subject, r.detail) for r in results if r.status == "fail"
        ]


def test_property_suite_lists_no_involutions():
    # the checks read N's generators, or stream the swapped pairs into a
    # bounded chain; listing every degree-<=2
    # involution of C(u) for checks 1.1, 2.3 and 2.4 peaked at 5.5 MB here
    group = CoxeterGroup(CoxeterType.irreducible("B", 10))
    classes = enumerate_involution_classes(group)
    tracemalloc.start()
    try:
        results = run_property_suite(group, classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.status != "fail" for r in results)
    assert peak < 2_000_000


def test_gamma_labels_match_family_expectations(cache):
    # B_n: Sym_b; A_{n-1}: Sym_d; D case (iv): Sym_b x C2
    for p in cache.profiles("B", 5):
        a, a_fixed, b = map(int, p.cls.label.split(","))
        assert p.gamma_structure.kind == "sym"
        assert p.gamma_structure.order == __import__("math").factorial(b)
    for p in cache.profiles("A", 5):
        assert p.gamma_structure.kind == "sym"
    from oracles import canonical_gamma

    for p in cache.profiles("D", 5):
        a, a_fixed, b = map(int, p.cls.label.rstrip("+-").split(","))
        if a > 0 and a_fixed > 0:
            assert (p.gamma_structure.kind, p.gamma_structure.r) == canonical_gamma(
                "sym_x_c2", b
            )


def test_d7_exhibits_elementary_abelian_quotient(cache):
    profiles = cache.profiles("D", 7)
    p = next(q for q in profiles if q.cls.label == "2,1,2")
    assert str(p.gamma_structure) == "C2xC2"
    assert p.gamma_structure.order == 4


def test_gamma_rule_allows_sym_x_c2_in_type_d_only(monkeypatch, cache):
    # Sym3 x C2 is allowed in type D alone: outside it check 1.2 fails a
    # profile that carries the label, and a profile build with no report
    # to carry the failure raises it
    label = StructureLabel("sym_x_c2", 3, 12)
    built = {}
    for family, n, cls_label in [("B", 4, "0,0,2"), ("D", 5, "0,1,2")]:
        group = cache.group(family, n)
        cls = next(c for c in cache.classes(family, n) if c.label == cls_label)
        data = _compute_class_data(group, cls)
        assert data.quotient.size > 1
        profile = data.profile._replace(gamma_structure=label)
        built[family] = with_fields(data, profile=profile)
    result = check_gamma_structure(built["B"])
    assert (result.status, result.detail) == ("fail", "structure Sym3xC2")
    result = check_gamma_structure(built["D"])
    assert (result.status, result.detail) == ("pass", "Sym3xC2")
    monkeypatch.setattr(structure, "fingerprint", lambda handle: label)
    cls = built["B"].profile.cls
    assert _compute_class_data(cache.group("B", 4), cls).profile.gamma_structure == label
    with pytest.raises(ViolationError) as exc:
        structure.profiles_for_group(cache.group("B", 4), [cls])
    assert str(exc.value) == "check 1.2 failed on B4 deg 2/0,0,2: structure Sym3xC2"


def _b4_class_data(cache):
    group = cache.group("B", 4)
    cls = next(c for c in cache.classes("B", 4) if c.label == "0,0,2")
    return _compute_class_data(group, cls)


def test_theorem_1_1_fails_without_the_swapped_pairs(monkeypatch, cache):
    # B4 0,0,2 has a quotient of order 2, and N is generated by the images
    # of the swapped pairs alone: with none, N is trivial and the reflection
    # part with it falls short of |G| / |class|
    data = _b4_class_data(cache)
    assert data.quotient.size == 2 and check_theorem_1_1(data).status == "pass"
    monkeypatch.setattr(data.group, "swapped_pairs", lambda u: iter(()))
    data = _b4_class_data(cache)
    assert data.quotient.size == 1
    result = check_theorem_1_1(data)
    assert (result.status, result.detail) == ("fail", "|G+| |G-| |N| = 16, |G| / |class| = 32")


def test_cube_check_fails_on_a_fixed_line(cache):
    # no cube ending at u runs through a line that u fixes
    data = _b4_class_data(cache)
    line = data.plus_lines[0]
    result = check_cube_generation(with_fields(data, minus_lines=data.minus_lines + [line]))
    assert (result.status, result.detail) == (
        "fail",
        f"no orthogonal decomposition through line {line}",
    )


def test_order_identities_fail_on_a_wrong_projection_type(cache):
    data = _b4_class_data(cache)
    profile = data.profile._replace(tilde_plus_type=CoxeterType.trivial())
    rows = check_order_identities(with_fields(data, profile=profile))
    assert [(r.name, r.status) for r in rows] == [("2.1b", "pass"), ("2.5", "fail")]


def test_parabolic_chain_check_fails_without_a_plus_line(cache):
    data = _b4_class_data(cache)
    assert data.profile.cls.degree >= 1 and check_parabolic_chain(data).status == "pass"
    result = check_parabolic_chain(with_fields(data, plus_lines=data.plus_lines[1:]))
    assert result.status == "fail"


def test_extended_diagram_check_fails_on_a_short_y(monkeypatch, cache):
    group = cache.group("B", 4)
    assert [r.status for r in check_extended_diagram(group)] == ["pass"]
    real = structure.extended_diagram_Y
    monkeypatch.setattr(structure, "extended_diagram_Y", lambda rs: real(rs) - {min(real(rs))})
    assert [r.status for r in check_extended_diagram(group)] == ["fail"]


@pytest.mark.parametrize("family, n, label", [("D", 7, "2,1,2"), ("B", 4, "0,0,2")])
def test_complement_check_fails_without_an_involution_class(cache, family, n, label):
    # Dropping the involutions of one N-class, N the stabilizer of the
    # positive system, leaves the rest generating a proper subgroup of N.
    group = cache.group(family, n)
    cls = next(c for c in cache.classes(family, n) if c.label == label)
    data = _compute_class_data(group, cls)
    q = data.quotient
    assert q.size > 1 and check_complement(data).status == "pass"
    positive = q.positive
    involutions = list(involutions_deg_le_2(group, cls.rep))
    fixers = [j for j in involutions if all(j[a] in positive for a in positive)]
    for j in fixers:
        n_class = {conjugate(j, y) for y in list_elements(q.handle)}
        kept = [x for x in involutions if x not in n_class]
        result = check_complement(with_fields(data, quotient=with_fields(q, gens=kept)))
        assert result.status == "fail", (label, result.detail)


@pytest.mark.parametrize("family,n", [*ALL_SMALL, ("B", 8), ("D", 8)])
def test_swapped_pairs_give_the_checks_what_every_involution_gave(cache, family, n):
    # A stable reflection negates its own root, a root of G1, and so does a
    # product of two stable reflections, so `gamma` and check 2.4 dropped
    # them all from the stream of every degree-<=2 involution of C(u): over
    # the swapped pairs alone each filter keeps the same involutions in the
    # same order.  The seeds the oracle's chain kept generate what that
    # whole stream generates.
    group = cache.group(family, n)
    neg = group.neg
    for cls in cache.classes(family, n):
        if cls.mirror_of is not None:
            continue
        data = _compute_class_data(group, cls)
        stable, positive = data.plus_lines + data.minus_lines, data.quotient.positive
        everything = list(involutions_deg_le_2(group, cls.rep))
        pairs = list(group.swapped_pairs(cls.rep))
        for keeps in (
            lambda j: all(j[l] != neg[l] for l in stable),  # gamma
            lambda j: all(j[a] in positive for a in positive),  # check 2.4
        ):
            assert list(filter(keeps, pairs)) == list(filter(keeps, everything))
        kept = BSGS(group.n_points, centralizer_by_chain(group, cls.rep, cls.size).gens).order()
        assert kept == BSGS(group.n_points, everything).order() == data.profile.order


@pytest.mark.parametrize("family,n", [*ALL_SMALL, ("A", 9), ("B", 8), ("D", 8)])
def test_out_injectivity_agrees_with_the_scan(cache, family, n):
    # checks 2.7/2.8 test N's faithfulness on the minus lines; the oracle
    # lists G_u^- and scans it for each element of N
    group = cache.group(family, n)
    for cls in cache.classes(family, n):
        if cls.mirror_of is not None:
            continue
        data = _compute_class_data(group, cls)
        if data.profile.minus_type.order() > structure.SKIP_MINUS_ORDER:
            continue
        got = check_out_injectivity(data)
        want = out_injectivity_by_scan(data, structure.SKIP_MINUS_ORDER)
        assert [(r.name, r.subject, r.status) for r in got] == [
            (r.name, r.subject, r.status) for r in want
        ]


@pytest.mark.parametrize("family, n, label", [("D", 7, "2,1,2"), ("B", 4, "0,0,2")])
def test_out_injectivity_fails_on_a_complement_that_centralizes(cache, family, n, label):
    # The reflection in a plus line fixes every minus root, so adding it to
    # N gives a larger group with the same action on the minus lines.
    group = cache.group(family, n)
    cls = next(c for c in cache.classes(family, n) if c.label == label)
    data = _compute_class_data(group, cls)
    q = data.quotient
    assert q.size > 1 and data.plus_lines
    assert {r.status for r in check_out_injectivity(data)} == {"pass"}
    handle = SubgroupHandle.from_gens(
        group.n_points, [*q.handle.gens, group.reflection_perm(data.plus_lines[0])]
    )
    assert handle.order() > q.size
    fake = with_fields(data, quotient=SimpleNamespace(handle=handle, size=handle.order()))
    scan = out_injectivity_by_scan(fake, structure.SKIP_MINUS_ORDER)
    for results in (check_out_injectivity(fake), scan):
        assert [(r.name, r.status) for r in results] == [("2.7", "fail"), ("2.8", "fail")]


def test_out_injectivity_skips_a_minus_part_over_the_bound(cache):
    # the golden theorems artifacts record these rows as skipped
    group = cache.group("D", 7)
    cls = next(c for c in cache.classes("D", 7) if c.degree == 6)
    results = check_out_injectivity(_compute_class_data(group, cls))
    assert [(r.name, r.status, r.detail) for r in results] == [
        ("2.7", "skipped", "|G-| = 23040 over bound"),
        ("2.8", "skipped", "|G-| = 23040 over bound"),
    ]


@pytest.mark.parametrize(
    "family,n", [("B", 5), ("D", 6), ("E", 6), ("F", 4), ("H", 3), ("H", 4)]
)
def test_quotient_is_the_stabilizer_of_the_positive_system(cache, family, n):
    # |Gamma| is the order of Stab(Phi1+) in C(u), computed here as the
    # stabilizer of the sorted positive-root tuple; each image of a
    # generator of C(u) keeps Phi1+ and lies in its coset of W1
    group = cache.group(family, n)
    for cls in cache.classes(family, n):
        if cls.mirror_of is not None:
            continue
        u = cls.rep
        g_u = centralizer_by_chain(group, u, cls.size)
        lines = group.fixed_lines(u) + group.negated_lines(u)
        reflections = {l: group.reflection_perm(l) for l in lines}
        q = structure.quotient_action(group.n_points, g_u.gens, reflections)
        _, stab = orbit_stabilizer(
            group.n_points,
            g_u.gens,
            tuple(sorted(q.positive)),
            lambda g, xs: tuple(sorted(g[x] for x in xs)),
            group_order=g_u.order(),
        )
        assert q.size == stab.order(), (family, n, cls.label)
        assert q.size == _compute_class_data(group, cls).profile.gamma_structure.order
        w1 = SubgroupHandle.from_gens(group.n_points, reflections.values())
        for g in g_u.gens:
            y = q.image(g)
            assert all(y[a] in q.positive for a in q.positive)
            assert contains(w1, compose(y, inverse(g)))


def test_quotient_by_a_root_set_missing_a_line_is_caught(monkeypatch, cache):
    # Without one line of Phi1 the coset action must be refused by its
    # normality guard, give a coset count that check 2.1b rejects, or leave
    # the profile as it was.  N is generated by the swapped pairs' images
    # alone, not by the stable reflections, so a dropped line can leave N,
    # and the profile, as they were.
    real = structure.quotient_action
    types = [("B", 4), ("D", 5), ("F", 4), ("H", 3), ("I", 8)]
    built = {p.cls: p for t in types for p in cache.profiles(*t)}
    outcomes = set()
    for family, n in types:
        group = cache.group(family, n)
        for cls in cache.classes(family, n):
            if cls.mirror_of is not None:
                continue
            for drop in group.fixed_lines(cls.rep) + group.negated_lines(cls.rep):

                def mutated(n_points, gens, reflections, drop=drop):
                    kept = {l: s for l, s in reflections.items() if l != drop}
                    return real(n_points, gens, kept)

                monkeypatch.setattr(structure, "quotient_action", mutated)
                try:
                    data = _compute_class_data(group, cls)
                except ValueError as exc:
                    assert str(exc) == "subgroup is not normal"
                    outcomes.add("guard")
                    continue
                if data.profile == built[cls]:
                    outcomes.add("same")
                    continue
                result = check_order_identities(data)[0]
                assert result.name == "2.1b" and result.status == "fail"
                outcomes.add("2.1b")
    assert {"guard", "same"} <= outcomes


PROPERTY_TYPES = [("B", 4), ("D", 5), ("D", 7), ("F", 4), ("H", 3), ("I", 8)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_profile_is_invariant_under_conjugating_the_representative(cache, data):
    # A conjugate representative has other fixed and negated lines, so the
    # quotient descends to a different positive system Phi1+.
    family, n = data.draw(st.sampled_from(PROPERTY_TYPES))
    group = cache.group(family, n)
    built = [
        (c, p)
        for c, p in zip(cache.classes(family, n), cache.profiles(family, n))
        if not p.mirrored
    ]
    cls, profile = data.draw(st.sampled_from(built))
    gens = whole_group(group).gens
    word = data.draw(st.lists(st.sampled_from(gens), max_size=16))
    g = group.identity
    for s in word:
        g = compose(g, s)
    moved = with_fields(cls, rep=conjugate(cls.rep, g))
    assert _compute_class_data(group, moved).profile._replace(cls=cls) == profile


def test_e6_chain(cache):
    plus_by_degree = {
        p.cls.degree: str(p.plus_type) for p in cache.profiles("E", 6)
    }
    assert [plus_by_degree[d] for d in range(5)] == ["E6", "A5", "A3", "A1", "1"]


def test_mirrored_profiles_swap_sides(cache):
    profiles = cache.profiles("H", 4)
    by_deg = {p.cls.degree: p for p in profiles}
    assert by_deg[3].mirrored
    assert by_deg[3].minus_type == by_deg[1].plus_type
    assert by_deg[3].plus_type == by_deg[1].minus_type
    assert by_deg[3].order == by_deg[1].order


def test_mirror_profile_swaps_the_sides(cache):
    # B5's degree-2 class 0,1,2 has four distinct side types, A1^2, B2,
    # A1^3 and A1xB2; its mirror -u has degree 3
    source = next(p for p in cache.profiles("B", 5) if p.cls.label == "0,1,2")
    target = next(c for c in cache.classes("B", 5) if c.mirror_of is source.cls)
    mirror = _mirror_profile(target, source)
    sides = ("minus_type", "tilde_minus_type", "plus_type", "tilde_plus_type")
    assert len({str(getattr(source, side)) for side in sides}) == 4
    assert [getattr(mirror, side) for side in sides] == [
        source.plus_type,
        source.tilde_plus_type,
        source.minus_type,
        source.tilde_minus_type,
    ]
    assert mirror.cls is target and mirror.mirrored and not source.mirrored
    assert (mirror.order, mirror.gamma_structure) == (source.order, source.gamma_structure)


def test_profiles_are_immutable_and_classes_compare_by_identity(cache):
    profile = cache.profiles("B", 3)[1]
    with pytest.raises(AttributeError):
        profile.order = 1
    cls = profile.cls
    twin = InvolutionClass(cls.rep, cls.degree, cls.size, cls.label, cls.mirror_of)
    assert twin != cls
    assert len({cls: 0, twin: 1}) == 2


def test_sub_dihedral_recognition():
    from coxcent.coxtype import CoxeterType
    from coxcent.group import CoxeterGroup

    group = CoxeterGroup(CoxeterType([("I", 12)]))
    lines = [0, 2, 4, 6, 8, 10]
    rootset = lines_with_negatives(group, lines)
    assert str(reflection_subgroup_type(group, rootset)) == "G2"
    pair = lines_with_negatives(group, [0, 6])
    assert str(reflection_subgroup_type(group, pair)) == "A1^2"


def test_e6_deg2_projection_by_exhaustive_restriction(cache):
    # Independent oracle for the corrected reference cell: restrict all 192
    # centralizer elements to V+ as exact matrices.  The image has order 48,
    # exactly 9 reflection lines, and fixes a line of V+ pointwise, which
    # identifies the rank-3 type B3 (and rules out any rank-4 type).
    import linalg
    from linalg import identity as ident, kernel_basis, mat_sub, rank, solve

    group = cache.group("E", 6)
    cls = next(c for c in cache.classes("E", 6) if c.degree == 2)
    elements = list_elements(
        centralizer_by_chain(group, cls.rep, class_size=cls.size), limit=200
    )
    assert len(elements) == 192
    rs = group.root_system
    m_u = matrix_of_perm(rs, cls.rep)
    plus_basis = kernel_basis(mat_sub(m_u, ident(rs.rank)))
    k = len(plus_basis)
    assert k == 4
    basis_matrix = tuple(
        tuple(plus_basis[c][r] for c in range(k)) for r in range(rs.rank)
    )

    def restrict(perm):
        m = matrix_of_perm(rs, perm)
        cols = [
            solve(basis_matrix, linalg.mat_vec(m, tuple(plus_basis[c])))
            for c in range(k)
        ]
        return tuple(tuple(cols[c][r] for c in range(k)) for r in range(k))

    image = {restrict(e) for e in elements}
    assert len(image) == 48
    reflections = [a for a in image if rank(mat_sub(a, ident(k))) == 1]
    assert len(reflections) == 9
    stacked = tuple(row for a in image for row in mat_sub(a, ident(k)))
    assert k - rank(stacked) == 1


def test_recognizer_type_order_matches_subgroup_order(cache):
    # cross-check: the product-formula order of the recognized type equals
    # the stabilizer-chain order of the subgroup the roots generate
    from coxcent.permengine import SubgroupHandle

    for family, n in [("F", 4), ("E", 6), ("B", 4)]:
        group = cache.group(family, n)
        for p in cache.profiles(family, n):
            if p.mirrored:
                continue
            for lines, ctype in (
                (group.negated_lines(p.cls.rep), p.minus_type),
                (group.fixed_lines(p.cls.rep), p.plus_type),
            ):
                handle = SubgroupHandle.from_gens(
                    group.n_points, [group.reflection_perm(l) for l in lines]
                )
                assert handle.order() == ctype.order()


def test_recognizer_on_random_reflection_closures(cache):
    # close random line subsets of B4/D4/F4 under their own reflections and
    # negation; the recognized type's order and root count must match the
    # generated subgroup exactly
    import random

    from coxcent.permengine import SubgroupHandle

    rng = random.Random(20260811)
    for family, n in [("B", 4), ("D", 4), ("F", 4)]:
        group = cache.group(family, n)
        for _ in range(12):
            seeds = rng.sample(group.lines, rng.randint(1, 3))
            roots = {x for l in seeds for x in (l, group.neg[l])}
            changed = True
            while changed:
                changed = False
                lines = [l for l in roots if l in group._line_set]
                for l in lines:
                    perm = group.reflection_perm(l)
                    for r in list(roots):
                        if perm[r] not in roots:
                            roots.add(perm[r])
                            changed = True
            ctype = reflection_subgroup_type(group, roots)
            handle = SubgroupHandle.from_gens(
                group.n_points,
                [group.reflection_perm(l) for l in roots if l in group._line_set],
            )
            assert ctype.order() == handle.order()
            assert ctype.root_count() == len(roots)
