"""Permutation-group algorithms on root indices.

A Schreier-Sims implementation provides exact orders, keeping on each
level of its stabilizer chain only the inverse transversal that sifting
reads.  On top of it sit generic orbit/stabilizer computation, the
quotient by a normal reflection subgroup as its complement acting on the
roots, and structure labels proved from that complement's orbits.
Howlett's groupoid on the subsets of the simple roots gives their
W-classes and the loops that generate their stabilizers, with no orbit
listed.

A chain with a proven upper bound on its order sifts pseudo-random
elements until it reaches the bound; they come from a generator with a
fixed seed, so base points, basic orbits and transversals are fixed
functions of the input, and every downstream table is byte-reproducible.
An order is exact whatever that sequence is: a chain stops early only on
reaching a proven bound, and otherwise completes by Schreier
verification.
"""

from __future__ import annotations

import random
from functools import reduce
from math import factorial, prod
from typing import NamedTuple

from .perms import Perm, compose, identity, inverse, is_identity


class MembershipError(ValueError):
    pass


class ViolationError(RuntimeError):
    """A verified statement failed; never expected to fire."""


class BSGS:
    """Base and strong generating set with one inverse transversal per level.

    Level i is a dict mapping each point p of the basic orbit of base[i] to
    t_p^-1, where t_p, a product of the level's strong generators, maps
    base[i] to p; the dict's keys, in insertion order, are the orbit.
    Sifting reads only these inverses, and a t_p is formed, by inverting
    its entry, only where verification needs it.  Each strong generator is
    inverted once, when it is inserted: `level_gens` holds (g, g^-1) pairs.
    Entries are never rewritten once created (orbits only ever extend), so
    the per-level record of already-sifted Schreier generators stays valid
    across incremental updates.

    The chain is built in three steps.  Each generator is sifted in turn,
    and a nontrivial residue is inserted unverified; the generators that
    extended the chain are `kept`, and one that sifts to the identity
    already lies in <kept>.  Given a `bound`, a proven upper bound for the
    order of the group the generators generate, pseudo-random elements of
    <kept> are sifted in the same way until the order reaches it, or until
    `_TRIVIAL_RUN` of them in a row sift to the identity.  Unless the
    order is then `bound`, Schreier verification completes the chain.  The
    order, the product of the basic-orbit lengths, is a lower bound for
    |<kept>| at every step, so reaching the bound proves the chain
    complete.  Generators are read only until the bound is reached.
    """

    def __init__(self, n_points: int, gens=(), bound: int | None = None):
        self.n = n_points
        self._id = identity(n_points)
        self.base: list[int] = []
        self.level_gens: list[list[tuple[Perm, Perm]]] = []
        self.tinv: list[dict[int, Perm]] = []
        self._checked: list[set[tuple[int, int]]] = []
        self.kept: list[Perm] = []
        for g in gens:
            if self.order() == bound:
                break
            if self._sift_in(g):
                self.kept.append(g)
        if bound is not None and self.order() < bound and self.kept:
            trivial = 0
            for g in _random_elements(self.kept, n_points):
                if not self._sift_in(g):
                    trivial += 1
                    if trivial == _TRIVIAL_RUN:
                        break
                elif self.order() >= bound:
                    break
                else:
                    trivial = 0
        if self.base and self.order() != bound:
            self._verify_from(len(self.base) - 1, bound)

    def _sift_in(self, g: Perm) -> bool:
        """Insert g's residue, unverified; returns True if it was nontrivial."""
        residue, lvl = self.sift(g)
        if is_identity(residue):
            return False
        self._insert(residue, lvl)
        return True

    def _new_level(self, bpoint: int):
        self.base.append(bpoint)
        self.level_gens.append([])
        self.tinv.append({bpoint: self._id})
        self._checked.append(set())

    def _extend_level(self, lvl: int):
        """Grow the Schreier tree at lvl; existing entries are preserved.
        With t_y = t_p g, t_y^-1 is g^-1 followed by t_p^-1."""
        gens = self.level_gens[lvl]
        tinv = self.tinv[lvl]
        queue = list(tinv)
        for p in queue:
            for g, g_inv in gens:
                y = g[p]
                if y not in tinv:
                    tinv[y] = compose(g_inv, tinv[p])
                    queue.append(y)

    def sift_from(self, lvl: int, g: Perm) -> tuple[Perm, int]:
        for i in range(lvl, len(self.base)):
            x = g[self.base[i]]
            t_inv = self.tinv[i].get(x)
            if t_inv is None:
                return g, i
            g = compose(g, t_inv)
        return g, len(self.base)

    def sift(self, g: Perm) -> tuple[Perm, int]:
        return self.sift_from(0, g)

    def order(self) -> int:
        return prod(map(len, self.tinv))

    def add_generator(self, g: Perm) -> bool:
        """Sift g into a complete chain and verify; returns True, and keeps
        g, if the group grew."""
        residue, lvl = self.sift(g)
        if is_identity(residue):
            return False
        self.kept.append(g)
        self._insert(residue, lvl)
        self._verify_from(lvl, None)
        return True

    def _insert(self, residue: Perm, lvl: int):
        if lvl == len(self.base):
            moved = next(i for i in range(self.n) if residue[i] != i)
            self._new_level(moved)
        # A strong generator fixing base[:lvl] belongs to every level <= lvl.
        pair = (residue, inverse(residue))
        for k in range(lvl + 1):
            self.level_gens[k].append(pair)
            self._extend_level(k)

    def _verify_from(self, start: int, bound: int | None):
        """Sift Schreier generators from level `start` up to level 0, the
        levels below `start` being complete, until none is left or the
        order reaches `bound`."""
        lvl = start
        while lvl >= 0 and (bound is None or self.order() != bound):
            deeper = self._check_level(lvl)
            lvl = deeper if deeper is not None else lvl - 1

    def _check_level(self, lvl: int):
        """Sift unprocessed Schreier generators t_p g t_(g(p))^-1 of this
        level, forming t_p only for a point that still has one.

        Returns the level at which a residue was inserted (verification must
        resume there), or None when the level is clean.
        """
        checked = self._checked[lvl]
        gens = self.level_gens[lvl]
        tinv = self.tinv[lvl]
        for p, p_inv in tinv.items():
            t = None
            for gi, (g, _) in enumerate(gens):
                key = (p, gi)
                if key in checked:
                    continue
                checked.add(key)
                if t is None:
                    t = inverse(p_inv)
                schreier = compose(compose(t, g), tinv[g[p]])
                if is_identity(schreier):
                    continue
                residue, at = self.sift_from(lvl + 1, schreier)
                if not is_identity(residue):
                    # the insertion extends tinv, so the scan stops here
                    self._insert(residue, at)
                    return min(at, len(self.base) - 1)
        return None


# Product-replacement state: at least this many slots, a fixed seed, and
# the run of trivial sifts after which a bounded chain stops sifting them.
_SLOTS = 10
_SEED = 14
_TRIVIAL_RUN = 40


def _random_elements(gens: list[Perm], n_points: int):
    """An endless pseudo-random sequence of elements of <gens>, by product
    replacement with an accumulator (F. Celler, C. R. Leedham-Green,
    S. H. Murray, A. C. Niemeyer and E. A. O'Brien, Comm. Algebra 23,
    1995), from a fixed seed."""
    rng = random.Random(_SEED)
    slots = list(gens) * -(-_SLOTS // len(gens))
    acc = identity(n_points)
    while True:
        i, j = rng.sample(range(len(slots)), 2)
        other = slots[j] if rng.random() < 0.5 else inverse(slots[j])
        slots[i] = compose(slots[i], other)
        acc = compose(acc, slots[i])
        yield acc


class SubgroupHandle:
    """A subgroup as its stabilizer chain; `gens`, the generators the chain
    kept, generate it."""

    def __init__(self, chain: BSGS):
        self.n_points = chain.n
        self.gens = chain.kept
        self.chain = chain

    @staticmethod
    def from_gens(n_points: int, gens, bound: int | None = None) -> "SubgroupHandle":
        """The subgroup the generators generate; `bound`, when set, is a
        proven upper bound for its order (see BSGS)."""
        return SubgroupHandle(BSGS(n_points, gens, bound))

    def order(self) -> int:
        return self.chain.order()


# -- orbits and stabilizers ----------------------------------------------------


def orbit_stabilizer(
    n_points: int,
    gens: list[Perm],
    seed,
    act,
    *,
    group_order: int | None = None,
):
    """Generic orbit of `seed` under `act`, with stabilizer generators.

    `act(g, x)` must give a hashable point.  Schreier generators are sifted
    into the stabilizer chain in BFS order; when `group_order` is known the
    scan stops once the stabilizer reaches |G| / |orbit|, which the
    orbit-stabilizer identity makes exact.
    """
    transversal = {seed: identity(n_points)}
    order = [seed]
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        t = transversal[x]
        for g in gens:
            y = act(g, x)
            if y not in transversal:
                transversal[y] = compose(t, g)
                order.append(y)

    target = None
    if group_order is not None:
        if group_order % len(order):
            raise MembershipError("orbit size does not divide the group order")
        target = group_order // len(order)

    stab = BSGS(n_points)  # unbounded: this is the tests' oracle
    done = target == 1  # a trivial stabilizer needs no scan
    for x in order:
        if done:
            break
        t = transversal[x]
        for g in gens:
            y = act(g, x)
            schreier = compose(compose(t, g), inverse(transversal[y]))
            if is_identity(schreier):
                continue
            if stab.add_generator(schreier):
                if target is not None and stab.order() == target:
                    done = True
                    break
    if target is not None and stab.order() != target:
        raise MembershipError("stabilizer chain failed to reach its order")
    return order, SubgroupHandle(stab)


# -- Howlett's groupoid on the subsets of the simple roots ------------------------


def _bits(mask: int):
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ParabolicGroupoid:
    """Howlett's elementary moves between subsets of the simple roots.

    A subset J is the integer with bit i set for each root `simple[i]` in
    it.  For i outside J, with L = J + i, the move nu = w_0^L w_0^J maps J
    onto a subset of L, where w_0^L is the longest element of the parabolic
    subgroup W_L.  Two subsets are W-conjugate iff a chain of moves joins
    them (R. B. Howlett, J. London Math. Soc. 21, 1980; M. Geck and
    G. Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
    Algebras, 2000, 2.3), and the elements mapping K onto itself form the
    vertex group N_K at K of the groupoid the moves generate (B. Brink and
    R. B. Howlett, Invent. Math. 136, 1999).
    """

    def __init__(self, simple, reflections, positive: frozenset[int], n_points: int):
        self.simple = tuple(simple)
        self.full = (1 << len(self.simple)) - 1
        self.n_points = n_points
        self.position = {a: i for i, a in enumerate(self.simple)}
        self._reflections = tuple(reflections)
        self._positive = positive
        # the simple roots bonded to simple[i]: those its reflection moves
        self._bonds = [
            sum(1 << j for j, b in enumerate(self.simple) if s[b] != b and j != i)
            for i, s in enumerate(self._reflections)
        ]
        self._connected: dict[int, Perm] = {}

    def _part(self, subset: int, seed: int) -> int:
        """The union of the connected components of a subset of the Coxeter
        graph that meet `seed`."""
        part = grow = seed
        while grow:
            reach = 0
            for i in _bits(grow):
                reach |= self._bonds[i]
            grow = reach & subset & ~part
            part |= grow
        return part

    def _parts(self, subset: int) -> list[int]:
        """The connected components of a subset of the Coxeter graph."""
        parts = []
        while subset:
            part = self._part(subset, subset & -subset)
            parts.append(part)
            subset &= ~part
        return parts

    def _connected_longest(self, part: int) -> Perm:
        """w_0 of a connected subset, by descent from the identity: while a
        simple root a of it has y(a) positive, y <- s_a y (s_a first, then
        y) is one longer than y."""
        y = self._connected.get(part)
        if y is None:
            steps = [(self.simple[i], self._reflections[i]) for i in _bits(part)]
            y = identity(self.n_points)
            while True:
                for a, s in steps:
                    if y[a] in self._positive:
                        y = compose(s, y)
                        break
                else:
                    break
            self._connected[part] = y
        return y

    def longest(self, subset: int) -> Perm:
        """w_0^J: the product of the commuting longest elements of J's
        connected components."""
        parts = [self._connected_longest(p) for p in self._parts(subset)]
        return reduce(compose, parts) if parts else identity(self.n_points)

    def factors(self, parts: list[int], i: int) -> list[Perm]:
        """nu = w_0^(J+i) w_0^J, J the subset whose connected components
        are `parts`, as the involutions it applies in turn: w_0 of each
        component of J bonded to i, then w_0^C, where C, the component of
        J + i that holds i, is i with those components (the other
        components of J cancel)."""
        near = [p for p in parts if p & self._bonds[i]]
        c = sum(near, 1 << i)
        return [*map(self._connected_longest, near), self._connected_longest(c)]


def conjugacy_class_set(
    groupoid: ParabolicGroupoid, k: int
) -> tuple[frozenset[int], list[Perm]]:
    """The component of k in Howlett's groupoid, the subsets W-conjugate to
    k, with loops at k that generate N_k.

    A BFS from k reaches each subset J by the product t_J of the moves along
    its tree path, which maps k onto J.  Each other move nu, from J to a
    subset J' already reached, closes the loop t_J nu t_J'^-1 (t_J first);
    the loops of a spanning tree generate the vertex group at k, which is
    N_k.  The move from J' with the same J + i = J' + i' is nu^-1, so each
    edge is taken from one end only.

    The walk keeps t_J^-1 as a permutation and t_J on the simple roots
    only.  A tree edge gives t_J'^-1 = nu^-1 t_J^-1 from nu's factors,
    involutions, in reverse order, and J' as the image of k under t_J nu.
    A non-tree edge's key, t_J nu t_J'^-1 on the simple roots, is its
    loop's image of each simple root.  These are a basis of V, and W acts
    faithfully on the roots, so the key determines the loop: a key seen
    before is a loop seen before, and the identity's key is the simple
    roots.  Only a new nontrivial key forms its loop, so each nontrivial
    loop is kept once, in the order first seen.  A move that leaves the
    simple roots, or a loop that does not map k onto itself, raises
    ViolationError.

    The walk keeps t_J^-1 for three BFS levels only.  Since each move has
    an inverse move, an edge from level d ends on level d - 1, d or
    d + 1, so a loop closed on level d reads no inverse below level
    d - 1: when the walk has taken level d's edges, it drops the inverses
    of level d - 1.  The component is kept as a set of subsets.
    """
    simple, position = groupoid.simple, groupoid.position
    base_bits = list(_bits(k))
    base = {simple[p] for p in base_bits}
    component = {k}
    tree = {k: identity(groupoid.n_points)}  # t_J^-1, on three levels
    images = {k: simple}  # t_J on the simple roots, until J is left
    crossed: dict[int, int] = {}  # J' -> the i' whose edge J' + i' was taken
    loops: dict[tuple[int, ...], Perm] = {}  # key -> loop
    previous: list[int] = []
    level = [k]
    while level:
        upper = []
        for j in level:
            t_inv, t = tree[j], images.pop(j)
            parts = groupoid._parts(j)
            for i in _bits(groupoid.full & ~j & ~crossed.pop(j, 0)):
                factors = groupoid.factors(parts, i)
                step = reduce(compose, factors, t)
                try:
                    image = sum(1 << position[step[p]] for p in base_bits)
                except KeyError:
                    raise ViolationError("a move leaves the simple roots") from None
                crossed[image] = crossed.get(image, 0) | (j | 1 << i) & ~image
                if image not in component:
                    component.add(image)
                    tree[image] = reduce(compose, [*reversed(factors), t_inv])
                    images[image] = step
                    upper.append(image)
                    continue
                key = compose(step, tree[image])
                if key == simple or key in loops:
                    continue
                if {key[p] for p in base_bits} != base:
                    raise ViolationError("a loop of the groupoid moves its base")
                loops[key] = reduce(compose, [inverse(t_inv), *factors, tree[image]])
        for j in previous:
            del tree[j]
        previous, level = level, upper
    return frozenset(component), list(loops.values())


# -- the reflection quotient ------------------------------------------------------


def simple_roots(positive, reflection) -> list[tuple[int, Perm]]:
    """The simple roots of a positive system, ascending, each with its
    reflection: a positive root is simple iff its reflection keeps every
    other positive root positive (J. E. Humphreys, Reflection Groups and
    Coxeter Groups, 1990, 1.4-1.7)."""
    pos = frozenset(positive)
    pairs = ((a, reflection(a)) for a in sorted(pos))
    return [(a, s) for a, s in pairs if all(s[b] in pos for b in pos if b != a)]


class QuotientGroup:
    """The quotient of a group by a normal reflection subgroup W1, realized
    as its complement N, the stabilizer of a positive system, on the roots.

    `reflections` maps every root of a positive system Phi1+ of W1's root
    system Phi1 to its reflection.  W1 acts simply transitively on the
    positive systems of Phi1 (R. B. Howlett, J. London Math. Soc. 21,
    1980), so each coset W1 x holds exactly one y with y(Phi1+) = Phi1+,
    and these y form N = Stab(Phi1+), a complement of W1 (B. Brink and
    R. B. Howlett, Invent. Math. 136, 1999).  Descent reaches y: while a
    simple root a of Phi1+ has y(a) outside Phi1+, replace y by s_a y (s_a
    first, then y), which sends one root fewer of Phi1+ out of Phi1+; it
    ends at the one such y of the coset, in whatever order the simple
    roots are tried.  `image`, the descent, is the quotient map onto N;
    `gens` lists the group's distinct generators, `handle` is N, generated
    by their descents, each descended once, and `size` = |N| is the order
    of its stabilizer chain on the roots.
    """

    def __init__(self, n_points: int, gens, reflections: dict[int, Perm]):
        self.gens = gens = list(dict.fromkeys(gens))
        positive = frozenset(reflections)
        roots = positive | {s[a] for a, s in reflections.items()}
        # g normalizes W1 when it maps Phi1 onto itself: g^-1 s_a g = s_(g(a))
        if any(g[r] not in roots for g in gens for r in roots):
            raise ValueError("subgroup is not normal")
        self.positive = positive
        self._simple = simple_roots(positive, reflections.__getitem__)
        # unbounded: N's only upper bound comes from the Coxeter types, and
        # check 2.1b compares |N| with them as an independent count
        self.handle = SubgroupHandle.from_gens(n_points, [self.image(g) for g in gens])
        self.size = self.handle.order()

    def image(self, y: Perm) -> Perm:
        """The element of the coset W1 y that maps Phi1+ onto itself."""
        positive = self.positive
        while True:
            for a, s in self._simple:
                if y[a] not in positive:
                    y = compose(s, y)
                    break
            else:
                return y


def quotient_action(n_points: int, gens, reflections: dict[int, Perm]) -> QuotientGroup:
    """The quotient of <gens> by the normal reflection subgroup W1 whose
    positive roots `reflections` maps to their reflections."""
    return QuotientGroup(n_points, gens, reflections)


# -- structure labels from orbits ------------------------------------------------


class StructureLabel(NamedTuple):
    """Canonical structure of a small quotient group."""

    kind: str  # "sym" | "sym_x_c2" | "other"
    r: int
    order: int

    def __str__(self) -> str:
        if self.kind == "sym":
            return f"Sym{self.r}"
        if self.kind == "sym_x_c2":
            return "C2xC2" if self.r == 2 else f"Sym{self.r}xC2"
        return f"other({self.order})"


def _orbits(handle: SubgroupHandle) -> list[list[int]]:
    seen: set[int] = set()
    orbits = []
    for p in range(handle.n_points):
        if p not in seen:
            seen.add(p)
            orbit = [p]
            for x in orbit:
                for g in handle.gens:
                    if g[x] not in seen:
                        seen.add(g[x])
                        orbit.append(g[x])
            orbits.append(orbit)
    return orbits


def restricted_order(handle: SubgroupHandle, points: list[int]) -> int:
    """The order of the group induced on a union of orbits."""
    index = {p: i for i, p in enumerate(points)}
    gens = [tuple(index[g[p]] for p in points) for g in handle.gens]
    # the restriction is a quotient of the group, so its order bounds it
    return SubgroupHandle.from_gens(len(points), gens, handle.order()).order()


def fingerprint(handle: SubgroupHandle) -> StructureLabel:
    """Identify a group as Sym_r or Sym_r x C2, with a proof read off its
    orbits, or else label it other.

    Restriction to a union U of orbits is a homomorphism into Sym(U), and
    one whose image has the group's order is injective.  So an orbit O1 of
    size r whose restriction has order r! = |G| proves G = Sym(O1), and an
    r-orbit O1 with a 2-orbit O2 whose joint restriction has order
    2 r! = |G| proves G = Sym(O1) x Sym(O2).  Sym_r is tried first, so a
    group of order 2 is Sym2.
    """
    order = handle.order()
    by_size: dict[int, list[list[int]]] = {}
    for orbit in _orbits(handle):
        by_size.setdefault(len(orbit), []).append(orbit)
    r = 1
    while factorial(r) <= order:
        if factorial(r) == order and any(
            restricted_order(handle, o1) == order for o1 in by_size.get(r, ())
        ):
            return StructureLabel("sym", r, order)
        if r >= 2 and 2 * factorial(r) == order and any(
            restricted_order(handle, o1 + o2) == order
            for o1 in by_size.get(r, ())
            for o2 in by_size.get(2, ())
            if o2 is not o1
        ):
            return StructureLabel("sym_x_c2", r, order)
        r += 1
    return StructureLabel("other", 0, order)
