"""Orbit and normalizer oracles for the tests: a point orbit by plain BFS,
the action of a permutation on a point, and the normalizer of a reflection
subgroup as the stabilizer of its root set (`orbit_stabilizer` on sorted
root tuples)."""

from __future__ import annotations

from coxcent.permengine import SubgroupHandle, orbit_stabilizer
from coxcent.perms import Perm


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
    group: SubgroupHandle, rootset, neg, seed_stab_gens=()
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
        seed_stab_gens=seed_stab_gens,
    )
    return stab
