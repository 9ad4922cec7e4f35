"""Permutations as image tuples, composed left to right.

``p`` maps ``i`` to ``p[i]``; ``compose(p, q)`` applies ``p`` first, then
``q``.  Tuples keep elements hashable.
"""

from __future__ import annotations

from functools import lru_cache

Perm = tuple[int, ...]


@lru_cache(maxsize=None)
def identity(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    # a tuple comparison stops at the first moved point, without leaving C
    return p == identity(len(p))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(p: Perm, g: Perm) -> Perm:
    """g^-1 p g, computed without forming g^-1."""
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[g[i]] = g[pi]
    return tuple(out)


def perm_order(p: Perm) -> int:
    from math import lcm

    n = len(p)
    seen = bytearray(n)
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = p[j]
            length += 1
        order = lcm(order, length)
    return order


def is_involution(p: Perm) -> bool:
    return all(p[p[i]] == i for i in range(len(p)))
