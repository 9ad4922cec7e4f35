"""Permutations as image tuples, composed left to right.

``p`` maps ``i`` to ``p[i]``; ``compose(p, q)`` applies ``p`` first, then
``q``.  Tuples keep elements hashable.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

Perm = tuple[int, ...]


@lru_cache(maxsize=None)
def identity(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    # a tuple comparison stops at the first moved point, without leaving C
    return p == identity(len(p))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    if len(p) > 1:  # one itemgetter call builds the whole tuple in C
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)  # on one point itemgetter returns a bare int


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
