"""Coxeter types: canonical multisets of irreducible diagram labels.

A type is a multiset of components drawn from A(n>=1), B(n>=2), D(n>=4),
E6/E7/E8, F4, G2, H3, H4 and I2(m) with m >= 5, m != 6, plus the trivial
type written "1".  Construction canonicalizes the degenerate aliases
(I2(3)=A2, I2(4)=B2, I2(6)=G2, B1=A1, D2=A1xA1, D3=A3) and drops empty
factors (A0 = A(-1) = B0 = D0 = D1 = 1), so equality is plain equality of
the canonical component multiset.  `classify_coxeter_graph` reads the
type of a Coxeter graph.
"""

from __future__ import annotations

from functools import reduce
from math import factorial

Component = tuple[str, int]

_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
    ("H", 3): 120,
    ("H", 4): 14400,
}

_EXCEPTIONAL_ROOTS = {
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
    ("F", 4): 48,
    ("G", 2): 12,
    ("H", 3): 30,
    ("H", 4): 120,
}


def _canonical_component(family: str, n: int) -> list[Component]:
    if family == "A":
        return [] if n <= 0 else [("A", n)]
    if family == "B":
        if n <= 0:
            return []
        return [("A", 1)] if n == 1 else [("B", n)]
    if family == "D":
        if n <= 1:
            return []
        if n == 2:
            return [("A", 1), ("A", 1)]
        if n == 3:
            return [("A", 3)]
        return [("D", n)]
    if family == "I":
        if n < 3:
            raise ValueError(f"I2({n}) is not a dihedral type")
        if n == 3:
            return [("A", 2)]
        if n == 4:
            return [("B", 2)]
        if n == 6:
            return [("G", 2)]
        return [("I", n)]
    if (family, n) in _EXCEPTIONAL_ORDERS:
        return [(family, n)]
    raise ValueError(f"unknown Coxeter component {family}{n}")


def _component_order(c: Component) -> int:
    family, n = c
    if family == "A":
        return factorial(n + 1)
    if family == "B":
        return 2**n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    if family == "I":
        return 2 * n
    return _EXCEPTIONAL_ORDERS[c]


def _component_roots(c: Component) -> int:
    family, n = c
    if family == "A":
        return n * (n + 1)
    if family == "B":
        return 2 * n * n
    if family == "D":
        return 2 * n * (n - 1)
    if family == "I":
        return 2 * n
    return _EXCEPTIONAL_ROOTS[c]


class CoxeterType:
    """Canonical (multiset) type of a finite Coxeter group."""

    __slots__ = ("components",)

    def __init__(self, components=()):
        canon: list[Component] = []
        for family, n in components:
            canon.extend(_canonical_component(family, int(n)))
        self.components: tuple[Component, ...] = tuple(sorted(canon))

    @staticmethod
    def irreducible(family: str, n: int) -> "CoxeterType":
        t = CoxeterType([(family, n)])
        if len(t.components) > 1:
            raise ValueError(f"{family}{n} is not irreducible")
        return t

    @staticmethod
    def trivial() -> "CoxeterType":
        return CoxeterType()

    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def rank(self) -> int:
        return sum(2 if f == "I" else n for f, n in self.components)

    def order(self) -> int:
        return reduce(
            lambda acc, c: acc * _component_order(c), self.components, 1
        )

    def root_count(self) -> int:
        return sum(_component_roots(c) for c in self.components)

    def __mul__(self, other: "CoxeterType") -> "CoxeterType":
        return CoxeterType(self.components + other.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoxeterType)
            and self.components == other.components
        )

    def __hash__(self):
        return hash(self.components)

    def __str__(self) -> str:
        if not self.components:
            return "1"
        parts = []
        i = 0
        comps = self.components
        while i < len(comps):
            j = i
            while j < len(comps) and comps[j] == comps[i]:
                j += 1
            family, n = comps[i]
            name = f"I2({n})" if family == "I" else f"{family}{n}"
            count = j - i
            parts.append(name if count == 1 else f"{name}^{count}")
            i = j
        return "x".join(parts)

    __repr__ = __str__


def factored(n: int) -> str:
    """Prime factorization rendered like the group-order columns, e.g. 2^6 3."""
    if n == 1:
        return "1"
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            parts.append(f"{p}^{e}" if e > 1 else str(p))
        p += 1
    if n > 1:
        parts.append(str(n))
    return " ".join(parts)


class RecognitionError(RuntimeError):
    """A reflection subgroup failed to classify; signals an engine bug."""


# -- Coxeter graph classification -------------------------------------------------


def _classify_connected(nodes: list, adj: dict, m) -> CoxeterType:
    r = len(nodes)
    if r == 1:
        return CoxeterType.irreducible("A", 1)
    if r == 2:
        return CoxeterType([("I", m(nodes[0], nodes[1]))])
    degrees = {v: len(adj[v]) for v in nodes}
    branch = [v for v in nodes if degrees[v] >= 3]
    if branch:
        if len(branch) > 1 or degrees[branch[0]] > 3:
            raise RecognitionError("diagram has an unrecognized branch pattern")
        hub = branch[0]
        arms = []
        for start in adj[hub]:
            length = 1
            prev, cur = hub, start
            while True:
                if m(prev, cur) != 3:
                    raise RecognitionError("branched diagram with a marked edge")
                nxt = [w for w in adj[cur] if w != prev]
                if not nxt:
                    break
                if len(nxt) > 1:
                    raise RecognitionError("diagram has two branch points")
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            return CoxeterType.irreducible("D", arms[2] + 3)
        if arms == [1, 2, 2]:
            return CoxeterType.irreducible("E", 6)
        if arms == [1, 2, 3]:
            return CoxeterType.irreducible("E", 7)
        if arms == [1, 2, 4]:
            return CoxeterType.irreducible("E", 8)
        raise RecognitionError(f"unrecognized branched diagram with arms {arms}")
    # A path: walk it from one endpoint.
    ends = [v for v in nodes if degrees[v] == 1]
    if len(ends) != 2:
        raise RecognitionError("diagram is not a path")
    walk = [ends[0]]
    while len(walk) < r:
        nxt = [w for w in adj[walk[-1]] if len(walk) < 2 or w != walk[-2]]
        walk.append(nxt[0])
    edge_labels = [m(walk[i], walk[i + 1]) for i in range(r - 1)]
    if edge_labels[0] < edge_labels[-1]:
        edge_labels.reverse()
    if all(x == 3 for x in edge_labels):
        return CoxeterType.irreducible("A", r)
    if edge_labels[0] == 4 and all(x == 3 for x in edge_labels[1:]):
        return CoxeterType.irreducible("B", r)
    if r == 4 and edge_labels == [3, 4, 3]:
        return CoxeterType.irreducible("F", 4)
    if edge_labels[0] == 5 and all(x == 3 for x in edge_labels[1:]) and r in (3, 4):
        return CoxeterType.irreducible("H", r)
    raise RecognitionError(f"unrecognized path diagram with labels {edge_labels}")


def classify_coxeter_graph(nodes: list, m) -> CoxeterType:
    """Type of the Coxeter graph on `nodes` with bond orders m(i, j) >= 2."""
    adj = {
        v: [w for w in nodes if w != v and m(v, w) >= 3] for v in nodes
    }
    remaining = list(nodes)
    result = CoxeterType.trivial()
    while remaining:
        comp = [remaining[0]]
        seen = {remaining[0]}
        i = 0
        while i < len(comp):
            for w in adj[comp[i]]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
            i += 1
        result = result * _classify_connected(comp, adj, m)
        remaining = [v for v in remaining if v not in seen]
    return result
