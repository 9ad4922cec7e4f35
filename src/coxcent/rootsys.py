"""Root systems and Coxeter data for every finite irreducible type.

Roots are stored as integer coordinate tuples in the simple-root basis.
A crystallographic type has one int per coordinate.  On H3 and H4 every
coordinate lies in Z[phi], phi = (1 + sqrt5) / 2, and is stored as two ints
(a, b) for a + b*phi, so a root is a flat tuple of 2 * rank ints
(J. E. Humphreys, Reflection Groups and Coxeter Groups, 1990, 2.13); the
`width` of a RootSystem is the number of ints per coordinate.  The full
root set is generated by closing the simple roots under the simple
reflections, then frozen in a deterministic order (height, then
lexicographic coordinates, both as real numbers), so every downstream
artifact is reproducible byte for byte.

The closure holds each root as one tuple, and the tuples built on per-root
paths are built at their exact length, from a list or by `itemgetter`.
CPython keeps up to 2,000 freed tuples of each length below 20 for reuse.
`tuple()` of a generator or a `map` allocates at a guessed length and
resizes, so it never takes one of them, yet each such tuple goes onto its
length's list when freed; built that way, the dead coordinate tuples of
every root system stay parked there for the life of the process.

I2(m) is deliberately not realized by vectors: general m would need
Q(cos pi/m) arithmetic, while everything the dihedral tables require is
visible on the abstract 2m-point root circle (see :class:`DihedralModel`).
"""

from __future__ import annotations

from functools import cached_property

from .coxtype import CoxeterType
from .perms import Perm, conjugate, identity


class CapabilityError(ValueError):
    """Requested type or rank outside what this build supports."""


DEFAULT_MAX_RANK = 12
# I2(m) for m up to this bound: `analyze` takes about 0.7 s and 50 MB at
# m = 1024 (one process, 2-vCPU VM); it keeps m reflections of 2m points.
MAX_DIHEDRAL_M = 1024

# a + b*phi is keyed as the integer a*F40 + b*F41 (Fibonacci numbers), which
# is F40 (a + b*phi) + b*psi^40 with psi = (1 - sqrt5) / 2, |psi^40| < 5e-9.
# A nonzero a + b*phi with |a|, |b| < 2 * 10^6 has |a + b*phi| > 10^-7, as
# its norm a^2 + ab - b^2 is a nonzero integer, so the keys of two
# coordinates with |a|, |b| < 10^6 order exactly as their real values.
_F40_F41 = (102334155, 165580141)


def _dynkin_data(family: str, n: int) -> dict[tuple[int, int], tuple]:
    """The bonds of the diagram, 0-based Bourbaki numbering: (i, j) maps to
    the Cartan entries (<alpha_i, alpha_j^vee>, <alpha_j, alpha_i^vee>),
    each a pair (a, b) for a + b*phi."""
    if family in ("A", "B", "F", "H"):
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2] + [(1, 3)]
    else:
        raise CapabilityError(f"no root datum for {family}{n}")
    bonds = {e: ((-1, 0), (-1, 0)) for e in edges}
    if family == "B":  # alpha_(n-1) is short
        bonds[n - 2, n - 1] = ((-2, 0), (-1, 0))
    if family == "F":  # alpha_2 and alpha_3 are short
        bonds[1, 2] = ((-2, 0), (-1, 0))
    if family == "H":
        bonds[0, 1] = ((0, -1), (0, -1))
    return bonds


def _negated(v: tuple) -> tuple:
    return tuple([-c for c in v])


class RootSystem:
    """An irreducible root system with its reflection representation."""

    def __init__(self, ctype: CoxeterType):
        (family, n) = ctype.components[0]
        self.ctype = ctype
        self.rank = n
        # the one choice of field: ints per coordinate, 1 over Z, 2 over Z[phi]
        self.width = w = 2 if family == "H" else 1
        self.crystallographic = w == 1

        cartan = [[(2, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]
        for (i, j), (a_ij, a_ji) in _dynkin_data(family, n).items():
            cartan[i][j], cartan[j][i] = a_ij, a_ji
        # s_i(v) = v - c alpha_i with c = sum_j v_j <alpha_j, alpha_i^vee>.
        # Reflection i keeps, for each flat coordinate t of alpha_i, the
        # nonzero coefficients of part t of c on the flat coordinates, as
        # (a + b phi)(p + q phi) = (ap + bq) + (aq + bp + bq) phi; over Z only
        # the first part and a, p are there.
        rows = []
        for i in range(n):
            parts: list[list[tuple[int, int]]] = [[] for _ in range(w)]
            for j in range(n):
                p, q = cartan[j][i]
                for t, coeffs in enumerate(((p, q), (q, p + q))[:w]):
                    parts[t].extend(
                        (j * w + s, x) for s, x in enumerate(coeffs[:w]) if x
                    )
            rows.append(tuple((i * w + t, tuple(row)) for t, row in enumerate(parts)))
        self._rows = tuple(rows)

        simple_coords = [
            tuple([int(k == i * w) for k in range(n * w)]) for i in range(n)
        ]
        images = self._close(simple_coords)
        self.roots = tuple(
            sorted(images, key=lambda v: (sum(key := self.real_key(v)), key))
        )
        self.index = index = {v: i for i, v in enumerate(self.roots)}
        self.n_roots = len(self.roots)
        self._simple_perms = tuple(
            [tuple([index[images[v][i]] for v in self.roots]) for i in range(n)]
        )
        self.neg = tuple([index[_negated(v)] for v in self.roots])
        self.simple = tuple([index[v] for v in simple_coords])
        # a root's coordinates are all >= 0 or all <= 0, and over Z[phi] so
        # are all the ints of its flat tuple
        self.positive = tuple([i for i, v in enumerate(self.roots) if sum(v) > 0])
        self.highest = self.positive[-1]

    def real_key(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """One int per coordinate of the flat vector v, ordered as the real
        coordinates are: the coordinates themselves over Z, and over Z[phi]
        the keys of `_F40_F41`."""
        if self.width == 1:
            return v
        f40, f41 = _F40_F41
        return tuple([a * f40 + b * f41 for a, b in zip(v[::2], v[1::2])])

    def _apply_simple(self, i: int, v: tuple) -> tuple:
        out = list(v)
        for t, row in self._rows[i]:
            out[t] -= sum([v[k] * x for k, x in row])
        return tuple(out)

    def _close(self, simple_coords) -> dict[tuple, list[tuple]]:
        """Every root, mapped to its images under s_0, ..., s_(rank-1).

        Each root is held as one tuple: an image is looked up in the map
        from each root found so far to itself, and a row holds those
        tuples.  The queue holds one root of each pair +-v: s_i(-v) =
        -s_i(v), so the images of -v are the negated images of v."""
        canon: dict[tuple, tuple] = {}
        images: dict[tuple, list[tuple]] = {}

        def hold(v: tuple) -> None:
            canon[v] = v
            minus = _negated(v)
            canon[minus] = minus

        queue = list(simple_coords)
        for v in queue:
            hold(v)
        while queue:
            v = queue.pop()
            row = []
            for i in range(self.rank):
                w = self._apply_simple(i, v)
                if w not in canon:
                    hold(w)
                    queue.append(w)
                row.append(canon[w])
            images[v] = row
            images[canon[_negated(v)]] = [canon[_negated(w)] for w in row]
        return images

    # -- orthogonality and lengths ----------------------------------------

    def orthogonal(self, i: int, j: int) -> bool:
        # s_i(beta) = beta - 2 (beta, alpha_i) / (alpha_i, alpha_i) alpha_i,
        # so the reflection in root i fixes root j exactly when they are
        # orthogonal: one lookup in place of a dot product over the field
        return self._reflection_perms[i][j] == j

    @cached_property
    def _long_roots(self) -> frozenset[int]:
        """The W-orbit of the highest root, which is long: every long root."""
        orbit = {self.highest}
        queue = [self.highest]
        for r in queue:
            for s in self._simple_perms:
                if s[r] not in orbit:
                    orbit.add(s[r])
                    queue.append(s[r])
        return frozenset(orbit)

    def is_long(self, i: int) -> bool:
        return i in self._long_roots

    # -- reflections ------------------------------------------------------

    @cached_property
    def _reflection_perms(self) -> tuple[Perm, ...]:
        """The permutation of root indices of every root's reflection.

        The simple reflections are read off the root closure.  Every other
        line holds a root beta = s_j(gamma) for a root gamma reached before
        it in a BFS from the simple roots, and s_beta = s_j s_gamma s_j.
        beta and -beta share one tuple, since s_beta = s_-beta.
        """
        perms: list[Perm | None] = [None] * self.n_roots
        simple_perms, neg = self._simple_perms, self.neg
        for s, perm in zip(self.simple, simple_perms):
            perms[s] = perms[neg[s]] = perm
        queue = list(self.simple)
        for gamma in queue:
            for s_j in simple_perms:
                beta = s_j[gamma]
                if perms[beta] is None:
                    perms[beta] = perms[neg[beta]] = conjugate(perms[gamma], s_j)
                    queue.append(beta)
        return tuple(perms)

    def reflection_perm(self, line: int) -> Perm:
        """Permutation of root indices induced by the reflection in root `line`."""
        return self._reflection_perms[line]

    def degree_of(self, perm: Perm) -> int:
        """dim of the (-1)-eigenspace of an involution: its eigenvalues are
        +-1, so the degree is (rank - trace) / 2.  Column k of its matrix in
        the simple-root basis is the image of simple root k.  The trace is
        an integer, so over Z[phi] the phi parts cancel and the first ints of
        the diagonal entries sum to it."""
        w = self.width
        trace = sum(self.roots[perm[s]][k * w] for k, s in enumerate(self.simple))
        return (self.rank - trace) // 2

    @cached_property
    def _e_frame(self):
        """For B_n/D_n (`signed_permutation`): every root in the orthonormal
        basis e_0..e_{n-1}, read off its simple-root coordinates with
        alpha_c = e_c - e_{c+1} for c < n-1, and alpha_{n-1} = e_{n-1} in
        B_n, e_{n-2} + e_{n-1} in D_n; and for each j the roots e_j - e_k
        and e_j + e_k, with k = j + 1, or j - 1 for the last j."""
        family, n = self.ctype.components[0]
        coords = []
        for v in self.roots:
            e = [v[0]] + [v[r] - v[r - 1] for r in range(1, n)]
            if family == "D":
                e[-2] += v[-1]
            coords.append(tuple(e))
        index = {c: i for i, c in enumerate(coords)}
        pairs = []
        for j in range(n):
            k = j + 1 if j + 1 < n else j - 1
            diff = tuple([(r == j) - (r == k) for r in range(n)])
            total = tuple([(r == j) + (r == k) for r in range(n)])
            pairs.append((index[diff], index[total]))
        return tuple(coords), tuple(pairs)


class DihedralModel:
    """The dihedral group I2(m) acting on its 2m abstract roots.

    Root k sits at angle k*pi/m; reflection in the line of root j maps
    root k to 2j + m - k (mod 2m), and negation is the half-turn k + m.
    """

    crystallographic = False
    rank = 2

    def __init__(self, m: int):
        if m < 3:
            raise CapabilityError("dihedral type needs m >= 3")
        self.m = m
        self.ctype = CoxeterType.irreducible("I", m)
        self.n_roots = 2 * m
        self.neg = tuple((k + m) % (2 * m) for k in range(2 * m))
        self.positive = tuple(range(m))
        self.simple = (0, m - 1)
        self._refl_perms: dict[int, Perm] = {}

    def reflection_perm(self, line: int) -> Perm:
        perm = self._refl_perms.get(line)
        if perm is None:
            # k -> c - k (mod 2m) with c = 2j + m: c, c-1, ..., 0 for
            # k <= c, then 2m - 1, ..., c + 1; slicing the cached identity
            # shares its ints, so cached reflections hold no copies of them
            pts = identity(self.n_roots)
            c = (2 * line + self.m) % self.n_roots
            perm = pts[c::-1] + pts[:c:-1]
            self._refl_perms[line] = perm
        return perm

    def orthogonal(self, i: int, j: int) -> bool:
        if self.m % 2:
            return False
        return (i - j) % self.m == self.m // 2

    def degree_of(self, perm: Perm) -> int:
        if all(i == x for i, x in enumerate(perm)):
            return 0
        if perm == self.neg:
            return 2
        if perm in (self.reflection_perm(j) for j in range(self.m)):
            return 1
        raise ValueError("dihedral element is not an involution")


def build_system(ctype: CoxeterType, max_rank: int = DEFAULT_MAX_RANK):
    """Construct the root system (or dihedral model) of an irreducible type."""
    if not ctype.is_irreducible():
        raise CapabilityError(f"type {ctype} is not irreducible")
    family, n = ctype.components[0]
    if family == "I":
        if n > MAX_DIHEDRAL_M:
            raise CapabilityError(
                f"m = {n} of I2(m) exceeds the supported bound {MAX_DIHEDRAL_M}"
            )
        return DihedralModel(n)
    if family == "G":
        return DihedralModel(6)
    if family in ("A", "B", "D") and n > max_rank:
        raise CapabilityError(
            f"rank {n} of family {family} exceeds the supported bound {max_rank}"
        )
    return RootSystem(ctype)


def extended_diagram_Y(rs: RootSystem) -> frozenset[int]:
    """Simple-root positions not adjacent to the lowest root in the
    completed diagram (0-based Bourbaki positions)."""
    if not rs.crystallographic:
        raise CapabilityError("extended diagrams need a crystallographic type")
    return frozenset(
        c
        for c, s in enumerate(rs.simple)
        if rs.orthogonal(s, rs.highest)
    )


# -- signed-permutation view for the B/D families ----------------------------


def signed_permutation(rs: RootSystem, perm: Perm):
    """Express a B/D group element as a signed permutation of coordinates.

    Returns (sigma, signs) with e_j mapped to signs[j] * e_sigma[j], read
    off root images: 2 e_j = (e_j - e_k) + (e_j + e_k) for any k != j, and
    both are roots of B_n and D_n.
    """
    if rs.ctype.components[0][0] not in ("B", "D"):
        raise CapabilityError("signed-permutation form is a B/D feature")
    coords, pairs = rs._e_frame
    sigma = []
    signs = []
    for diff, total in pairs:
        image = [x + y for x, y in zip(coords[perm[diff]], coords[perm[total]])]
        moved = [(i, x) for i, x in enumerate(image) if x]
        if len(moved) != 1 or moved[0][1] not in (2, -2):
            raise ValueError("element is not a signed permutation")
        sigma.append(moved[0][0])
        signs.append(moved[0][1] // 2)
    return tuple(sigma), tuple(signs)
