"""Root systems and Coxeter data for every finite irreducible type.

Roots are stored as coordinate tuples in the simple-root basis: integer
tuples for the crystallographic types, Scalar tuples over Q(sqrt5) for H3
and H4.  The full root set is generated by closing the simple roots under
the simple reflections, then frozen in a deterministic order (height, then
lexicographic coordinates), so every downstream artifact is reproducible
byte for byte.

I2(m) is deliberately not realized by vectors: general m would need
Q(cos pi/m) arithmetic, while everything the dihedral tables require is
visible on the abstract 2m-point root circle (see :class:`DihedralModel`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .coxtype import CoxeterType
from .perms import Perm, conjugate, identity
from .scalars import GOLDEN, Scalar


class CapabilityError(ValueError):
    """Requested type or rank outside what this build supports."""


DEFAULT_MAX_RANK = 12
# I2(m) for m up to this bound: `analyze` takes about 10 s at m = 1024, and
# its time grows faster than m^2 beyond (m = 4096 did not finish in 150 s).
MAX_DIHEDRAL_M = 1024

# Dynkin data, 0-based Bourbaki numbering: (edges with exact inner product
# of the two simple roots, squared lengths of the simple roots).
_MINUS_GOLDEN = -GOLDEN


def _dynkin_data(family: str, n: int):
    two = Fraction(2)
    if family == "A":
        return [(i, i + 1, Fraction(-1)) for i in range(n - 1)], [two] * n
    if family == "B":
        norms = [two] * (n - 1) + [Fraction(1)]
        return [(i, i + 1, Fraction(-1)) for i in range(n - 1)], norms
    if family == "D":
        edges = [(i, i + 1, Fraction(-1)) for i in range(n - 2)]
        edges.append((n - 3, n - 1, Fraction(-1)))
        return edges, [two] * n
    if family == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]
        edges = [(i, j, Fraction(-1)) for i, j in chain + [(1, 3)]]
        return edges, [two] * n
    if family == "F":
        edges = [
            (0, 1, Fraction(-1)),
            (1, 2, Fraction(-1)),
            (2, 3, Fraction(-1, 2)),
        ]
        return edges, [two, two, Fraction(1), Fraction(1)]
    if family == "H":
        edges = [(0, 1, _MINUS_GOLDEN)] + [
            (i, i + 1, Scalar(-1)) for i in range(1, n - 1)
        ]
        return edges, [Scalar(2)] * n
    raise CapabilityError(f"no root datum for {family}{n}")


class RootSystem:
    """An irreducible root system with its reflection representation."""

    def __init__(self, ctype: CoxeterType):
        (family, n) = ctype.components[0]
        self.ctype = ctype
        self.rank = n
        edges, norms = _dynkin_data(family, n)
        self.crystallographic = family != "H"

        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = norms[i] if i == j else (Scalar(0) if family == "H" else Fraction(0))
        for i, j, prod in edges:
            gram[i][j] = prod
            gram[j][i] = prod
        self.gram = tuple(tuple(row) for row in gram)

        # refl[i][j] = <alpha_i, alpha_j^vee> = 2 g(i,j) / g(j,j): the Cartan
        # matrix in the crystallographic case, where it is integral.
        refl = [
            [2 * gram[i][j] / gram[j][j] for j in range(n)] for i in range(n)
        ]
        if self.crystallographic:
            assert all(x.denominator == 1 for row in refl for x in row)
            refl = [[int(x) for x in row] for row in refl]
            self.cartan = tuple(tuple(row) for row in refl)
        else:
            self.cartan = None
        # s_i(v) = v - (sum_j v_j refl[j][i]) alpha_i: column i's nonzero
        # entries, the diagonal 2 among them
        self._columns = tuple(
            tuple((j, refl[j][i]) for j in range(n) if refl[j][i]) for i in range(n)
        )

        zero = 0 if self.crystallographic else Scalar(0)
        one = 1 if self.crystallographic else Scalar(1)
        simple_coords = [
            tuple(one if k == i else zero for k in range(n)) for i in range(n)
        ]
        images = self._close(simple_coords)
        self.roots = tuple(sorted(images, key=lambda v: (sum(v[1:], v[0]), v)))
        self.index = index = {v: i for i, v in enumerate(self.roots)}
        self.n_roots = len(self.roots)
        self._simple_perms = tuple(
            tuple(index[images[v][i]] for v in self.roots) for i in range(n)
        )
        self.neg = tuple(
            self.index[tuple(-c for c in v)] for v in self.roots
        )
        self.simple = tuple(self.index[v] for v in simple_coords)
        self.positive = tuple(
            i for i, v in enumerate(self.roots) if sum(v[1:], v[0]) > zero
        )
        self.highest = self.positive[-1]
        self._norms = [None] * self.n_roots
        self._gram_rows: dict[int, tuple] = {}

    def _apply_simple(self, i: int, v: tuple) -> tuple:
        c = sum(v[j] * x for j, x in self._columns[i])
        out = list(v)
        out[i] = v[i] - c
        return tuple(out)

    def _close(self, simple_coords) -> dict[tuple, tuple]:
        """Every root, mapped to its images under s_0, ..., s_(rank-1)."""
        images: dict[tuple, tuple] = {}
        seen = set(simple_coords)
        queue = list(simple_coords)
        while queue:
            v = queue.pop()
            row = tuple(self._apply_simple(i, v) for i in range(self.rank))
            images[v] = row
            for w in (*row, tuple(-c for c in v)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return images

    # -- inner products ---------------------------------------------------

    def gram_row(self, i: int) -> tuple:
        row = self._gram_rows.get(i)
        if row is None:
            v = self.roots[i]
            row = tuple(
                sum(v[j] * self.gram[j][k] for j in range(self.rank))
                for k in range(self.rank)
            )
            self._gram_rows[i] = row
        return row

    def product(self, i: int, j: int):
        """Invariant inner product of roots i and j."""
        gi = self.gram_row(i)
        w = self.roots[j]
        return sum(gi[k] * w[k] for k in range(self.rank))

    def orthogonal(self, i: int, j: int) -> bool:
        # s_i(beta) = beta - 2 (beta, alpha_i) / (alpha_i, alpha_i) alpha_i,
        # so the reflection in root i fixes root j exactly when they are
        # orthogonal: one lookup in place of a dot product over the field
        return self._reflection_perms[i][j] == j

    def norm(self, i: int):
        if self._norms[i] is None:
            self._norms[i] = self.product(i, i)
        return self._norms[i]

    def is_long(self, i: int) -> bool:
        longest = max(self.norm(s) for s in self.simple)
        return self.norm(i) == longest

    # -- reflections ------------------------------------------------------

    @cached_property
    def _reflection_perms(self) -> tuple[Perm, ...]:
        """The permutation of root indices of every root's reflection.

        The simple reflections are read off the root closure.  Every other
        root is beta = s_j(gamma) for a root gamma reached before it in a
        BFS from the simple roots, and s_beta = s_j s_gamma s_j.
        """
        perms: list[Perm | None] = [None] * self.n_roots
        simple_perms = self._simple_perms
        for s, perm in zip(self.simple, simple_perms):
            perms[s] = perm
        queue = list(self.simple)
        for gamma in queue:
            for s_j in simple_perms:
                beta = s_j[gamma]
                if perms[beta] is None:
                    perms[beta] = conjugate(perms[gamma], s_j)
                    queue.append(beta)
        return tuple(perms)

    def reflection_perm(self, line: int) -> Perm:
        """Permutation of root indices induced by the reflection in root `line`."""
        return self._reflection_perms[line]

    def degree_of(self, perm: Perm) -> int:
        """dim of the (-1)-eigenspace of an involution: its eigenvalues are
        +-1, so the degree is (rank - trace) / 2.  Column k of its matrix in
        the simple-root basis is the image of simple root k."""
        trace = sum(self.roots[perm[s]][k] for k, s in enumerate(self.simple))
        if isinstance(trace, Scalar):  # Q(sqrt5): an involution's trace is an integer
            trace = int(trace.a)
        return (self.rank - trace) // 2

    # -- lattice / mod-2 machinery -----------------------------------------

    def weight_coords(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates in the fundamental-weight basis (pairings with coroots)."""
        if not self.crystallographic:
            raise CapabilityError("weight lattice needs a crystallographic type")
        c = self.cartan
        n = self.rank
        return tuple(sum(v[i] * c[i][j] for i in range(n)) for j in range(n))

    def mod2_vector(self, root_index: int, mode: str) -> tuple[int, ...]:
        v = self.roots[root_index]
        if mode == "R_mod_2R":
            if not self.crystallographic:
                raise CapabilityError("mod-2R image needs a crystallographic type")
            return tuple(x % 2 for x in v)
        if mode == "R_mod_2P":
            if self.ctype != CoxeterType.irreducible("E", 7):
                raise CapabilityError("the R/2P model is specific to E7")
            return tuple(x % 2 for x in self.weight_coords(v))
        raise ValueError(f"unknown mod-2 mode {mode!r}")


class DihedralModel:
    """The dihedral group I2(m) acting on its 2m abstract roots.

    Root k sits at angle k*pi/m; reflection in the line of root j maps
    root k to 2j + m - k (mod 2m), and negation is the half-turn k + m.
    """

    crystallographic = False
    cartan = None
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


def _e_coordinates(family: str, v: tuple[int, ...]) -> tuple[int, ...]:
    """A B_n/D_n root in the orthonormal basis e_0..e_{n-1}, from its
    simple-root coordinates: alpha_c = e_c - e_{c+1} for c < n-1, and
    alpha_{n-1} = e_{n-1} in B_n, e_{n-2} + e_{n-1} in D_n."""
    e = [v[0]] + [v[r] - v[r - 1] for r in range(1, len(v))]
    if family == "D":
        e[-2] += v[-1]
    return tuple(e)


def signed_permutation(rs: RootSystem, perm: Perm):
    """Express a B/D group element as a signed permutation of coordinates.

    Returns (sigma, signs) with e_j mapped to signs[j] * e_sigma[j], read
    off root images: 2 e_j = (e_j - e_k) + (e_j + e_k) for any k != j, and
    both are roots of B_n and D_n.
    """
    family = rs.ctype.components[0][0]
    if family not in ("B", "D"):
        raise CapabilityError("signed-permutation form is a B/D feature")
    coords = [_e_coordinates(family, v) for v in rs.roots]
    index = {c: i for i, c in enumerate(coords)}
    n = rs.rank
    sigma = []
    signs = []
    for j in range(n):
        k = j + 1 if j + 1 < n else j - 1
        diff = tuple((r == j) - (r == k) for r in range(n))
        total = tuple((r == j) + (r == k) for r in range(n))
        image = [
            x + y for x, y in zip(coords[perm[index[diff]]], coords[perm[index[total]]])
        ]
        moved = [(i, x) for i, x in enumerate(image) if x]
        if len(moved) != 1 or moved[0][1] not in (2, -2):
            raise ValueError("element is not a signed permutation")
        sigma.append(moved[0][0])
        signs.append(moved[0][1] // 2)
    return tuple(sigma), tuple(signs)
