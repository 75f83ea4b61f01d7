"""Irreducible root systems with Bourbaki labeling.

Roots are stored as integer coefficient vectors over the simple roots; the
Euclidean (epsilon-coordinate) models of the classical types are provided as
conversion helpers only.  Positive roots are generated by string closure
from the Cartan matrix and enumerated by height, ties broken lexicographically,
which fixes the canonical index used for masks and matrices everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

VALID_TYPES = "ABCDEFG"


@dataclass(frozen=True, order=True)
class Root:
    """A root as a coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs) and any(self.coeffs)

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coeffs))

    def __repr__(self):
        return "Root" + str(self.coeffs)


@dataclass(frozen=True)
class WeylWord:
    """A word in the simple reflections; letters are 1-based simple indices."""

    letters: tuple[int, ...] = ()


@dataclass(frozen=True)
class PrimeProfile:
    bad_primes: frozenset[int]
    torsion_primes: frozenset[int]
    fundamental_group_order: int
    longest_root_string: int


def cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    """Cartan matrix with C[i][j] = <alpha_j, alpha_i^vee>, Bourbaki labels."""
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if type_label == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif type_label == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)  # alpha_n short
    elif type_label == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)  # alpha_n long
    elif type_label == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif type_label == "E":
        for a, b in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7), (7, 8)]:
            if a <= n and b <= n:
                edge(a - 1, b - 1)
    elif type_label == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)  # alpha_3 short
        edge(2, 3)
    elif type_label == "G":
        edge(0, 1, -3, -1)  # alpha_1 short: s_1(alpha_2) = 3 alpha_1 + alpha_2
    return C


def _validate_type(type_label: str, rank: int):
    legal = {
        "A": (1, None),
        "B": (2, None),
        "C": (2, None),  # C_2 accepted, isomorphic to B_2
        "D": (4, None),
        "E": (6, 8),
        "F": (4, 4),
        "G": (2, 2),
    }
    if type_label not in legal:
        raise ValueError(
            f"unknown type {type_label!r}; legal types are A(n>=1), B(n>=2), "
            "C(n>=2), D(n>=4), E(6..8), F4, G2"
        )
    lo, hi = legal[type_label]
    if rank < lo or (hi is not None and rank > hi):
        hint = f"{lo}..{hi}" if hi else f">= {lo}"
        raise ValueError(f"rank {rank} invalid for type {type_label}; legal ranks: {hint}")


class RootSystem:
    """An irreducible root system; use build_root_system() to construct."""

    def __init__(self, type_label: str, rank: int, cartan=None, _sum_parts=None):
        if _sum_parts is None:
            _validate_type(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan if cartan is not None else cartan_matrix(type_label, rank)
        self.sum_parts = _sum_parts  # set for direct sums only
        self.symmetrizer = self._symmetrizer()
        self.positive_roots = self._closure()
        self.simple_roots = self.positive_roots[: self.rank] if _sum_parts is None else [
            r for r in self.positive_roots if r.height == 1
        ]
        self._pos_index = {r.coeffs: i for i, r in enumerate(self.positive_roots)}
        self._all = set(self._pos_index) | {(-r).coeffs for r in self.positive_roots}
        self.highest_root = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))

    # -- construction ------------------------------------------------------

    def _symmetrizer(self) -> list[int]:
        n = self.rank
        d = [Fraction(0)] * n
        d[0] = Fraction(1)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if self.cartan[i][j] and i != j and not seen[j]:
                    d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
                    seen[j] = True
                    stack.append(j)
        if not all(seen):  # disconnected (direct sums): normalize per component
            for j in range(n):
                if not seen[j]:
                    d[j] = Fraction(1)
                    seen[j] = True
        scale = 1
        for x in d:
            scale = scale * x.denominator // __import__("math").gcd(scale, x.denominator)
        return [int(x * scale) for x in d]

    def _closure(self) -> list[Root]:
        n = self.rank
        simples = [Root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for beta in frontier:
                for i, alpha in enumerate(simples):
                    gamma = beta + alpha
                    if gamma in roots:
                        continue
                    r = 0
                    down = beta - alpha
                    while down in roots:
                        r += 1
                        down = down - alpha
                    pairing = sum(c * self.cartan[i][j] for j, c in enumerate(beta.coeffs))
                    if r - pairing >= 1:
                        roots.add(gamma)
                        new.append(gamma)
            frontier = new
        # Height order; ties broken by coefficient vector so that the simple
        # roots come out as alpha_1, ..., alpha_n in label order.
        return sorted(roots, key=lambda r: (r.height, tuple(-c for c in r.coeffs)))

    # -- basic queries -------------------------------------------------------

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank})"

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def is_root(self, r: Root) -> bool:
        return r.coeffs in self._all

    def index(self, r: Root) -> int:
        return self._pos_index[r.coeffs]

    def root(self, i: int) -> Root:
        return self.positive_roots[i]

    def norm2(self, r: Root) -> int:
        """Squared length, normalized so short simple roots have (a,a) = 2."""
        DA = self.cartan
        d = self.symmetrizer
        total = 0
        for i in range(self.rank):
            for j in range(self.rank):
                total += r.coeffs[i] * r.coeffs[j] * d[i] * DA[i][j]
        return total

    def pairing(self, beta: Root, i: int) -> int:
        """<beta, alpha_i^vee> with i a 0-based simple index."""
        return sum(c * self.cartan[i][j] for j, c in enumerate(beta.coeffs))

    def coroot_coeffs(self, r: Root) -> tuple[int, ...]:
        """r^vee as an integer combination of simple coroots."""
        dr = Fraction(self.norm2(r), 2)
        out = []
        for i in range(self.rank):
            v = Fraction(r.coeffs[i] * self.symmetrizer[i]) / dr
            if v.denominator != 1:
                raise ArithmeticError(f"non-integral coroot coefficient for {r}")
            out.append(int(v))
        return tuple(out)

    # -- spec operations -----------------------------------------------------

    def root_string(self, alpha: Root, beta: Root) -> tuple[int, int]:
        """The alpha-string through beta: maximal (r, s) with -r..s steps roots."""
        if not (self.is_root(alpha) and self.is_root(beta)):
            raise ValueError("root_string arguments must be roots")
        diff = beta - alpha
        if all(c == 0 for c in diff.coeffs) or all(
            a == -b for a, b in zip(alpha.coeffs, beta.coeffs)
        ):
            raise ValueError("alpha proportional to beta has no root string")
        r = 0
        cur = beta - alpha
        while self.is_root(cur):
            r += 1
            cur = cur - alpha
        s = 0
        cur = beta + alpha
        while self.is_root(cur):
            s += 1
            cur = cur + alpha
        return r, s

    def commute(self, alpha: Root, beta: Root, p: int | None = None) -> bool:
        """Whether alpha and beta commute (sum not a root); p gives p-commuting."""
        if alpha == beta:
            raise ValueError("commute is defined for distinct roots")
        if not self.is_root(alpha + beta):
            return True
        if p is None:
            return False
        r, _ = self.root_string(alpha, beta)
        return r == p - 1

    def phi_rad(self, S) -> frozenset[Root]:
        """Positive roots needing at least one simple root from S (1-based indices)."""
        S = {S} if isinstance(S, int) else set(S)
        if not S <= set(range(1, self.rank + 1)):
            raise ValueError(f"simple indices must lie in 1..{self.rank}")
        idx = {i - 1 for i in S}
        return frozenset(
            r for r in self.positive_roots if any(r.coeffs[i] for i in idx)
        )

    def prime_profile(self) -> PrimeProfile:
        theta = self.highest_root
        bad = frozenset(m for m in theta.coeffs if m >= 2 and is_prime(m))
        dual = self.coroot_coeffs(theta)
        torsion = frozenset(m for m in dual if m >= 2 and is_prime(m))
        det = _int_det([row[:] for row in self.cartan])
        # string lengths are Weyl invariant and every root is conjugate to a
        # simple one, so scanning simple alpha against positive beta suffices
        longest = 2
        for a in self.simple_roots:
            for b in self.positive_roots:
                if a == b:
                    continue
                r, s = self.root_string(a, b)
                longest = max(longest, r + s + 1)
        return PrimeProfile(bad, torsion, det, longest)

    def reflect(self, i: int, beta: Root) -> Root:
        """Simple reflection s_i (1-based) applied to beta."""
        c = self.pairing(beta, i - 1)
        return Root(
            tuple(b - (c if j == i - 1 else 0) for j, b in enumerate(beta.coeffs))
        )

    def apply_weyl(self, word: WeylWord, beta: Root) -> Root:
        # letters act as a composition: the first letter is applied last
        for i in reversed(word.letters):
            beta = self.reflect(i, beta)
        return beta

    def weyl_words(self, letters=None, limit: int = 2000):
        """Shortest words for the elements of the group the letters generate.

        Breadth-first over right multiplication by the letters (all simple
        reflections by default), so the first word found for an element is a
        shortest one.  Returns a dict keyed by the element's image tuple (the
        images of the positive roots, in root order), or None if the group has
        more than `limit` elements.
        """
        pos = self.positive_roots
        if letters is None:
            letters = range(1, self.rank + 1)
        # w s_i sends root k to +-w(root idx), where s_i(root k) = +-(root idx)
        gens = []
        for i in letters:
            imgs = [self.reflect(i, r) for r in pos]
            gens.append((i, [(img.is_positive, self.index(img if img.is_positive else -img))
                             for img in imgs]))
        ident = tuple(pos)
        words = {ident: WeylWord(())}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                base = words[w].letters
                for i, g in gens:
                    img = tuple(w[k] if up else -w[k] for up, k in g)
                    if img not in words:
                        if len(words) >= limit:
                            return None
                        words[img] = WeylWord(base + (i,))
                        nxt.append(img)
            frontier = nxt
        return words

    def weyl_elements(self, limit: int = 2000):
        """All Weyl group elements as image tuples, sorted, or None.

        Each element is the tuple of images of the positive roots (Root
        objects, one entry per positive root).  Gives up (returns None) if the
        group has more than `limit` elements.
        """
        words = self.weyl_words(limit=limit)
        return None if words is None else sorted(words)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _int_det(M) -> int:
    """Determinant of a small integer matrix, exact (fraction-free not needed)."""
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            for k in range(c, n):
                M[r][k] -= f * M[c][k]
    assert det.denominator == 1
    return abs(int(det))


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the irreducible root system of the given type and rank."""
    sys = RootSystem(type_label, rank)
    expected = {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
        "E": {6: 36, 7: 63, 8: 120}.get(rank),
        "F": 24,
        "G": 6,
    }[type_label]
    assert sys.num_positive == expected, (type_label, rank, sys.num_positive)
    return sys


def direct_sum(a: RootSystem, b: RootSystem) -> RootSystem:
    """Direct sum wrapper: coefficient vectors are concatenated blockwise."""
    n = a.rank + b.rank
    C = [[0] * n for _ in range(n)]
    for i in range(a.rank):
        for j in range(a.rank):
            C[i][j] = a.cartan[i][j]
    for i in range(b.rank):
        for j in range(b.rank):
            C[a.rank + i][a.rank + j] = b.cartan[i][j]
    label = f"{a.type_label}{a.rank}+{b.type_label}{b.rank}"
    return RootSystem(label, n, cartan=C, _sum_parts=(a, b))


# -- Euclidean models (conversion helpers and an independent oracle) ---------


class EuclidModel:
    """Epsilon-coordinate model of a classical (or F4) root system."""

    def __init__(self, system: RootSystem):
        t, n = system.type_label, system.rank
        self.system = system
        self.dim = {"A": n + 1, "B": n, "C": n, "D": n, "F": 4}.get(t)
        if self.dim is None:
            raise ValueError(f"no epsilon model for type {t}")
        e = lambda i: tuple(
            Fraction(1) if k == i - 1 else Fraction(0) for k in range(self.dim)
        )
        self._e = e
        if t == "A":
            simple = [_vsub(e(i), e(i + 1)) for i in range(1, n + 1)]
        elif t == "B":
            simple = [_vsub(e(i), e(i + 1)) for i in range(1, n)] + [e(n)]
        elif t == "C":
            simple = [_vsub(e(i), e(i + 1)) for i in range(1, n)] + [_vscale(e(n), 2)]
        elif t == "D":
            simple = [_vsub(e(i), e(i + 1)) for i in range(1, n)] + [
                _vadd(e(n - 1), e(n))
            ]
        else:  # F4
            simple = [
                _vsub(e(2), e(3)),
                _vsub(e(3), e(4)),
                e(4),
                _vscale(_vsub(_vsub(_vsub(e(1), e(2)), e(3)), e(4)), Fraction(1, 2)),
            ]
        self.simple = simple

    def eps(self, i: int):
        return self._e(i)

    def to_root(self, vec) -> Root:
        """Solve for the coefficient vector over the simple roots; exact."""
        cols = self.simple
        m, n = self.dim, len(cols)
        A = [[cols[j][i] for j in range(n)] + [Fraction(vec[i])] for i in range(m)]
        # Gaussian elimination over Q
        row = 0
        piv = []
        for c in range(n):
            k = next((r for r in range(row, m) if A[r][c]), None)
            if k is None:
                continue
            A[row], A[k] = A[k], A[row]
            A[row] = [x / A[row][c] for x in A[row]]
            for r in range(m):
                if r != row and A[r][c]:
                    f = A[r][c]
                    A[r] = [x - f * y for x, y in zip(A[r], A[row])]
            piv.append(c)
            row += 1
        for r in range(row, m):
            if A[r][n]:
                raise ValueError("vector is not in the root lattice span")
        coeffs = [Fraction(0)] * n
        for r, c in enumerate(piv):
            coeffs[c] = A[r][n]
        if any(x.denominator != 1 for x in coeffs):
            raise ValueError("vector has non-integral simple-root coefficients")
        root = Root(tuple(int(x) for x in coeffs))
        if not self.system.is_root(root):
            raise ValueError(f"{vec} is not a root of {self.system}")
        return root

    def positive_roots(self) -> set[Root]:
        """All positive roots generated directly in epsilon coordinates."""
        t, n = self.system.type_label, self.system.rank
        e = self._e
        vecs = []
        if t == "A":
            vecs = [_vsub(e(i), e(j)) for i in range(1, n + 2) for j in range(1, n + 2) if i != j]
        elif t in "BCD":
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for si, sj in product((1, -1), repeat=2):
                        vecs.append(_vadd(_vscale(e(i), si), _vscale(e(j), sj)))
            if t == "B":
                vecs += [_vscale(e(i), s) for i in range(1, n + 1) for s in (1, -1)]
            if t == "C":
                vecs += [_vscale(e(i), 2 * s) for i in range(1, n + 1) for s in (1, -1)]
        else:  # F4
            for i in range(1, 5):
                vecs += [_vscale(e(i), s) for s in (1, -1)]
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    for si, sj in product((1, -1), repeat=2):
                        vecs.append(_vadd(_vscale(e(i), si), _vscale(e(j), sj)))
            for signs in product((1, -1), repeat=4):
                vecs.append(
                    _vscale(
                        _vadd(
                            _vadd(_vscale(e(1), signs[0]), _vscale(e(2), signs[1])),
                            _vadd(_vscale(e(3), signs[2]), _vscale(e(4), signs[3])),
                        ),
                        Fraction(1, 2),
                    )
                )
        out = set()
        for v in vecs:
            try:
                root = self.to_root(v)
            except ValueError:
                continue
            if root.is_positive:
                out.add(root)
        return out


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vscale(a, k):
    return tuple(x * k for x in a)
