"""Irreducible root systems with Bourbaki labeling.

Roots are stored as integer coefficient vectors over the simple roots.
Positive roots are generated by string closure from the Cartan matrix and
enumerated by height, ties broken lexicographically, which fixes the
canonical index used for masks and matrices everywhere else.  The Euclidean
(epsilon-coordinate) models of the classical types and F4 are conversion
helpers only: `EuclidModel` is one table from the doubled epsilon
coordinates of each signed root to the root, read through `eps` and
`to_root`.  The closed-form constructions in `tests/oracles.py` read their
roots from it, and `euclid_positive_roots` there checks the closure.

The signed roots are the positive roots in that order, then their negatives;
`RootSystem.signed_index` gives a root's position there, also the index of
x_root in the Chevalley basis.  Sums, simple reflections and root strings are
integer tables over these positions, each located by one lookup of
coefficient vectors (`_position`); a Weyl group element is the int16 row of
the positions of the images of the positive roots.  `Root` arithmetic and
`reflect` stay as the reference the tests compare the tables with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

WEYL_EXHAUSTIVE_ORDER = 2000  # largest |W| that `weyl_elements` enumerates


@dataclass(frozen=True, order=True)
class Root:
    """A root as a coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coeffs))

    def __repr__(self):
        return "Root" + str(self.coeffs)


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
    """A root system given by its name ("B4"), type label and Cartan matrix;
    build_root_system() makes the irreducible ones."""

    def __init__(self, name: str, type_label: str, cartan: list[list[int]]):
        self.name = name
        self.type_label = type_label
        self.rank = len(cartan)
        self.cartan = cartan
        self.symmetrizer = self._symmetrizer()
        self.positive_roots = self._closure()
        self.simple_roots = self.positive_roots[: self.rank]  # the roots of height one
        self._pos_index = {r.coeffs: i for i, r in enumerate(self.positive_roots)}
        signed = self.positive_roots + [-r for r in self.positive_roots]
        self._signed_index = {r.coeffs: i for i, r in enumerate(signed)}
        # _neg[k] is the position of -root_k
        self._neg = np.roll(np.arange(len(signed), dtype=np.int16), len(signed) // 2)
        self.highest_root = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))

    # -- construction ------------------------------------------------------

    def _symmetrizer(self) -> list[int]:
        """d with d_i C_ij = d_j C_ji, walked over each component of the Dynkin
        diagram and divided by its least value: short simple roots get 1."""
        n = self.rank
        d: list = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start], comp = Fraction(1), [start]
            for i in comp:
                for j in range(n):
                    if self.cartan[i][j] and d[j] is None:
                        d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
                        comp.append(j)
            least = min(d[k] for k in comp)
            for k in comp:
                d[k] = int(d[k] / least)
        return d

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
                    if r - self.pairing(beta, i) >= 1:
                        roots.add(gamma)
                        new.append(gamma)
            frontier = new
        # Height order; ties broken by coefficient vector so that the simple
        # roots come out as alpha_1, ..., alpha_n in label order.
        return sorted(roots, key=lambda r: (r.height, tuple(-c for c in r.coeffs)))

    # -- basic queries -------------------------------------------------------

    def __repr__(self):
        return f"RootSystem({self.name})"

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @cached_property
    def _signed(self) -> np.ndarray:
        """(2N, rank) int8 coefficients of the signed roots."""
        return np.array(list(self._signed_index), dtype=np.int8)  # |coeff| <= 6: sums fit

    def _position(self, vecs: np.ndarray) -> np.ndarray:
        """Position of each int8 coefficient vector (last axis) among the
        signed roots, or -1 if it is not a root."""
        # each vector is compared as one opaque byte string
        as_bytes = np.dtype((np.void, self.rank))
        roots = self._signed.view(as_bytes)[:, 0]
        order = np.argsort(roots)
        keys = np.ascontiguousarray(vecs, dtype=np.int8).view(as_bytes)[..., 0]
        at = np.searchsorted(roots[order], keys).clip(max=len(roots) - 1)
        return np.where(roots[order][at] == keys, order[at], -1)

    @cached_property
    def sum_index(self) -> np.ndarray:
        """(2N, 2N) table over the signed roots: entry [i, j] is the position
        of root_i + root_j, or -1 if the sum is not a root."""
        return self._position(self._signed[:, None] + self._signed[None])

    @cached_property
    def reflections(self) -> np.ndarray:
        """(rank, 2N) table: entry [i, k] is the position of s_{i+1}(root_k)."""
        pairing = self._signed.astype(np.int64) @ np.array(self.cartan).T  # (2N, rank)
        step = pairing.T[:, :, None] * np.eye(self.rank, dtype=np.int64)[:, None]
        return self._position(self._signed - step)

    @cached_property
    def string_down(self) -> np.ndarray:
        """(2N, 2N) table: entry [i, j] is the length of the root_i-string
        below root_j, the number of k >= 1 with root_j - k root_i a root."""
        n2 = 2 * self.num_positive
        minus = self.sum_index[self._neg]  # row i adds -root_i
        cur, out = np.broadcast_to(np.arange(n2), (n2, n2)), 0
        while (cur >= 0).any():  # strings have at most four roots
            cur = np.where(cur >= 0, np.take_along_axis(minus, cur, 1), -1)
            out = out + (cur >= 0)
        return out

    def is_root(self, r: Root) -> bool:
        return r.coeffs in self._signed_index

    def signed_index(self, r: Root) -> int:
        """Position of a root, positive or negative, among the signed roots."""
        return self._signed_index[r.coeffs]

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
        a, b = self.signed_index(alpha), self.signed_index(beta)
        if b in (a, self._neg[a]):
            raise ValueError("alpha proportional to beta has no root string")
        return int(self.string_down[a, b]), int(self.string_down[self._neg[a], b])

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
        # the longest string over all pairs; a proportional pair counts 1
        down = self.string_down
        longest = max(2, int((down + down[self._neg]).max()) + 1)
        return PrimeProfile(bad, torsion, det, longest)

    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants of W, ascending; their product is |W|.

        Kostant: the exponents e_i form the partition dual to the numbers of
        positive roots of each height, and d_i = 1 + e_i.
        """
        heights = [r.height for r in self.positive_roots]
        per_height = [heights.count(h) for h in set(heights)]
        exponents = [sum(c >= i for c in per_height) for i in range(1, self.rank + 1)]
        return tuple(sorted(1 + e for e in exponents))

    def reflect(self, i: int, beta: Root) -> Root:
        """Simple reflection s_i (1-based) applied to beta."""
        c = self.pairing(beta, i - 1)
        return Root(
            tuple(b - (c if j == i - 1 else 0) for j, b in enumerate(beta.coeffs))
        )

    def apply_weyl(self, word: tuple[int, ...], beta: Root) -> Root:
        """A Weyl word (as in `weyl_words`) applied to beta."""
        for i in reversed(word):
            beta = self.reflect(i, beta)
        return beta

    def weyl_words(self, letters=None):
        """Shortest words for the elements of the group the letters generate.

        A word is a tuple of 1-based simple indices read as a composition:
        its first letter is applied last.  Breadth-first over right
        multiplication by the letters (all simple reflections by default), so
        the first word found for an element is a shortest one.  Returns a
        dict keyed by the element's row as bytes: the int16 positions among
        the signed roots of the images of the positive roots, in root order.
        The search has no size limit: callers check the group's order first.
        """
        n = self.num_positive
        letters = list(range(1, self.rank + 1) if letters is None else letters)
        # (w s_i)(root k) = w(s_i(root k)), w extended to the negative roots
        refl = self.reflections[[i - 1 for i in letters], :n]
        frontier = [np.arange(n, dtype=np.int16).tobytes()]
        words = {frontier[0]: ()}
        while frontier:
            level = np.frombuffer(b"".join(frontier), dtype=np.int16).reshape(-1, n)
            images = np.hstack([level, self._neg[level]])[:, refl]
            nxt = []
            for k, img in enumerate(images.reshape(-1, n)):  # element first, then letter
                key = img.tobytes()
                if key not in words:
                    base = words[frontier[k // len(letters)]]
                    words[key] = base + (letters[k % len(letters)],)
                    nxt.append(key)
            frontier = nxt
        return words

    @lru_cache(maxsize=None)
    def weyl_elements(self):
        """All Weyl group elements as one (|W|, N) int16 array, or None.

        Row w holds the positions among the signed roots of w(root_k) for the
        positive roots root_k, in BFS order.  Gives up (returns None) if the
        group has more than `WEYL_EXHAUSTIVE_ORDER` elements.  The group is
        enumerated once per system; later calls return the same array.
        """
        if math.prod(self.degrees()) > WEYL_EXHAUSTIVE_ORDER:
            return None
        rows = b"".join(self.weyl_words())
        return np.frombuffer(rows, dtype=np.int16).reshape(-1, self.num_positive)


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
    _validate_type(type_label, rank)
    sys = RootSystem(f"{type_label}{rank}", type_label, cartan_matrix(type_label, rank))
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


# -- Euclidean models (conversion helpers) -------------------------------------


class EuclidModel:
    """Epsilon-coordinate model of a classical (or F4) root system.

    The simple roots are Bourbaki's (Plates I-IV and VIII).  The doubled
    epsilon coordinates of every signed root, integers also for F4's halves,
    are computed once as `system._signed @ doubled`, the rows of `doubled`
    being twice the simple roots; converting a vector is one lookup.
    """

    def __init__(self, system: RootSystem):
        t, n = system.type_label, system.rank
        self.system = system
        self.dim = {"A": n + 1, "B": n, "C": n, "D": n, "F": 4}.get(t)
        if self.dim is None:
            raise ValueError(f"no epsilon model for type {t}")
        if t == "F":
            simple = [(2, -3), (3, -4), (4,)]
        else:
            last = {"A": (n, -n - 1), "B": (n,), "C": (n, n), "D": (n - 1, n)}[t]
            simple = [(i, -i - 1) for i in range(1, n)] + [last]
        doubled = [[2 * x for x in self._sum(*s)] for s in simple]
        if t == "F":
            doubled.append([1, -1, -1, -1])  # alpha_4 = (eps_1 - eps_2 - eps_3 - eps_4) / 2
        coords = system._signed.astype(np.int64) @ np.array(doubled)
        self._roots = {
            tuple(v): Root(tuple(c)) for v, c in zip(coords.tolist(), system._signed.tolist())
        }

    def _sum(self, *signed: int) -> list[int]:
        """The epsilon coordinates of the sum of sign(k) eps_|k| over k."""
        vec = [0] * self.dim
        for k in signed:
            vec[abs(k) - 1] += 1 if k > 0 else -1
        return vec

    def eps(self, i: int) -> tuple[int, ...]:
        return tuple(self._sum(i))

    def to_root(self, vec) -> Root:
        """The root with epsilon coordinates `vec` (integers or Fractions)."""
        root = self._roots.get(tuple(2 * Fraction(x) for x in vec))
        if root is None:
            raise ValueError(f"{tuple(vec)} is not a root of {self.system}")
        return root
