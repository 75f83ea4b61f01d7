"""Chevalley-basis arithmetic over Z and its reductions to prime fields.

The structure constants N_{a,b} are produced from a total root order that
respects addition: for each non-simple positive root the pair (a1, b1) with
a1 + b1 = gamma and a1 minimal is the extraspecial pair and gets
N_{a1,b1} = +(r+1); every other sign follows from the Jacobi identity and
the standard triangle relation N_{a,b}/(c,c) = N_{b,c}/(a,a) for
a + b + c = 0.  `ChevalleyBasis.constants` holds every N_{a,b} over the
signed roots, derived once with numpy from `RootSystem.sum_index` one height
of sums at a time; `N` reads it.  All derived constants are checked to be
integers of absolute value r+1, and the test suite verifies the Jacobi
identity over Z.

Every nonzero bracket of two basis elements, [x_I, x_J] = C x_K, is one row
(I, J, K, C) of the integer table `ChevalleyBasis.brackets`, built once per
basis from `sum_index` and `constants`: root with root, x_a with x_{-a} (the
coroot h_a) and h with a root.  E8 has 16,694 rows.  `ad_matrix` is one
slice of it over Z; `field_data` scatters it mod p into one int16
(dim, dim, dim) stack per prime, and `ad_of` combines only the stack rows in
the support of its vectors.  `sparse_bracket` brackets with `Root`
arithmetic and stays as the reference the tests compare the table with.

Group elements act through integer divided-power exponentials: the matrices
ad(x_a)^k / k! are formed over Z first and only then reduced mod p.  The mod-p
exponential of the reduced matrix is *not* the same thing when p is smaller
than a root-string length, and nothing here ever computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import GF
from .orders import RootOrder, default_order
from .rootsys import Root, RootSystem, WeylWord


class ChevalleyBasis:
    """Structure constants and the Z-form bracket for one root system.

    Basis layout: x_a for positive roots a (storage order of the system),
    then x_{-a}, then h_1..h_rank; x_root is basis element
    `RootSystem.signed_index(root)`.
    """

    def __init__(self, system: RootSystem, order: RootOrder | None = None):
        self.system = system
        self.order = order if order is not None else default_order(system)
        if not self.order.respects_addition(system):
            raise ValueError("root order does not respect addition of positive roots")
        ascending = [system.index(r) for r in self.order.sorted_roots(system)]
        self.order_index = np.argsort(ascending)  # place of each positive root, ascending
        self.n_pos = system.num_positive
        self.dim = 2 * self.n_pos + system.rank
        self.constants = self._constants()
        self.brackets, self._bracket_rows = self._bracket_table()
        self._exp_cache: dict[int, list[np.ndarray]] = {}
        self._field_cache: dict[int, np.ndarray] = {}

    # -- structure constants ---------------------------------------------------

    def _constants(self) -> np.ndarray:
        """(2N, 2N) table of N_{a,b} over the signed roots, zero where a + b
        is not a root; also sets `extraspecial`.

        Positive pairs are filled one height of their sum at a time.  The
        mixed pairs N_{x,-y} (x, y positive) are re-derived from the positive
        pairs of lower sums before each height, by the triangle relation
        N_{x,-y} = -(k,k)/(x,x) N_{y,k} when x = y + k, and
        -(k,k)/(y,y) N_{x,k} when y = x + k.
        """
        sys, n = self.system, self.n_pos
        pos, sums, down, neg = sys.positive_roots, sys.sum_index, sys.string_down, sys._neg
        nrm = np.array([sys.norm2(r) for r in pos])
        height = np.array([r.height for r in pos])
        C = np.zeros((2 * n, 2 * n), dtype=np.int64)

        i, j = np.nonzero(sums[:n, n:] >= 0)
        k = sums[i, n + j] % n
        up = sums[i, n + j] < n  # x = y + k
        src, den = np.where(up, j, i), nrm[np.where(up, i, j)]

        def mixed():
            num = -nrm[k] * C[src, k]
            if (num % den).any():
                raise ArithmeticError("non-integral mixed-sign structure constant")
            C[i, n + j], C[n + j, i] = num // den, -(num // den)

        # positive pairs a < b in the order, grouped by sum; the first of each
        # sum is its extraspecial pair (a1, b1), with N_{a1,b1} = r + 1
        place = self.order_index
        a, b = np.nonzero((place[:, None] < place[None, :]) & (sums[:n, :n] >= 0))
        step = np.lexsort((place[a], sums[a, b]))
        a, b = a[step], b[step]
        g = sums[a, b]
        new = np.diff(g, prepend=-1) != 0
        first = np.flatnonzero(new)
        self.extraspecial = {pos[g[f]]: (pos[a[f]], pos[b[f]]) for f in first}
        lead = first[np.cumsum(new) - 1]
        a1, b1 = a[lead], b[lead]
        n1 = down[a1, b1] + 1
        for h in range(2, height.max() + 1):  # every height above 1 is a sum
            mixed()
            s = height[g] == h
            x, y, x1, y1, nx, ny = a[s], b[s], a1[s], b1[s], neg[a[s]], neg[b[s]]
            # N_{a,b} = (a+b, a+b)/(b,b) (N_{b1,-a} N_{b1-a,a1} + N_{-a,a1} N_{a1-a,b1})
            # / N_{a1,b1}; C is zero where a sum is not a root, so an absent
            # term vanishes
            t = C[y1, nx] * C[sums[y1, nx], x1] + C[nx, x1] * C[sums[x1, nx], y1]
            val, rem = np.divmod(nrm[g[s]] * t, nrm[y] * n1[s])
            extra = x == x1
            val[extra] = n1[s][extra]
            for bad, what in ((rem.astype(bool) & ~extra, "non-integral constant"),
                              (np.abs(val) != down[x, y] + 1, "constant magnitude check failed")):
                if bad.any():
                    f = np.flatnonzero(bad)[0]
                    raise ArithmeticError(f"{what} at {pos[x[f]]},{pos[y[f]]}")
            C[x, y], C[y, x], C[nx, ny], C[ny, nx] = val, -val, -val, val
        mixed()
        return C

    def N(self, a: Root, b: Root) -> int:
        """Structure constant N_{a,b}; zero when a+b is not a root."""
        sys = self.system
        return int(self.constants[sys.signed_index(a), sys.signed_index(b)])

    def sparse_bracket(self, x: dict, y: dict) -> dict:
        """Bracket of formal Z-combinations {("x", root) | ("h", i): coeff}."""
        out: dict = {}

        def add(key, c):
            if c:
                out[key] = out.get(key, 0) + c
                if not out[key]:
                    del out[key]

        sys = self.system
        for ka, ca in x.items():
            for kb, cb in y.items():
                if ka[0] == "h" and kb[0] == "h":
                    continue
                if ka[0] == "h":
                    add(kb, ca * cb * sys.pairing(kb[1], ka[1]))
                elif kb[0] == "h":
                    add(ka, -ca * cb * sys.pairing(ka[1], kb[1]))
                else:
                    s = ka[1] + kb[1]
                    if all(v == 0 for v in s.coeffs):
                        for j, cj in enumerate(sys.coroot_coeffs(ka[1])):
                            add(("h", j), ca * cb * cj)
                    elif sys.is_root(s):
                        add(("x", s), ca * cb * self.N(ka[1], kb[1]))
        return out

    def csv_lines(self):
        """Deterministic (alpha, beta, N) dump over positive pairs."""
        yield "alpha,beta,N"
        n, pos = self.n_pos, self.system.positive_roots
        for i, j in zip(*np.nonzero(self.constants[:n, :n])):
            av = " ".join(map(str, pos[i].coeffs))
            bv = " ".join(map(str, pos[j].coeffs))
            yield f"{av},{bv},{self.constants[i, j]}"

    # -- the bracket table ------------------------------------------------------

    def _bracket_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every nonzero Z-form bracket [x_I, x_J] = C x_K of two basis elements.

        Rows (I, J, K, C) sorted by I, then J, then K, with the row offsets of
        each I.  Root with root reads `constants`; x_a with x_{-a} gives the
        coroot h_a; h_l with x_b gives <b, a_l^vee> x_b.
        """
        sys, n, d = self.system, self.n_pos, self.dim
        sums = sys.sum_index
        pos = np.array([r.coeffs for r in sys.positive_roots], dtype=np.int64)
        coroot = np.array([sys.coroot_coeffs(r) for r in sys.positive_roots])
        pairing = np.concatenate([pos, -pos]) @ np.array(sys.cartan).T  # <root k, a_l^vee>
        I, J = np.nonzero(sums >= 0)
        a, l = np.nonzero(coroot)
        k, m = np.nonzero(pairing)
        parts = [
            (I, J, sums[I, J], self.constants[I, J]),
            (a, n + a, 2 * n + l, coroot[a, l]),
            (n + a, a, 2 * n + l, -coroot[a, l]),
            (2 * n + m, k, k, pairing[k, m]),
            (k, 2 * n + m, k, -pairing[k, m]),
        ]
        table = np.concatenate([np.stack(part, axis=1) for part in parts])
        table = table[np.lexsort(table[:, 2::-1].T)]
        return table, np.searchsorted(table[:, 0], np.arange(d + 1))

    def ad_matrix(self, idx: int) -> np.ndarray:
        """ad of the idx-th basis element on the g-basis, over Z (columns act)."""
        _, J, K, C = self.brackets[self._bracket_rows[idx] : self._bracket_rows[idx + 1]].T
        M = np.zeros((self.dim, self.dim), dtype=np.int64)
        M[K, J] = C
        return M

    # -- per-field data ----------------------------------------------------------

    def field_data(self, field: GF) -> np.ndarray:
        """ad of every basis element mod p: an int16 (dim, dim, dim) stack whose
        entry [I, K, J] is the x_K-coefficient of [x_I, x_J].  Built once per p
        from the bracket table; an extension field reads the same stack, since
        F_p is encoded as itself."""
        if field.p not in self._field_cache:
            stack = np.zeros((self.dim,) * 3, dtype=np.int16)
            I, J, K, C = self.brackets.T
            stack[I, K, J] = C % field.p
            self._field_cache[field.p] = stack
        return self._field_cache[field.p]

    @lru_cache(maxsize=None)
    def lie_generators(self, p: int) -> np.ndarray:
        """x_{+-alpha_i} if they generate g mod p, else every basis element: a
        derivation of g mod p that kills these is zero.

        A walk over the bracket table: [x_I, x_J] = C x_K with x_I among
        x_{+-alpha_i}, x_J reached and C nonzero mod p reaches x_K.  Such a
        bracket is a multiple of one basis element, so the elements reached
        span the subalgebra that x_{+-alpha_i} generate."""
        gens = [self.system.signed_index(b) for a in self.system.simple_roots for b in (a, -a)]
        I, J, K, C = self.brackets.T
        live = np.isin(I, gens) & (C % p != 0)
        J, K = J[live], K[live]
        reached = np.zeros(self.dim, dtype=bool)
        reached[gens] = True
        while not reached[K[reached[J]]].all():
            reached[K[reached[J]]] = True
        return np.array(gens) if reached.all() else np.arange(self.dim)

    def ad_of(self, field: GF, vecs: np.ndarray, scope: str = "g") -> np.ndarray:
        """ad(x) over the field for x in scope coordinates ("g" or "u").

        One vector gives one (d, d) matrix; a stack (..., d) gives (..., d, d).
        Only the stack rows of the basis elements in the support are read.
        """
        d = self.dim if scope == "g" else self.n_pos
        flat = vecs.reshape(-1, d)
        support = np.flatnonzero(flat.any(axis=0))
        if not len(support):
            return field.zeros(vecs.shape[:-1] + (d, d))
        rows = self.field_data(field)[support, :d, :d].reshape(len(support), d * d)
        return field.matmul(flat[:, support], rows).reshape(vecs.shape[:-1] + (d, d))

    # -- divided-power exponentials ------------------------------------------------

    def exp_terms(self, root: Root) -> list[np.ndarray]:
        """Integer matrices ad(x_root)^k / k!, k = 0, 1, ... until zero."""
        idx = self.system.signed_index(root)
        if idx in self._exp_cache:
            return self._exp_cache[idx]
        M = self.ad_matrix(idx)
        terms = [np.eye(self.dim, dtype=np.int64)]
        Mk = np.eye(self.dim, dtype=np.int64)
        k = 1
        while True:
            Mk = Mk @ M
            if not Mk.any():
                break
            f = math.factorial(k)
            if (Mk % f).any():
                raise ArithmeticError("non-integral divided power in the Z-form")
            terms.append(Mk // f)
            k += 1
            if k > 2 * self.dim:
                raise ArithmeticError("ad(x_root) is not nilpotent")
        self._exp_cache[idx] = terms
        return terms


@lru_cache(maxsize=None)
def build_constants(system: RootSystem, order: RootOrder | None = None) -> ChevalleyBasis:
    return ChevalleyBasis(system, order)


# -- Lie vectors over a field ------------------------------------------------


@dataclass
class LieVector:
    basis: ChevalleyBasis
    field: GF
    scope: str  # "u" or "g"
    coeffs: np.ndarray

    def __post_init__(self):
        want = self.basis.n_pos if self.scope == "u" else self.basis.dim
        assert len(self.coeffs) == want, "coefficient length does not match scope"

    def _check(self, other: "LieVector"):
        if self.field is not other.field or self.scope != other.scope:
            raise ValueError("field or basis scope mismatch")

    def bracket(self, other: "LieVector") -> "LieVector":
        self._check(other)
        ad = self.basis.ad_of(self.field, self.coeffs, self.scope)
        out = self.field.matmul(ad, other.coeffs[:, None])[:, 0]
        return LieVector(self.basis, self.field, self.scope, out)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def as_g(self) -> "LieVector":
        if self.scope == "g":
            return self
        coeffs = np.zeros(self.basis.dim, dtype=self.coeffs.dtype)
        coeffs[: self.basis.n_pos] = self.coeffs
        return LieVector(self.basis, self.field, "g", coeffs)


def p_power(x: LieVector) -> LieVector:
    """The unique y with ad(y) = ad(x)^p, solved in the scope of x.

    Rejects (ArithmeticError) when the solution fails to exist or to be
    unique, which signals a characteristic outside the supported range.
    """
    basis, gf = x.basis, x.field
    xg = x.as_g()
    P = gf.matpow(basis.ad_of(gf, xg.coeffs, "g"), gf.p)
    k = len(x.coeffs)
    M = basis.field_data(gf)[:k].reshape(k, -1).T
    rhs = P.reshape(-1)
    sol = gf.solve_affine(M, rhs)
    if sol is None:
        raise ArithmeticError("ad(y) = ad(x)^p has no solution in this scope")
    y, kernel = sol
    if len(kernel):
        raise ArithmeticError("adjoint representation is not faithful on this scope")
    return LieVector(basis, gf, x.scope, y)


# -- group generators -----------------------------------------------------------


@dataclass
class GroupGenerator:
    """A root-group element, cocharacter value, or Weyl representative.

    `matrix` is the action on the g-basis (columns transform); apply to row
    matrices with gen.apply_rows.
    """

    kind: str
    label: tuple
    field: GF
    matrix: np.ndarray

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        return self.field.matmul(self.matrix, v[:, None])[:, 0]

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.field.matmul(rows, self.matrix.T.copy())

    def then(self, other: "GroupGenerator") -> "GroupGenerator":
        """Composite acting as `other` after `self`."""
        return GroupGenerator(
            "product",
            (other.label, self.label),
            self.field,
            self.field.matmul(other.matrix, self.matrix),
        )


def root_group_element(
    basis: ChevalleyBasis, field: GF, alpha: Root, t: int
) -> GroupGenerator:
    """x_alpha(t): the mod-p image of the Z-form exponential of t ad(x_alpha)."""
    terms = basis.exp_terms(alpha)
    M = field.zeros((basis.dim, basis.dim))
    tk = 1  # t^k
    for k, term in enumerate(terms):
        if k:
            tk = field.mul(tk, t)
        M = field.add(M, field.mul(int(tk), (term % field.p).astype(np.int16)))
    return GroupGenerator("root_group", (alpha.coeffs, t), field, M)


def cocharacter_element(
    basis: ChevalleyBasis, field: GF, i: int, lam: int
) -> GroupGenerator:
    """alpha_i^vee(lam) acting diagonally; i is a 1-based simple index."""
    if lam == 0:
        raise ValueError("cocharacter values must be nonzero")
    # ad(h_i) is diagonal: <root, alpha_i^vee> on each x_root, 0 on the h's
    weights = np.diagonal(basis.ad_matrix(2 * basis.n_pos + i - 1))
    M = np.diag([field.power(lam, int(e) % (field.q - 1)) for e in weights]).astype(np.int16)
    return GroupGenerator("cocharacter", (i, lam), field, M)


@lru_cache(maxsize=None)
def weyl_rep_element(basis: ChevalleyBasis, field: GF, i: int) -> GroupGenerator:
    """The representative x_i(1) x_{-i}(-1) x_i(1) of the simple reflection."""
    a = basis.system.simple_roots[i - 1]
    one = root_group_element(basis, field, a, 1)
    minus = root_group_element(basis, field, -a, field.NEG[1])
    g = one.then(minus).then(one)
    g.matrix.flags.writeable = False  # cached: one matrix for every caller
    return GroupGenerator("weyl_rep", (i,), field, g.matrix)


def weyl_word_element(basis: ChevalleyBasis, field: GF, word: WeylWord) -> GroupGenerator:
    """Representative of a Weyl word (first letter applied last)."""
    M = field.eye(basis.dim)
    g = GroupGenerator("weyl_word", (word.letters,), field, M)
    for i in reversed(word.letters):
        g = g.then(weyl_rep_element(basis, field, i))
    return GroupGenerator("weyl_word", (word.letters,), field, g.matrix)
