"""Chevalley-basis arithmetic over Z and its reductions to prime fields.

The structure constants N_{a,b} are produced from a total root order that
respects addition: for each non-simple positive root the pair (a1, b1) with
a1 + b1 = gamma and a1 minimal is the extraspecial pair and gets
N_{a1,b1} = +(r+1); every other sign follows from the Jacobi identity and
the standard triangle relation N_{a,b}/(c,c) = N_{b,c}/(a,a) for
a + b + c = 0.  `ChevalleyBasis.constants` holds every N_{a,b} over the
signed roots, derived once with numpy from `RootSystem.sum_index` one height
of sums at a time.  All derived constants are checked to be
integers of absolute value r+1, and the test suite verifies the Jacobi
identity over Z.

Every nonzero bracket of two basis elements, [x_I, x_J] = C x_K, is one row
(I, J, K, C) of the integer table `ChevalleyBasis.brackets`, built once per
basis from `sum_index` and `constants`: root with root, x_a with x_{-a} (the
coroot h_a) and h with a root.  E8 has 16,694 rows.  `ad_matrix` is one
slice of it over Z.  `ad_of` reads the rows directly: on a scope of
dimension d, ad(x) is x times the matrix with entry C mod p at
(I, K * d + J), taken as one `GF.sparse_matmul` over the table's own rows,
so a vector of u reads only the rows with I in u.  No dense
(dim, dim, dim) ad stack is built here.  The references the tests compare
the table with are in `tests/oracles.py`: a bracket by `Root` arithmetic,
`sparse_bracket`, and the dense stack mod p, `ad_stack`.

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
from .orders import RootOrder
from .rootsys import Root, RootSystem


class ChevalleyBasis:
    """Structure constants and the Z-form bracket for one root system.

    Basis layout: x_a for positive roots a (storage order of the system),
    then x_{-a}, then h_1..h_rank; x_root is basis element
    `RootSystem.signed_index(root)`.  The root order has no default;
    `get_setting` picks it.
    """

    def __init__(self, system: RootSystem, order: RootOrder):
        self.system = system
        if not order.respects_addition(system):
            raise ValueError("root order does not respect addition of positive roots")
        ascending = [system.index(r) for r in order.sorted_roots(system)]
        self.order_index = np.argsort(ascending)  # place of each positive root, ascending
        self.n_pos = system.num_positive
        self.dim = 2 * self.n_pos + system.rank
        self.constants = self._constants()
        self.brackets, self._bracket_rows = self._bracket_table()

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
        """ad(x) over the field on the scope ("g" or "u"), as int16 matrices
        (columns act).

        x has n_pos coordinates (x in u) or, in scope "g", dim coordinates.
        One vector gives one (d, d) matrix; a stack (..., len) gives
        (..., d, d), for d the dimension of the scope.  Entry [K, J] is the
        x_K-coefficient of [x, x_J], gathered from the bracket rows by
        `GF.sparse_matmul` (`_ad_layers`).
        """
        d = self.dim if scope == "g" else self.n_pos
        length, lengths = vecs.shape[-1], sorted({self.n_pos, d})
        if length not in lengths:
            raise ValueError(
                f"ad on {scope} takes vectors of length {' or '.join(map(str, lengths))}, not {length}"
            )
        ad = field.sparse_matmul(vecs, self._ad_layers(field.p, length, d), d * d)
        return ad.astype(np.int16, copy=False).reshape(vecs.shape[:-1] + (d, d))

    @lru_cache(maxsize=None)
    def _ad_layers(self, p: int, length: int, d: int) -> list[tuple]:
        """`GF.entry_layers` of the (length, d * d) matrix whose entry
        (I, K * d + J) is C mod p for each bracket row [x_I, x_J] = C x_K
        with I < length and J, K < d.  F_p and every F_{p^r} read the same layers, since
        F_p is encoded as itself.  The u-rows give one layer: a column
        (K, J) fixes the weight of x_I, and a root's weight fixes the root."""
        I, J, K, C = self.brackets.T
        C = C % p
        keep = (I < length) & (J < d) & (K < d) & (C != 0)
        return GF.entry_layers(I[keep], K[keep] * d + J[keep], C[keep].astype(np.int16))

    # -- divided-power exponentials ------------------------------------------------

    @lru_cache(maxsize=None)
    def exp_terms(self, root: Root) -> list[np.ndarray]:
        """Integer matrices ad(x_root)^k / k!, k = 0, 1, ... until zero."""
        M = self.ad_matrix(self.system.signed_index(root))
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
        return terms


@lru_cache(maxsize=None)
def build_constants(system: RootSystem, order: RootOrder) -> ChevalleyBasis:
    return ChevalleyBasis(system, order)


# -- group generators -----------------------------------------------------------


@dataclass
class GroupGenerator:
    """A root-group element, cocharacter value, Weyl representative or Weyl
    word, named by `kind` and `label`.

    `matrix` is the action on the g-basis (columns transform); apply it to
    the rows of a matrix, one vector per row, with gen.apply_rows.
    """

    kind: str
    label: tuple
    field: GF
    matrix: np.ndarray

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.field.matmul(rows, self.matrix.T.copy())


@lru_cache(maxsize=None)
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
    M.flags.writeable = False  # cached: one matrix for every caller
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
    one = root_group_element(basis, field, a, 1).matrix
    minus = root_group_element(basis, field, -a, field.NEG[1]).matrix
    M = field.matmul(one, field.matmul(minus, one))
    M.flags.writeable = False  # cached: one matrix for every caller
    return GroupGenerator("weyl_rep", (i,), field, M)


def weyl_word_element(basis: ChevalleyBasis, field: GF, word: tuple[int, ...]) -> GroupGenerator:
    """Representative of a Weyl word, as in `RootSystem.weyl_words`."""
    M = field.eye(basis.dim)
    for i in word:
        M = field.matmul(M, weyl_rep_element(basis, field, i).matrix)
    return GroupGenerator("weyl_word", (word,), field, M)
