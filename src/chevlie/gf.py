"""Small finite fields F_q (q = p^r, r <= 3) with table-driven numpy arithmetic.

Elements are encoded as integers 0..q-1.  For prime fields the encoding is
the residue itself; for extensions, an element sum_k c_k t^k (0 <= c_k < p)
is encoded as sum_k c_k p^k, where t is a root of a fixed irreducible
polynomial.  The polynomial per (p, r) is pinned in IRREDUCIBLE so that
encodings never change between runs.

All elementwise operations go through q x q lookup tables, which makes them
vectorizable with numpy fancy indexing.  Matrix products use a fast int64
path for prime fields and a table-driven inner loop for extensions.
"""

from __future__ import annotations

import numpy as np

from .rootsys import is_prime

# Coefficients of the pinned irreducible polynomial, constant term first,
# monic of degree r.  Versioned: do not edit entries, only add new ones.
IRREDUCIBLE = {
    (2, 2): (1, 1, 1),        # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),     # t^3 + t + 1
    (3, 2): (1, 0, 1),        # t^2 + 1
    (3, 3): (1, 2, 0, 1),     # t^3 + 2t + 1
    (5, 2): (3, 0, 1),        # t^2 + 3  (= t^2 - 2)
    (5, 3): (2, 4, 0, 1),     # t^3 + 4t + 2
    (7, 2): (1, 0, 1),        # t^2 + 1
    (7, 3): (2, 0, 0, 1),     # t^3 + 2
}

_CACHE: dict[tuple[int, int], "GF"] = {}


def _poly_mulmod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    r = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(r):
                prod[k - r + j] = (prod[k - r + j] - c * mod[j]) % p
    out = prod[:r]
    out += [0] * (r - len(out))
    return out


class GF:
    """The field with q = p^degree elements; use GF.get() for the cached instance."""

    def __init__(self, p: int, degree: int = 1):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        if degree < 1:
            raise ValueError(f"field degree {degree} is not positive")
        if degree > 1 and (p, degree) not in IRREDUCIBLE:
            raise ValueError(f"no pinned irreducible polynomial for F_{p}^{degree}")
        self.p = p
        self.degree = degree
        self.q = p**degree
        q = self.q
        if degree == 1:
            add = (np.arange(q)[:, None] + np.arange(q)[None, :]) % p
            mul = (np.arange(q)[:, None] * np.arange(q)[None, :]) % p
        else:
            mod = IRREDUCIBLE[(p, degree)]
            dig = [[(e // p**k) % p for k in range(degree)] for e in range(q)]
            enc = lambda cs: sum(c * p**k for k, c in enumerate(cs))
            add = np.zeros((q, q), dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(q):
                    add[a, b] = enc([(x + y) % p for x, y in zip(dig[a], dig[b])])
                    mul[a, b] = enc(_poly_mulmod(dig[a], dig[b], mod, p))
        self.ADD = add.astype(np.int16)
        self.MUL = mul.astype(np.int16)
        neg = np.zeros(q, dtype=np.int16)
        inv = np.zeros(q, dtype=np.int16)
        for a in range(q):
            neg[a] = int(np.nonzero(add[a] == 0)[0][0])
            if a:
                inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
        self.NEG = neg
        self.INV = inv
        self.SUB = self.ADD[:, self.NEG]

    @staticmethod
    def get(p: int, degree: int = 1) -> "GF":
        key = (p, degree)
        if key not in _CACHE:
            _CACHE[key] = GF(p, degree)
        return _CACHE[key]

    def __repr__(self):
        return f"GF({self.p}^{self.degree})" if self.degree > 1 else f"GF({self.p})"

    # -- scalar helpers ----------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def power(self, a: int, n: int) -> int:
        out, base = 1, a
        n = n % (self.q - 1) if (a and n < 0) else n
        if n < 0:
            raise ZeroDivisionError("negative power of zero")
        while n:
            if n & 1:
                out = int(self.MUL[out, base])
            base = int(self.MUL[base, base])
            n >>= 1
        return out

    def generators(self) -> tuple[list[int], int]:
        """The F_p-basis 1, t, ..., t^(r-1) of F_q (encoded p^k) and the least
        primitive element of F_q^x (1 when q = 2)."""
        order = lambda x: next(k for k in range(1, self.q) if self.power(x, k) == 1)
        lam0 = next(x for x in self.units() if order(x) == self.q - 1)
        return [self.p**k for k in range(self.degree)], lam0

    # -- vectorized elementwise ops -----------------------------------------

    def add(self, a, b):
        return self.ADD[a, b]

    def sub(self, a, b):
        return self.SUB[a, b]

    def mul(self, a, b):
        return self.MUL[a, b]

    def neg(self, a):
        return self.NEG[a]

    def inv(self, a):
        return self.INV[a]

    # -- matrices ------------------------------------------------------------

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int16)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int16)

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product; supports batched stacks on either argument."""
        if self.degree == 1:
            return (A.astype(np.int64) @ B.astype(np.int64) % self.p).astype(np.int16)
        k = A.shape[-1]
        acc = self.MUL[A[..., 0, None], B[..., 0, :][..., None, :]]
        for i in range(1, k):
            acc = self.ADD[acc, self.MUL[A[..., i, None], B[..., i, :][..., None, :]]]
        return acc

    def rref(self, M: np.ndarray, ncols: int | None = None):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        R = np.array(M, dtype=np.int16)
        m, n = R.shape
        if ncols is None:
            ncols = n
        pivots = []
        r = 0
        for c in range(ncols):
            if r == m:
                break
            rows = np.nonzero(R[r:, c])[0]
            if rows.size == 0:
                continue
            k = r + int(rows[0])
            if k != r:
                R[[r, k]] = R[[k, r]]
            R[r] = self.MUL[int(self.INV[R[r, c]]), R[r]]
            for j in range(m):
                if j != r and R[j, c]:
                    R[j] = self.SUB[R[j], self.MUL[int(R[j, c]), R[r]]]
            pivots.append(c)
            r += 1
        return R, pivots

    def nullspace(self, M: np.ndarray) -> np.ndarray:
        """Rows form a basis of {x : M x = 0}."""
        R, pivots = self.rref(M)
        n = M.shape[1]
        free = [c for c in range(n) if c not in pivots]
        basis = self.zeros((len(free), n))
        for i, fc in enumerate(free):
            basis[i, fc] = 1
            for r, pc in enumerate(pivots):
                basis[i, pc] = self.NEG[R[r, fc]]
        return basis

    def solve_affine(self, A: np.ndarray, b: np.ndarray):
        """Particular solution of A x = b, or None if inconsistent."""
        m, n = A.shape
        aug = np.concatenate([A, np.asarray(b, dtype=np.int16).reshape(m, 1)], axis=1)
        R, pivots = self.rref(aug, ncols=n)
        x = self.zeros(n)
        for r, pc in enumerate(pivots):
            x[pc] = R[r, n]
        # rows beyond the pivot rows must have zero RHS
        for r in range(len(pivots), m):
            if R[r, n]:
                return None
        return x

    def span_points(self, basis: np.ndarray, offset: np.ndarray | None = None):
        """Iterate all points offset + span(basis rows); basis rows independent."""
        k, n = basis.shape
        if offset is None:
            offset = self.zeros(n)
        coeffs = np.array(
            np.meshgrid(*([np.arange(self.q)] * k), indexing="ij")
        ).reshape(k, -1).T.astype(np.int16) if k else self.zeros((1, 0))
        pts = np.broadcast_to(offset, (coeffs.shape[0], n)).copy()
        for i in range(k):
            pts = self.ADD[pts, self.MUL[coeffs[:, i, None], basis[i][None, :]]]
        return pts

    # -- batched echelon (canonical forms for subspaces) ---------------------

    def batch_rref(self, A: np.ndarray) -> np.ndarray:
        """Reduced row echelon form of each matrix in a stack (N, r, n).

        Assumes every matrix has full row rank r (true for images of full-rank
        matrices under invertible maps); raises otherwise.
        """
        A = np.array(A, dtype=np.int16)
        N, r, n = A.shape
        cur = np.zeros(N, dtype=np.int64)  # next pivot row per item
        rows = np.arange(r)
        for c in range(n):
            col = A[:, :, c]
            eligible = (rows[None, :] >= cur[:, None]) & (col != 0)
            has = eligible.any(axis=1)
            idx = np.nonzero(has)[0]
            if idx.size == 0:
                continue
            k = np.argmax(eligible[idx], axis=1)
            # swap row k -> cur within each selected item
            perm = np.broadcast_to(rows, (idx.size, r)).copy()
            perm[np.arange(idx.size), cur[idx]] = k
            perm[np.arange(idx.size), k] = cur[idx]
            A[idx] = A[idx[:, None], perm, :]
            piv = A[idx, cur[idx], :]
            piv = self.MUL[self.INV[piv[:, c], None], piv]
            A[idx, cur[idx], :] = piv
            fac = A[idx, :, c]
            upd = self.SUB[A[idx], self.MUL[fac[:, :, None], piv[:, None, :]]]
            upd[np.arange(idx.size), cur[idx], :] = piv
            A[idx] = upd
            cur[idx] += 1
        if (cur != r).any():
            raise ValueError("rank drop in batch_rref")
        return A
