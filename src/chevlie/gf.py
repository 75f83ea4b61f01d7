"""Small finite fields F_q (q = p^r, r <= 3) with table-driven numpy arithmetic.

Elements are encoded as integers 0..q-1.  For prime fields the encoding is
the residue itself; for extensions, an element sum_k c_k t^k (0 <= c_k < p)
is encoded as sum_k c_k p^k, where t is a root of a fixed irreducible
polynomial.  The polynomial per (p, r) is pinned in IRREDUCIBLE so that
encodings never change between runs.

All elementwise operations go through q x q lookup tables, which makes them
vectorizable with numpy fancy indexing.  A matrix product is r integer
products over the base-p digit planes of the encodings (`GF.matmul`),
accumulated in int16 while r k (p-1)^2 < 2^15 for contraction length k.
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
        """Matrix product; supports batched stacks on either argument.

        With A = sum_i A_i t^i over the base-p digit planes A_i of the
        encoding, AB = sum_i A_i (t^i B), and MUL has already reduced each
        t^i B by the irreducible polynomial.  So digit j of AB is
        A_hat @ digit_j(B_hat) mod p, where A_hat concatenates the r digit
        planes of A along the last axis and B_hat stacks B, tB, ...,
        t^(r-1) B along axis -2 (t is encoded as p): r integer products of
        contraction length r*k.  Each entry of such a product is a sum of
        r*k terms of at most (p-1)^2, so it is accumulated in int16 while
        that bound stays below 2^15 and in int64 past it.  The prime field
        is the case r = 1.
        """
        p, r = self.p, self.degree
        k = A.shape[-1]
        dt = np.int16 if r * k * (p - 1) ** 2 < 2**15 else np.int64
        if r == 1:
            out = A.astype(dt, copy=False) @ B.astype(dt, copy=False)
            out %= p
            return out.astype(np.int16, copy=False)
        A_hat = np.concatenate([A // p**i % p for i in range(r)], axis=-1).astype(dt, copy=False)
        tB = [B]
        for _ in range(1, r):
            tB.append(self.MUL[p, tB[-1]])
        B_hat = np.concatenate(tB, axis=-2)
        out = A_hat @ (B_hat % p).astype(dt, copy=False)
        out %= p
        for j in range(1, r):
            prod = A_hat @ (B_hat // p**j % p).astype(dt, copy=False)
            prod %= p
            prod *= p**j
            out += prod
        return out.astype(np.int16, copy=False)

    def matpow(self, A: np.ndarray, n: int) -> np.ndarray:
        """A^n for n >= 1 by square-and-multiply over the bits of n, leading
        bit first: one squaring per further bit and one product per further
        one bit (3 products for n = 5, 5 for n = 13).  A may be a stack."""
        P = A
        for bit in bin(n)[3:]:
            P = self.matmul(P, P)
            if bit == "1":
                P = self.matmul(P, A)
        return P

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

    def _kernel(self, R: np.ndarray, pivots: list[int], n: int) -> np.ndarray:
        """Rows form a basis of {x : R[:, :n] x = 0}, for R reduced echelon
        with `pivots` its pivot columns among the first n."""
        free = np.delete(np.arange(n), pivots)
        basis = self.zeros((len(free), n))
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = self.NEG[R[: len(pivots), free]].T
        return basis

    def nullspace(self, M: np.ndarray) -> np.ndarray:
        """Rows form a basis of {x : M x = 0}."""
        R, pivots = self.rref(M)
        return self._kernel(R, pivots, M.shape[1])

    def solve_affine(self, A: np.ndarray, b: np.ndarray):
        """All solutions of A x = b from one reduction: (x, kernel), where x is
        one solution and the rows of kernel are a basis of {y : A y = 0}, so
        the solutions are x + span(kernel); None if the system is inconsistent."""
        m, n = A.shape
        aug = np.concatenate([A, np.asarray(b, dtype=np.int16).reshape(m, 1)], axis=1)
        R, pivots = self.rref(aug, ncols=n)
        if R[len(pivots) :, n].any():  # a zero row of A with a nonzero right side
            return None
        x = self.zeros(n)
        x[pivots] = R[: len(pivots), n]
        return x, self._kernel(R, pivots, n)

    def span_points(self, basis: np.ndarray, offset: np.ndarray):
        """Iterate all points offset + span(basis rows); basis rows independent."""
        k, n = basis.shape
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
