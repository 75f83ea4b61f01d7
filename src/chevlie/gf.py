"""Small finite fields F_q (q = p^r, r <= 3) with table-driven numpy arithmetic.

Elements are encoded as integers 0..q-1.  For prime fields the encoding is
the residue itself; for extensions, an element sum_k c_k t^k (0 <= c_k < p)
is encoded as sum_k c_k p^k, where t is a root of a fixed irreducible
polynomial.  The polynomial per (p, r) is pinned in IRREDUCIBLE so that
encodings never change between runs.

All elementwise operations go through q x q lookup tables, which makes them
vectorizable with numpy fancy indexing.  `GF` refuses q >= `MAX_Q` = 2^11
before it builds any table: the tables hold int16 entries below q, and at
q = 2^11 each holds 4 Mi entries.  A matrix product is r BLAS products
over the base-p digit planes of the encodings (`GF.matmul`), in float32 while
r k (p-1)^2 < 2^24 for contraction length k: every partial sum is then an
integer below 2^24, which float32 holds exactly in any summation order.
A sparse factor (`GF.sparse_matmul`) or a short contraction
(`GF.take_matmul`) is instead one table gather per term, from MUL and ADD
flattened (`FLAT_MUL`, `FLAT_ADD`).  Stacks of linear systems share one
batched elimination (`GF.solve_affine`, `GF.batch_rref`).
`GF.distinct_rows` reduces a stack of rows to its distinct ones, so that
per-row work is done once per distinct row.
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

# every q is below this: see the module docstring
MAX_Q = 1 << 11

# float elements per piece of a `GF.matmul` product (256 KiB of float32)
_MATMUL_PIECE = 1 << 16


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
        # cheap checks first: the pinned degrees keep p**degree small, and the
        # bound keeps is_prime's trial division short
        if degree < 1:
            raise ValueError(f"field degree {degree} is not positive")
        if degree > 1 and (p, degree) not in IRREDUCIBLE:
            raise ValueError(f"no pinned irreducible polynomial for F_{p}^{degree}")
        q = p**degree
        if q >= MAX_Q:
            raise ValueError(f"q = {q} is too large: fields hold q < {MAX_Q}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        self.p = p
        self.degree = degree
        self.q = q
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
        # MUL and ADD read at a * q + b, in a type that holds every index
        wide = np.int16 if q * q < 2**15 else np.int32
        self.FLAT_MUL, self.FLAT_ADD = (t.astype(wide).ravel() for t in (self.MUL, self.ADD))

    @staticmethod
    def get(p: int, degree: int = 1) -> "GF":
        key = (p, degree)
        if key not in _CACHE:
            _CACHE[key] = GF(p, degree)
        return _CACHE[key]

    def __repr__(self):
        return f"GF({self.p}^{self.degree})" if self.degree > 1 else f"GF({self.p})"

    # -- scalar helpers ----------------------------------------------------

    def units(self) -> range:
        return range(1, self.q)

    def power(self, a: int, n: int) -> int:
        """a^n for n >= 0, by repeated squaring."""
        out, base = 1, a
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
        t^(r-1) B along axis -2 (t is encoded as p): r products of
        contraction length r*k.  Each entry of such a product is a sum of
        r*k terms of at most (p-1)^2, so while r*k*(p-1)^2 < 2^24 every
        partial sum is an integer that float32 represents exactly, whatever
        order BLAS adds in; past that bound the product is taken in float64.
        The planes are gathered from a float table of the digits.
        The float result is cast to an integer type before the reduction
        mod p.  The leading output axis (the rows of A for a plain product,
        else the first stack axis) is split so that the float temporaries of
        each piece stay near `_MATMUL_PIECE` elements.  The prime field is
        the case r = 1.
        """
        p, r = self.p, self.degree
        k = A.shape[-1]
        ft, it = (np.float32, np.int32) if r * k * (p - 1) ** 2 < 2**24 else (np.float64, np.int64)
        nd = max(A.ndim, B.ndim)
        A = A.reshape((1,) * (nd - A.ndim) + A.shape)
        B = B.reshape((1,) * (nd - B.ndim) + B.shape)
        out = self.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1]))
        lead = len(out)
        split_B = nd > 2 and len(B) == lead > 1
        if r > 1:  # digit i of every element
            digits = (np.arange(self.q) // p ** np.arange(r)[:, None] % p).astype(ft)

        def planes_A(X):  # A_hat
            if r == 1:
                return X.astype(ft)
            return np.concatenate([digits[i].take(X) for i in range(r)], axis=-1)

        def planes_B(X):  # the r digit planes of B_hat
            if r == 1:
                return [X.astype(ft)]
            tX = [X]
            for _ in range(1, r):
                tX.append(self.MUL[p, tX[-1]])
            X_hat = np.concatenate(tX, axis=-2)
            return [digits[j].take(X_hat) for j in range(r)]

        A_all = None if len(A) == lead > 1 else planes_A(A)
        B_all = None if split_B else planes_B(B)
        unit = out[:1].size + r * A[:1].size * (A_all is None) + r * r * B[:1].size * split_B
        step = max(1, _MATMUL_PIECE // max(unit, 1))
        for lo in range(0, lead, step):
            Ah = planes_A(A[lo : lo + step]) if A_all is None else A_all
            Bh = planes_B(B[lo : lo + step]) if B_all is None else B_all
            acc = (Ah @ Bh[0]).astype(it)
            acc %= p
            for j in range(1, r):
                digit = (Ah @ Bh[j]).astype(it)
                digit %= p
                digit *= p**j
                acc += digit
            out[lo : lo + step] = acc
        return out

    @staticmethod
    def layers(M: np.ndarray) -> list[tuple]:
        """The nonzero entries of a matrix as `entry_layers`."""
        a, b = np.nonzero(M)
        return GF.entry_layers(a, b, M[a, b])

    @staticmethod
    def entry_layers(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[tuple]:
        """Entries M[a, b] = c of a matrix for `sparse_matmul`, in layers
        (a, b, c): layer l holds the l-th entry of each column b."""
        order = np.argsort(b)
        a, b, c = a[order], b[order], c[order]
        k = np.arange(len(b)) - np.searchsorted(b, b)  # place within column b
        return [(a[k == l], b[k == l], c[k == l]) for l in range(k.max(initial=-1) + 1)]

    def sparse_matmul(self, X: np.ndarray, layers, width: int) -> np.ndarray:
        """X @ M for M of `width` columns given by its `layers`: a gather
        from `FLAT_MUL` per nonzero entry, and one from `FLAT_ADD` per entry
        past the first of its column.  The result has the type of the tables."""
        Xq = X.astype(self.FLAT_MUL.dtype) * self.q
        out = np.zeros(X.shape[:-1] + (width,), dtype=Xq.dtype)
        for l, (a, b, c) in enumerate(layers):
            term = self.FLAT_MUL.take(Xq[..., a] + c)
            out[..., b] = self.FLAT_ADD.take(out[..., b] * self.q + term) if l else term
        return out

    def take_matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B for stacks (..., m, k) and (..., k, n) with a short k: k
        terms gathered from the flat tables, no float planes.  The result
        has the type of the tables."""
        Bq = B.astype(self.FLAT_MUL.dtype) * self.q
        out = self.FLAT_MUL.take(Bq[..., None, 0, :] + A[..., 0, None])
        for k in range(1, A.shape[-1]):
            out *= self.q
            out += self.FLAT_MUL.take(Bq[..., None, k, :] + A[..., k, None])
            out = self.FLAT_ADD.take(out)
        return out

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
        return self.solve_affine(M, self.zeros(len(M)))[1]

    def solve_affine(self, A: np.ndarray, b: np.ndarray):
        """All solutions of A x = b from one reduction.

        One system, A (m, n) and b (m,): (x, kernel), where x is one solution
        and the rows of kernel are a basis of {y : A y = 0}, so the solutions
        are x + span(kernel); None if the system is inconsistent.

        A stack, A (N, m, n) and b (N, m), is reduced in one batched pass
        (`_batch_echelon`) and gives arrays (ok, x, pivots, kernel): ok (N,)
        marks the consistent systems, x (N, n) holds one solution of each
        (zero where inconsistent), pivots (N, n) marks the pivot columns, and
        row c of kernel (N, n, n) is, for each free column c, the kernel
        vector with 1 at c and 0 at the other free columns (zero at pivot
        columns).  The solutions of system i are x[i] + span(kernel[i, ~pivots[i]]).
        """
        if A.ndim == 2:
            ok, x, pivots, kernel = self.solve_affine(A[None], np.asarray(b)[None])
            return (x[0], kernel[0, ~pivots[0]]) if ok[0] else None
        N, m, n = A.shape
        aug = np.concatenate([A, np.asarray(b).reshape(N, m, 1)], axis=2).astype(np.int16)
        aug = aug[:, aug.any(axis=(0, 2))]  # equations that vanish in every system hold
        rank, pivots = self._batch_echelon(aug, n)
        # a row below the rank is zero in A; its right side must be zero too
        ok = ~((np.arange(aug.shape[1]) >= rank[:, None]) & (aug[:, :, n] != 0)).any(axis=1)
        items, cols = np.nonzero(pivots)
        rows = (np.cumsum(pivots, axis=1) - 1)[items, cols]  # pivot row of each pivot
        x = self.zeros((N, n))
        x[items, cols] = aug[items, rows, n]
        x[~ok] = 0
        kernel = self.zeros((N, n, n))
        kernel[items, :, cols] = self.NEG[aug[items, rows, :n]]
        kernel[pivots] = 0
        diag = np.arange(n)
        kernel[:, diag, diag] = ~pivots
        return ok, x, pivots, kernel

    @staticmethod
    def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of a 2-D array, and for each row of X the index
        of its row among them, so that distinct[inverse] == X.  Each row is
        viewed as one fixed-width `np.void` item, which one `np.unique`
        sorts by memcmp; rows of width zero are all the one empty row."""
        X = np.ascontiguousarray(X)
        if X.shape[1] == 0:
            return X[: min(len(X), 1)], np.zeros(len(X), dtype=np.intp)
        items = X.view(np.dtype((np.void, X.shape[1] * X.itemsize))).ravel()
        _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
        return X[first], inverse

    def span_points(self, basis: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """All q^k points offset + span(basis rows), for independent rows: a
        (k, n) basis and an (n,) offset give (q^k, n); stacks (..., k, n) and
        (..., n) give (..., q^k, n), in the same coefficient order."""
        k, n = basis.shape[-2:]
        coeffs = np.array(
            np.meshgrid(*([np.arange(self.q)] * k), indexing="ij")
        ).reshape(k, -1).T.astype(np.int16) if k else self.zeros((1, 0))
        offset = np.asarray(offset)[..., None, :]
        pts = np.broadcast_to(offset, offset.shape[:-2] + (len(coeffs), n)).copy()
        for i in range(k):
            pts = self.ADD[pts, self.MUL[coeffs[:, i, None], basis[..., i, None, :]]]
        return pts

    # -- batched echelon (canonical forms for subspaces, stacked systems) ------

    def _batch_echelon(self, A: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
        """Reduce each matrix of an int16 stack (N, m, n) in place to reduced
        row echelon form over its first ncols columns.  Returns the rank of
        each item (N,) and its pivot columns as a mask (N, ncols).

        For each column c only the items with a pivot there are touched: the
        pivot row is swapped into place only in the items where it is not
        there already, and only the rows with a nonzero entry in column c are
        rewritten, on columns c: alone, since the pivot row is zero left of c."""
        N, m, n = A.shape
        cur = np.zeros(N, dtype=np.int64)  # next pivot row per item
        pivots = np.zeros((N, ncols), dtype=bool)
        rows = np.arange(m)
        for c in range(ncols):
            eligible = (rows[None, :] >= cur[:, None]) & (A[:, :, c] != 0)
            idx = np.flatnonzero(eligible.any(axis=1))
            if idx.size == 0:
                continue
            k = np.argmax(eligible[idx], axis=1)
            r = cur[idx]
            swap = k != r  # items whose pivot row is below row cur
            if swap.any():
                i, a, b = idx[swap], r[swap], k[swap]
                A[i, a], A[i, b] = A[i, b], A[i, a]
            piv = A[idx, r, c:]
            piv = self.MUL[self.INV[piv[:, 0], None], piv]
            A[idx, r, c:] = piv
            fac = A[idx, :, c]
            fac[np.arange(idx.size), r] = 0
            ii, rr = np.nonzero(fac)  # the other rows with a nonzero entry in column c
            it = idx[ii]
            A[it, rr, c:] = self.SUB[A[it, rr, c:], self.MUL[fac[ii, rr, None], piv[ii]]]
            pivots[idx, c] = True
            cur[idx] += 1
        return cur, pivots

    def batch_rref(self, A: np.ndarray) -> np.ndarray:
        """Reduced row echelon form of each matrix in a stack (N, r, n).

        Assumes every matrix has full row rank r (true for images of full-rank
        matrices under invertible maps); raises otherwise.
        """
        A = np.array(A, dtype=np.int16)
        rank, _ = self._batch_echelon(A, A.shape[2])
        if (rank != A.shape[1]).any():
            raise ValueError("rank drop in batch_rref")
        return A
