"""Linear algebra over F_q, checked against exhaustive enumeration of F_q^n."""

from itertools import product

import numpy as np
import pytest

from chevlie.gf import _MATMUL_PIECE, GF, IRREDUCIBLE
from oracles import matpow

FIELDS = {"F2": (2, 1), "F3": (3, 1), "F5": (5, 1), "F4": (2, 2), "F8": (2, 3),
          "F9": (3, 2), "F25": (5, 2)}


@pytest.fixture(params=list(FIELDS), ids=list(FIELDS))
def gf(request):
    return GF.get(*FIELDS[request.param])


def _vectors(q, n):
    """Every vector of F_q^n, one per row."""
    return np.array(list(product(range(q), repeat=n)), dtype=np.int16).reshape(q**n, n)


def _apply(gf, M, X):
    """M x for every row x of X, using the field tables only."""
    out = gf.zeros((len(X), M.shape[0]))
    for j in range(M.shape[1]):
        out = gf.ADD[out, gf.MUL[X[:, j, None], M[None, :, j]]]
    return out


def _span(gf, rows):
    """Every linear combination of the rows, as byte strings."""
    return {v.tobytes() for v in _apply(gf, rows.T, _vectors(gf.q, len(rows)))}


def _matrices(gf, seed=0):
    """Seeded (m, n) matrices of rank at most k, for several m and k, with n
    small enough that F_q^n can be enumerated."""
    rng = np.random.default_rng(seed + gf.q)
    n = 4 if gf.q <= 9 else 3
    out = []
    for m, k in [(2, 2), (3, 1), (n, n), (n + 1, n - 1), (n, 0), (n - 1, n - 1)]:
        B = rng.integers(0, gf.q, (m, k)).astype(np.int16)
        C = rng.integers(0, gf.q, (k, n)).astype(np.int16)
        M = _apply(gf, C.T, B)  # B C
        if k == n - 1:
            M[:, 1] = 0  # a column without a pivot
        out.append(M)
    return out


def _rank(gf, M):
    return round(np.log(len(_span(gf, M))) / np.log(gf.q))


def test_rref_is_reduced_echelon_with_the_same_row_space(gf):
    for M in _matrices(gf):
        R, pivots = gf.rref(M)
        assert R.shape == M.shape
        assert list(pivots) == sorted(set(pivots))
        assert not R[len(pivots):].any()
        for r, c in enumerate(pivots):
            assert not R[r, :c].any() and R[r, c] == 1
            assert (R[:, c] == np.eye(len(R), dtype=np.int16)[r]).all()
        assert _span(gf, R) == _span(gf, M)


def test_nullspace_is_the_kernel(gf):
    for M in _matrices(gf):
        N = gf.nullspace(M)
        n = M.shape[1]
        assert N.shape == (n - _rank(gf, M), n)
        assert not _apply(gf, M, N).any()  # M N^T = 0
        assert len(_span(gf, N)) == gf.q ** len(N)  # independent rows
        X = _vectors(gf.q, n)
        kernel = {x.tobytes() for x in X[~_apply(gf, M, X).any(axis=1)]}
        assert _span(gf, N) == kernel


def _right_sides(gf, A, rng):
    """A consistent side, a random one, and one outside the column space."""
    m, n = A.shape
    sides = [_apply(gf, A, rng.integers(0, gf.q, (1, n)).astype(np.int16))[0],
             rng.integers(0, gf.q, m).astype(np.int16)]
    columns = _span(gf, A.T)
    outside = next((b for b in product(range(gf.q), repeat=m)
                    if np.array(b, dtype=np.int16).tobytes() not in columns), None)
    if outside is not None:
        sides.append(np.array(outside, dtype=np.int16))
    return sides


def test_solve_affine_matches_exhaustive_solutions(gf):
    rng = np.random.default_rng(gf.q)
    inconsistent = 0
    for A in _matrices(gf):
        X = _vectors(gf.q, A.shape[1])
        images = _apply(gf, A, X)
        for b in _right_sides(gf, A, rng):
            solutions = {x.tobytes() for x in X[(images == b).all(axis=1)]}
            sol = gf.solve_affine(A, b)
            if not solutions:
                assert sol is None
                inconsistent += 1
                continue
            x, kernel = sol
            assert len(_span(gf, kernel)) == gf.q ** len(kernel)
            affine = {v.tobytes() for v in gf.ADD[x[None, :], _apply(gf, kernel.T,
                      _vectors(gf.q, len(kernel)))]}
            assert affine == solutions
    assert inconsistent  # the rank-deficient cases have sides outside the columns


def test_solve_affine_stack_matches_single_systems(gf):
    """One stack of every `_matrices` system with its `_right_sides`, zero rows
    padding A to a common height: consistent, inconsistent and rank-deficient
    items, each equal to the 2-D call and to exhaustive enumeration."""
    rng = np.random.default_rng(gf.q + 1)
    n = _matrices(gf)[0].shape[1]
    m = n + 1
    systems = [(A, b) for A in _matrices(gf) for b in _right_sides(gf, A, rng)]
    A = gf.zeros((len(systems), m, n))
    b = gf.zeros((len(systems), m))
    for i, (Ai, bi) in enumerate(systems):
        A[i, : len(Ai)], b[i, : len(bi)] = Ai, bi
    A0, b0 = A.copy(), b.copy()
    ok, x, pivots, kernel = gf.solve_affine(A, b)
    assert (A == A0).all() and (b == b0).all()
    assert ok.shape == (len(systems),) and x.shape == pivots.shape == (len(systems), n)
    assert kernel.shape == (len(systems), n, n)
    X = _vectors(gf.q, n)
    for i in range(len(systems)):
        solutions = {v.tobytes() for v in X[(_apply(gf, A[i], X) == b[i]).all(axis=1)]}
        single = gf.solve_affine(A[i], b[i])
        assert list(np.flatnonzero(pivots[i])) == gf.rref(A[i])[1]
        assert not kernel[i, pivots[i]].any()
        if not solutions:
            assert not ok[i] and single is None and not x[i].any()
            continue
        assert ok[i]
        basis = kernel[i, ~pivots[i]]
        assert (x[i] == single[0]).all() and (basis == single[1]).all()
        affine = {v.tobytes() for v in gf.ADD[x[i][None, :], _apply(gf, basis.T,
                  _vectors(gf.q, len(basis)))]}
        assert affine == solutions
    assert ok.any() and not ok.all()
    assert len({tuple(row) for row in pivots[ok]}) > 1  # several ranks and pivot sets


def test_span_points_stack_matches_single_calls(gf):
    rng = np.random.default_rng(gf.q + 2)
    n = 4 if gf.q <= 9 else 3
    for k in range(3):
        basis = gf.zeros((3, k, n))
        basis[:, np.arange(k), np.arange(k)] = 1  # independent rows
        basis[:, :, k:] = rng.integers(0, gf.q, (3, k, n - k))
        offset = rng.integers(0, gf.q, (3, n)).astype(np.int16)
        pts = gf.span_points(basis, offset)
        assert pts.shape == (3, gf.q**k, n)
        for B, o, P in zip(basis, offset, pts):
            assert (P == gf.span_points(B, o)).all()
            assert len({v.tobytes() for v in P}) == gf.q**k


def test_batch_rref_matches_rref(gf):
    rng = np.random.default_rng(gf.q)
    n = 4 if gf.q <= 9 else 3
    for m in range(1, n + 1):
        stack = [M for M in rng.integers(0, gf.q, (40, m, n)).astype(np.int16)
                 if len(gf.rref(M)[1]) == m][:8]
        assert stack
        R = gf.batch_rref(np.stack(stack))
        for M, RM in zip(stack, R):
            assert (RM == gf.rref(M)[0]).all()
    deficient = stack[0].copy()
    deficient[-1] = gf.MUL[gf.q - 1, deficient[0]]
    with pytest.raises(ValueError):
        gf.batch_rref(np.stack([stack[1], deficient]))


def _echelon_stack(gf):
    """(N, n + 2, n) items, padded by zero rows: every `_matrices` item (tall,
    rank-deficient, zero, with a column without a pivot), random items, and
    items whose pivot for column 1 lies below the next pivot row."""
    rng = np.random.default_rng(gf.q + 4)
    items = _matrices(gf)
    n = items[0].shape[1]
    m = n + 2
    for _ in range(3):
        M = gf.zeros((m, n))
        M[0, 0] = M[2, 1] = M[1, 2] = 1  # row 1 is zero in column 1: swap rows 1 and 2
        M[0, 1:] = rng.integers(0, gf.q, n - 1)
        M[2, 2:] = rng.integers(0, gf.q, n - 2)
        M[1, 3:] = rng.integers(0, gf.q, n - 3)
        items.append(M)
    items += list(rng.integers(0, gf.q, (8, m, n)).astype(np.int16))
    stack = gf.zeros((len(items), m, n))
    for i, M in enumerate(items):
        stack[i, : len(M)] = M
    return stack


def test_batch_echelon_matches_rref(gf):
    stack = _echelon_stack(gf)
    n = stack.shape[2]
    for ncols in (n - 1, n):  # n - 1: the augmented systems of `solve_affine`
        R = stack.copy()
        rank, pivots = gf._batch_echelon(R, ncols)
        assert rank.shape == (len(stack),) and pivots.shape == (len(stack), ncols)
        for M, RM, k, mask in zip(stack, R, rank, pivots):
            single, piv = gf.rref(M, ncols)
            assert (RM == single).all()
            assert k == len(piv) and list(np.flatnonzero(mask)) == piv
        assert len(set(rank.tolist())) > 2
    assert ((np.cumsum(pivots, axis=1) < rank[:, None]) & ~pivots).any()  # a skipped column


def _check_distinct_rows(X):
    distinct, inverse = GF.distinct_rows(X)
    assert distinct.dtype == X.dtype and distinct.shape[1:] == X.shape[1:]
    assert inverse.shape == (len(X),) and (distinct[inverse] == X).all()
    assert len({row.tobytes() for row in distinct}) == len(distinct)
    return distinct


def test_distinct_rows(gf):
    rng = np.random.default_rng(gf.q + 5)
    rows = rng.integers(0, gf.q, (10, 4)).astype(np.int16)
    X = rows[rng.integers(0, len(rows), 100)]
    distinct = _check_distinct_rows(X)
    assert len(distinct) == len({row.tobytes() for row in X})
    assert len(_check_distinct_rows(X[:0])) == 0


def test_distinct_rows_of_bool_and_zero_width_rows():
    rng = np.random.default_rng(6)
    X = rng.random((50, 3)) < 0.5
    assert len(_check_distinct_rows(X)) == len({row.tobytes() for row in X})
    assert len(_check_distinct_rows(X[:0])) == 0
    assert len(_check_distinct_rows(np.zeros((5, 0), dtype=bool))) == 1  # one empty row
    assert len(_check_distinct_rows(np.zeros((0, 0), dtype=np.int16))) == 0


def _matmul_by_tables(gf, A, B):
    """The product by its definition, sum_l A[i, l] B[l, j] through ADD and
    MUL (`_apply`), over every matrix pair of the broadcast stacks."""
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, batch + A.shape[-2:])
    B = np.broadcast_to(B, batch + B.shape[-2:])
    out = gf.zeros(batch + (A.shape[-2], B.shape[-1]))
    for b in np.ndindex(*batch):
        out[b] = _apply(gf, B[b].T, A[b])
    return out


MATMUL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), *IRREDUCIBLE]
MATMUL_SHAPES = [
    ((3, 4), (4, 5)),                # 2-D
    ((3, 1), (1, 4)),                # k = 1
    ((6, 3, 4), (4, 5)),             # batched on the left
    ((3, 4), (6, 4, 5)),             # batched on the right
    ((2, 1, 3, 4), (1, 3, 4, 2)),    # broadcast (N, 1, m, k) @ (1, M, k, n)
]
# all-(q-1) products whose largest digit sum is just below and just above
# what int16 holds: r k (p-1)^2 < 2^15 exactly when k is the smaller one
MATMUL_BOUND_CASES = [((13, 1), 227), ((13, 1), 228), ((7, 3), 303), ((7, 3), 304)]


@pytest.mark.parametrize("field", MATMUL_FIELDS, ids=[f"F{p}^{r}" for p, r in MATMUL_FIELDS])
def test_matmul_matches_table_definition(field):
    gf = GF.get(*field)
    rng = np.random.default_rng(gf.q)
    cases = [(rng.integers(0, gf.q, a).astype(np.int16), rng.integers(0, gf.q, b).astype(np.int16))
             for a, b in MATMUL_SHAPES]
    cases += [(np.full((2, k), gf.q - 1, dtype=np.int16), np.full((k, 3), gf.q - 1, dtype=np.int16))
              for f, k in MATMUL_BOUND_CASES if f == field]
    # a paired (N, d, d) @ (N, d, d) stack split into several pieces on both sides
    N = _MATMUL_PIECE // (3 * 6 * 6) + 5
    cases.append((rng.integers(0, gf.q, (N, 6, 6)).astype(np.int16),
                  rng.integers(0, gf.q, (N, 6, 6)).astype(np.int16)))
    for A, B in cases:
        A0, B0 = A.copy(), B.copy()
        C = gf.matmul(A, B)
        assert C.dtype == np.int16
        assert (C == _matmul_by_tables(gf, A, B)).all()
        assert (A == A0).all() and (B == B0).all()
    # a left stack longer than a piece against the same rows as one 2-D product
    A = rng.integers(0, gf.q, (_MATMUL_PIECE // 3 + 7, 2, 3)).astype(np.int16)
    B = rng.integers(0, gf.q, (3, 2)).astype(np.int16)
    expected = _apply(gf, B.T, A.reshape(-1, 3)).reshape(A.shape[0], 2, 2)
    assert (gf.matmul(A, B) == expected).all()
    assert (gf.matmul(A.reshape(-1, 3), B) == expected.reshape(-1, 2)).all()


# contraction lengths on both sides of the float32 bound r k (p-1)^2 < 2^24 with
# all-(q-1) factors, and over F13 with 11 * 11 = 121 summed 200,001 times: the
# sum 24,200,121 is odd and above 2^24, so float32 cannot hold it
FLOAT32_BOUND_CASES = [((13, 1), 116508, 12), ((13, 1), 116509, 12),
                       ((7, 3), 155345, 342), ((7, 3), 155346, 342), ((13, 1), 200001, 11)]


@pytest.mark.parametrize("field,k,a", FLOAT32_BOUND_CASES,
                         ids=[f"F{p}^{r}-k{k}" for (p, r), k, _ in FLOAT32_BOUND_CASES])
def test_matmul_past_the_float32_bound(field, k, a):
    gf = GF.get(*field)
    C = gf.matmul(np.full((2, k), a, dtype=np.int16), np.full((k, 3), a, dtype=np.int16))
    # k copies of a * a: (k mod p) * a * a, with F_p encoded as itself
    assert (C == gf.MUL[k % gf.p, gf.MUL[a, a]]).all()


@pytest.mark.parametrize("field", [(2, 1), (5, 1), (13, 1), (5, 2)], ids=["F2", "F5", "F13", "F25"])
def test_matpow_matches_repeated_matmul(field, monkeypatch):
    gf = GF.get(*field)
    rng = np.random.default_rng(gf.q)
    A = rng.integers(0, gf.q, (4, 5, 5)).astype(np.int16)
    A0 = A.copy()
    P = A
    for n in range(1, 14):
        if n > 1:
            P = gf.matmul(P, A)
        Q = matpow(gf, A, n)
        assert Q.shape == A.shape and Q.dtype == np.int16
        assert (Q == P).all(), n
    assert (A == A0).all()
    # square-and-multiply: floor(log2 n) squarings and popcount(n) - 1 products
    calls = []
    matmul = gf.matmul
    monkeypatch.setattr(gf, "matmul", lambda X, Y: calls.append(1) or matmul(X, Y))
    for n, products in [(5, 3), (13, 5)]:
        calls.clear()
        matpow(gf, A, n)
        assert len(calls) == products


@pytest.mark.parametrize("field", MATMUL_FIELDS, ids=[f"F{p}^{r}" for p, r in MATMUL_FIELDS])
def test_gather_products_match_the_table_definition(field):
    # sparse_matmul on the layers of sparse and dense matrices, and
    # take_matmul on paired stacks, against the product by definition; the
    # flat tables are int32 exactly when q^2 - 1 passes int16 (F_{7^3})
    gf = GF.get(*field)
    assert gf.FLAT_MUL.dtype == (np.int32 if gf.q > 181 else np.int16)
    rng = np.random.default_rng(gf.q)
    X = rng.integers(0, gf.q, (7, 3, 6)).astype(np.int16)
    for density in [0.0, 0.2, 0.6, 1.0]:
        M = rng.integers(0, gf.q, (6, 9)).astype(np.int16) * (rng.random((6, 9)) < density)
        layers = GF.layers(M)
        assert sum(len(a) for a, _, _ in layers) == np.count_nonzero(M)
        assert all(len(set(b.tolist())) == len(b) for _, b, _ in layers)
        assert (gf.sparse_matmul(X, layers, 9) == _matmul_by_tables(gf, X, M)).all()
    A = rng.integers(0, gf.q, (5, 4, 3)).astype(np.int16)
    B = rng.integers(0, gf.q, (5, 3, 6)).astype(np.int16)
    assert (gf.take_matmul(A, B) == _matmul_by_tables(gf, A, B)).all()
    full = np.full((2, 2, 2), gf.q - 1, dtype=np.int16)
    assert (gf.take_matmul(full, full) == _matmul_by_tables(gf, full, full)).all()


@pytest.mark.parametrize("p", [2053, 100003, 10**18 + 3])
def test_fields_past_the_table_bound_are_refused(p, monkeypatch):
    # q >= MAX_Q is refused before any table is allocated, and before the
    # trial division that takes minutes on an 18-digit prime
    for alloc in ("zeros", "arange"):
        monkeypatch.setattr(np, alloc, lambda *a, **k: pytest.fail("allocated a table"))
    with pytest.raises(ValueError, match=f"q = {p} is too large"):
        GF(p)
