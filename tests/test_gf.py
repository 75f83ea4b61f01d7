"""Linear algebra over F_q, checked against exhaustive enumeration of F_q^n."""

from itertools import product

import numpy as np
import pytest

from chevlie.gf import GF

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
