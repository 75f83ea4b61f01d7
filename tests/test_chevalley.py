"""Structure constants, brackets, p-powers, and group generator actions."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chevlie.gf import GF, IRREDUCIBLE
from chevlie.golden import TABLE1_RANKS
from chevlie.orders import RootOrder, canonical_order, default_order
from chevlie.rootsys import EuclidModel, Root, WeylWord, build_root_system
from chevlie.chevalley import (
    LieVector,
    build_constants,
    cocharacter_element,
    p_power,
    root_group_element,
    weyl_rep_element,
    weyl_word_element,
)


def constants(t, n, canonical=True):
    sys_ = build_root_system(t, n)
    order = canonical_order(t, n) if canonical else default_order(sys_)
    return sys_, build_constants(sys_, order)


def test_rejects_bad_order():
    class Parity(RootOrder):
        # parity of a coefficient is not additive, so this is not a legal order
        def key(self, root):
            return (root.coeffs[1] % 2,) + root.coeffs

    sys_ = build_root_system("B", 2)
    bad = Parity(())
    assert not bad.respects_addition(sys_)
    with pytest.raises(ValueError, match="respect addition"):
        build_constants(sys_, bad)


@pytest.mark.parametrize("height", [5, 15, 20])
def test_rejects_swapped_e8_order(height):
    # swapping the first and last roots of one height keeps heights in order
    # but not addition; a sample of 10,000 root triples misses it
    e8 = build_root_system("E", 8)
    base = default_order(e8)
    same_height = [r for r in base.sorted_roots(e8) if r.height == height]
    swap = {same_height[0]: same_height[-1], same_height[-1]: same_height[0]}

    class Swapped(RootOrder):
        def key(self, root):
            return base.key(swap.get(root, root))

    bad = Swapped(())
    assert not bad.respects_addition(e8)
    with pytest.raises(ValueError, match="respect addition"):
        build_constants(e8, bad)


@pytest.mark.parametrize("t,n", [("E", 6), ("E", 7), ("E", 8), ("F", 4)])
def test_default_orders_respect_addition(t, n):
    sys_ = build_root_system(t, n)
    assert default_order(sys_).respects_addition(sys_)


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_bracket_table_matches_root_arithmetic(t, n):
    """Column j of ad_matrix(i) is [x_i, x_j] as `sparse_bracket` computes it
    with `Root` arithmetic, for every pair of basis elements; `sum_index` is
    root addition on every pair of signed roots."""
    sys_ = build_root_system(t, n)
    try:
        order = canonical_order(t, n)
    except ValueError:
        order = default_order(sys_)
    cb = build_constants(sys_, order)
    signed = sys_.positive_roots + [-r for r in sys_.positive_roots]
    where = {r: k for k, r in enumerate(signed)}
    sums = np.array([[where.get(a + b, -1) for b in signed] for a in signed])
    assert (sys_.sum_index == sums).all()
    keys = [("x", r) for r in signed] + [("h", j) for j in range(sys_.rank)]
    row = {k: i for i, k in enumerate(keys)}
    for i, x in enumerate(keys):
        want = np.zeros((cb.dim, cb.dim), dtype=np.int64)
        for j, y in enumerate(keys):
            for k, c in cb.sparse_bracket({x: 1}, {y: 1}).items():
                want[row[k], j] = c
        assert (cb.ad_matrix(i) == want).all(), x


def test_e8_setting_memory():
    # the E8 setting keeps one int16 ad stack (30 MiB); dense int64 copies of
    # ad took the peak to 351 MiB.  The child reports VmHWM, the peak of its
    # own address space: Linux carries ru_maxrss across exec, so that would
    # report the peak of this test process instead.
    script = (
        "from chevlie.elementary import get_setting; get_setting('E', 8, 2); "
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert int(out.stdout) / 1024 < 150  # kB to MiB


@pytest.mark.parametrize("t,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_magnitude_and_antisymmetry(t, n):
    sys_, cb = constants(t, n)
    allroots = sys_.positive_roots + [-r for r in sys_.positive_roots]
    for a in allroots:
        for b in allroots:
            s = a + b
            if not sys_.is_root(s):
                continue
            v = cb.N(a, b)
            r, _ = sys_.root_string(a, b)
            assert abs(v) == r + 1, (a, b)
            assert cb.N(b, a) == -v
            assert cb.N(-a, -b) == -v


def test_extraspecial_positive():
    for t, n in [("A", 4), ("B", 5), ("G", 2), ("D", 5)]:
        sys_ = build_root_system(t, n)
        cb = build_constants(sys_, canonical_order(t, n))
        for gamma, (a1, b1) in cb.extraspecial.items():
            r, _ = sys_.root_string(a1, b1)
            assert cb.N(a1, b1) == r + 1


def _full_jacobi(cb):
    d = cb.dim
    ads = [cb.ad_matrix(i) for i in range(d)]
    for i in range(d):
        Mi = ads[i]
        for j in range(d):
            lhs = np.zeros_like(Mi)
            col = Mi[:, j]
            for k in np.nonzero(col)[0]:
                lhs = lhs + int(col[k]) * ads[k]
            assert (lhs == Mi @ ads[j] - ads[j] @ Mi).all(), (i, j)


@pytest.mark.parametrize("t,n", [("A", 2), ("B", 2), ("G", 2), ("B", 3), ("C", 3), ("A", 3), ("D", 4)])
def test_full_jacobi_small(t, n):
    sys_ = build_root_system(t, n)
    try:
        order = canonical_order(t, n)
    except ValueError:
        order = default_order(sys_)
    _full_jacobi(build_constants(sys_, order))


@pytest.mark.parametrize(
    "t,n",
    [("A", 5), ("B", 5), ("C", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_jacobi_random_triples(t, n):
    """Jacobi over Z on 10^4 random basis triples, h-parts included."""
    sys_ = build_root_system(t, n)
    try:
        order = canonical_order(t, n)
    except ValueError:
        order = default_order(sys_)
    cb = build_constants(sys_, order)
    rng = random.Random(42)
    keys = [("x", r) for r in sys_.positive_roots]
    keys += [("x", -r) for r in sys_.positive_roots]
    keys += [("h", i) for i in range(sys_.rank)]
    for _ in range(10_000):
        a, b, c = (dict([(rng.choice(keys), 1)]) for _ in range(3))
        j1 = cb.sparse_bracket(a, cb.sparse_bracket(b, c))
        j2 = cb.sparse_bracket(b, cb.sparse_bracket(c, a))
        j3 = cb.sparse_bracket(c, cb.sparse_bracket(a, b))
        total = {}
        for part in (j1, j2, j3):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
        assert all(v == 0 for v in total.values())


def test_order_pinned_constants_b_and_d():
    b5 = build_root_system("B", 5)
    cb = build_constants(b5, canonical_order("B", 5))
    em = EuclidModel(b5)
    plus = lambda i, j: em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
    minus = lambda i, j: em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(j))))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert cb.N(plus(i, 5), minus(j, 5)) == 1
            assert cb.N(plus(j, 5), minus(i, 5)) == -1
    d5 = build_root_system("D", 5)
    cd = build_constants(d5, canonical_order("D", 5))
    em = EuclidModel(d5)
    plus = lambda i, j: em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
    minus = lambda i, j: em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(j))))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert cd.N(minus(i, 5), plus(j, 5)) == 1
            assert cd.N(minus(j, 5), plus(i, 5)) == -1


CSV_GOLDEN = {
    ("A", 2): "alpha,beta,N\n1 0,0 1,-1\n0 1,1 0,1",
    ("B", 2): "alpha,beta,N\n1 0,0 1,1\n0 1,1 0,-1\n0 1,1 1,-2\n1 1,0 1,2",
    ("G", 2): (
        "alpha,beta,N\n1 0,0 1,-1\n1 0,1 1,-2\n1 0,2 1,-3\n0 1,1 0,1\n"
        "0 1,3 1,-1\n1 1,1 0,2\n1 1,2 1,3\n2 1,1 0,3\n2 1,1 1,-3\n3 1,0 1,1"
    ),
}


@pytest.mark.parametrize("key", sorted(CSV_GOLDEN))
def test_csv_dump_golden(key):
    sys_, cb = constants(*key)
    assert "\n".join(cb.csv_lines()) == CSV_GOLDEN[key]


def test_bracket_commute_correspondence():
    # good characteristic: [x_a, x_b] = 0 iff a, b commute
    for t, n, p in [("A", 3, 2), ("B", 3, 3), ("G", 2, 5), ("C", 3, 5)]:
        sys_, cb = constants(t, n)
        gf = GF.get(p)
        for a in sys_.positive_roots:
            for b in sys_.positive_roots:
                if a == b:
                    continue
                va = gf.zeros(sys_.num_positive)
                vb = gf.zeros(sys_.num_positive)
                va[sys_.index(a)] = 1
                vb[sys_.index(b)] = 1
                x = LieVector(cb, gf, "u", va)
                y = LieVector(cb, gf, "u", vb)
                assert x.bracket(y).is_zero() == sys_.commute(a, b)
    # G2 at p = 3 uses the p-commuting predicate instead
    sys_, cb = constants("G", 2)
    gf = GF.get(3)
    for a in sys_.positive_roots:
        for b in sys_.positive_roots:
            if a == b:
                continue
            va = gf.zeros(6)
            vb = gf.zeros(6)
            va[sys_.index(a)] = 1
            vb[sys_.index(b)] = 1
            zero = LieVector(cb, gf, "u", va).bracket(LieVector(cb, gf, "u", vb)).is_zero()
            assert zero == sys_.commute(a, b, p=3)


def test_p_power_examples():
    sys_, cb = constants("A", 2)
    gf = GF.get(2)
    v = LieVector(cb, gf, "u", np.array([1, 1, 0], dtype=np.int16))
    out = p_power(v)
    assert list(np.nonzero(out.coeffs)[0]) == [sys_.index(Root((1, 1)))]
    for i in range(3):
        e = gf.zeros(3)
        e[i] = 1
        assert p_power(LieVector(cb, gf, "u", e)).is_zero()
    # abelian span: p-power is p-semilinear, checked where it is nonzero
    theta = sys_.index(Root((1, 1)))
    for c in range(2):
        w = np.array([1, 1, 0], dtype=np.int16)
        w[theta] = c
        assert (p_power(LieVector(cb, gf, "u", w)).coeffs == out.coeffs).all()


def _natural_model(t, n):
    """Chevalley generator matrices e_i, f_i of the classical natural module."""
    if t == "A":
        N = n + 1
        E = lambda a, b: np.eye(N, dtype=np.int64)[a - 1][:, None] * 0 + _unit(N, a, b)
        e = [_unit(N, i, i + 1) for i in range(1, n + 1)]
        f = [_unit(N, i + 1, i) for i in range(1, n + 1)]
        return N, e, f
    if t == "B":
        N = 2 * n + 1
        sig = lambda a: 2 * n + 2 - a
        X = lambda a, b: _unit(N, a, b) - _unit(N, sig(b), sig(a))
        e = [X(i, i + 1) for i in range(1, n + 1)]
        f = [X(i + 1, i) for i in range(1, n + 1)]
        return N, e, f
    if t == "C":
        N = 2 * n
        sig = lambda a: 2 * n + 1 - a
        eta = lambda a: 1 if a <= n else -1
        X = lambda a, b: _unit(N, a, b) - eta(a) * eta(b) * _unit(N, sig(b), sig(a))
        e = [X(i, i + 1) for i in range(1, n)] + [_unit(N, n, n + 1)]
        f = [X(i + 1, i) for i in range(1, n)] + [_unit(N, n + 1, n)]
        return N, e, f
    if t == "D":
        N = 2 * n
        sig = lambda a: 2 * n + 1 - a
        X = lambda a, b: _unit(N, a, b) - _unit(N, sig(b), sig(a))
        e = [X(i, i + 1) for i in range(1, n)] + [X(n - 1, n + 1)]
        f = [X(i + 1, i) for i in range(1, n)] + [X(n + 1, n - 1)]
        return N, e, f
    raise ValueError(t)


def _unit(N, a, b):
    M = np.zeros((N, N), dtype=np.int64)
    M[a - 1, b - 1] = 1
    return M


def _phi_map(sys_, cb, t, n):
    """Representation of the full root basis in the natural module, over Q.

    Non-simple root vectors are defined through the extraspecial pairs; for
    type B the short-root images pick up halves, which is fine away from
    characteristic two.
    """
    from fractions import Fraction

    N, e, f = _natural_model(t, n)
    frac = lambda M: np.array([[Fraction(int(x)) for x in row] for row in M], dtype=object)
    phi = {}
    for i, a in enumerate(sys_.simple_roots):
        ei, fi = frac(e[i]), frac(f[i])
        # normalize f so that (e, [e,f], f) is an honest sl2-triple: the
        # natural B_n module forces the asymmetric 1/2 split on short roots
        h = ei @ fi - fi @ ei
        he = h @ ei - ei @ h
        ratio = next(
            he[r, c] / ei[r, c]
            for r in range(N)
            for c in range(N)
            if ei[r, c]
        )
        phi[a] = ei
        phi[-a] = fi * (2 / ratio)
    for gamma in sorted(sys_.positive_roots, key=lambda r: r.height):
        if gamma.height == 1:
            continue
        a1, b1 = cb.extraspecial[gamma]
        M = phi[a1] @ phi[b1] - phi[b1] @ phi[a1]
        phi[gamma] = M / Fraction(cb.N(a1, b1))
        M2 = phi[-a1] @ phi[-b1] - phi[-b1] @ phi[-a1]
        phi[-gamma] = M2 / Fraction(cb.N(-a1, -b1))
    return N, phi


def _mod_p(M, p):
    out = np.zeros(M.shape, dtype=np.int64)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            v = M[i, j]
            num, den = v.numerator, v.denominator
            assert den % p, "denominator divisible by p"
            out[i, j] = num * pow(den, -1, p) % p
    return out


@pytest.mark.parametrize("t,n,p", [("A", 3, 2), ("A", 4, 5), ("B", 3, 3), ("B", 4, 5), ("C", 3, 3), ("C", 4, 5), ("D", 4, 3)])
def test_natural_model_homomorphism_and_p_power(t, n, p):
    sys_ = build_root_system(t, n)
    try:
        order = canonical_order(t, n)
    except ValueError:
        order = default_order(sys_)
    cb = build_constants(sys_, order)
    N, phi = _phi_map(sys_, cb, t, n)
    allr = sys_.positive_roots + [-r for r in sys_.positive_roots]
    h = {i: phi[a] @ phi[-a] - phi[-a] @ phi[a] for i, a in enumerate(sys_.simple_roots)}
    zero = np.zeros((N, N), dtype=object)
    for a in allr:
        for b in allr:
            M = phi[a] @ phi[b] - phi[b] @ phi[a]
            s = a + b
            if all(v == 0 for v in s.coeffs):
                want = sum((int(c) * h[j] for j, c in enumerate(sys_.coroot_coeffs(a))), zero)
                assert (M == want).all(), (a, b)
            elif sys_.is_root(s):
                assert (M == cb.N(a, b) * phi[s]).all(), (a, b)
            else:
                assert not M.any(), (a, b)
    # p-power oracle: solved p-power equals the matrix p-th power
    gf = GF.get(p)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.integers(0, p, sys_.num_positive).astype(np.int16)
        y = p_power(LieVector(cb, gf, "u", x))
        mx = _mod_p(sum((int(c) * phi[sys_.root(i)] for i, c in enumerate(x)), zero), p)
        my = _mod_p(sum((int(c) * phi[sys_.root(i)] for i, c in enumerate(y.coeffs)), zero), p)
        assert (np.linalg.matrix_power(mx, p) % p == my).all()


def test_root_group_action_examples():
    sys_, cb = constants("A", 2)
    gf = GF.get(5)
    g = root_group_element(cb, gf, sys_.simple_roots[0], 0)
    assert (g.matrix == gf.eye(cb.dim)).all()
    g = root_group_element(cb, gf, sys_.simple_roots[0], 2)
    v = gf.zeros(cb.dim)
    v[sys_.index(Root((0, 1)))] = 1
    out = g.apply_vec(v)
    Nc = cb.N(sys_.simple_roots[0], Root((0, 1))) % 5
    assert out[sys_.index(Root((1, 1)))] == gf.mul(Nc, 2)


def test_group_generators_respect_bracket():
    for t, n, p in [("G", 2, 5), ("B", 3, 3)]:
        sys_, cb = constants(t, n)
        gf = GF.get(p)
        rng = np.random.default_rng(3)
        gens = [
            root_group_element(cb, gf, sys_.simple_roots[0], 2),
            root_group_element(cb, gf, -sys_.simple_roots[1], 1),
            cocharacter_element(cb, gf, 1, p - 1),
            weyl_rep_element(cb, gf, 2),
        ]
        for g in gens:
            # invertible
            _, piv = gf.rref(g.matrix)
            assert len(piv) == cb.dim
            for _ in range(10):
                x = rng.integers(0, p, cb.dim).astype(np.int16)
                y = rng.integers(0, p, cb.dim).astype(np.int16)
                vx, vy = LieVector(cb, gf, "g", x), LieVector(cb, gf, "g", y)
                lhs = g.apply_vec(vx.bracket(vy).coeffs)
                rhs = LieVector(cb, gf, "g", g.apply_vec(x)).bracket(
                    LieVector(cb, gf, "g", g.apply_vec(y))
                ).coeffs
                assert (lhs == rhs).all()


def test_cocharacter_examples():
    sys_, cb = constants("A", 2)
    gf = GF.get(5)
    co = cocharacter_element(cb, gf, 2, 3)
    v = gf.zeros(cb.dim)
    v[sys_.index(Root((0, 1)))] = 1
    assert co.apply_vec(v)[sys_.index(Root((0, 1)))] == gf.power(3, 2)
    # any scaling ratio of (x_a1, x_a2) is achievable with cocharacters
    ratios = set()
    for l1 in gf.units():
        for l2 in gf.units():
            g = cocharacter_element(cb, gf, 1, l1).then(cocharacter_element(cb, gf, 2, l2))
            s1 = g.matrix[0, 0]
            s2 = g.matrix[1, 1]
            ratios.add(int(gf.mul(s1, gf.inv(s2))))
    assert ratios == set(gf.units())
    # G2: a2vee(c) carries x_{a2} + c^3 x_{3a1+a2} to a multiple of the sum
    sysg, cg = constants("G", 2)
    for c in range(2, 5):
        co = cocharacter_element(cg, gf, 2, c)
        v = gf.zeros(cg.dim)
        v[sysg.index(Root((0, 1)))] = 1
        v[sysg.index(Root((3, 1)))] = gf.power(c, 3)
        out = co.apply_vec(v)
        a, b = out[sysg.index(Root((0, 1)))], out[sysg.index(Root((3, 1)))]
        assert a == b != 0


@pytest.mark.parametrize("t,n,p,r", [("G", 2, 5, 2), ("B", 2, 3, 2), ("A", 2, 2, 3)])
def test_root_groups_and_cocharacters_are_homomorphisms(t, n, p, r):
    # x_a(s) x_a(t) = x_a(s + t) and a^vee(lam) a^vee(mu) = a^vee(lam mu): the
    # reason the F_p-basis and one primitive element generate B(F_q)
    sys_, cb = constants(t, n)
    gf = GF.get(p, r)
    for a in sys_.positive_roots + [-b for b in sys_.positive_roots]:
        x = [root_group_element(cb, gf, a, s).matrix for s in gf.elements()]
        for s in gf.elements():
            for u in gf.elements():
                assert (gf.matmul(x[s], x[u]) == x[gf.add(s, u)]).all()
    for i in range(1, n + 1):
        h = {lam: cocharacter_element(cb, gf, i, lam).matrix for lam in gf.units()}
        for lam in gf.units():
            for mu in gf.units():
                assert (gf.matmul(h[lam], h[mu]) == h[gf.mul(lam, mu)]).all()


@pytest.mark.parametrize(
    "p,r", sorted(IRREDUCIBLE) + [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]
)
def test_field_generators(p, r):
    gf = GF.get(p, r)
    additive, lam0 = gf.generators()
    # F_p-combinations of the basis give every element of F_q
    span = {0}
    for b in additive:
        span = {int(gf.add(x, gf.mul(c, b))) for x in span for c in range(p)}
    assert span == set(gf.elements())
    # lam0 has multiplicative order q - 1: its powers give every unit
    powers, x = [], 1
    for _ in range(gf.q - 1):
        x = int(gf.mul(x, lam0))
        powers.append(x)
    assert powers[-1] == 1 and sorted(powers) == list(gf.units())


def test_weyl_rep_action():
    # s_i x_{a_i} lands on the minus-a_i line
    sys_, cb = constants("B", 3)
    gf = GF.get(5)
    for i in range(1, 4):
        g = weyl_rep_element(cb, gf, i)
        v = gf.zeros(cb.dim)
        v[sys_.index(sys_.simple_roots[i - 1])] = 1
        out = g.apply_vec(v)
        nz = list(np.nonzero(out)[0])
        assert nz == [sys_.signed_index(-sys_.simple_roots[i - 1])]
    # B3: s_3 swaps the eps_i - eps_3 and eps_i + eps_3 lines
    em = EuclidModel(sys_)
    g = weyl_rep_element(cb, gf, 3)
    for i in (1, 2):
        minus = em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(3))))
        plus = em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(3))))
        v = gf.zeros(cb.dim)
        v[sys_.index(minus)] = 1
        nz = list(np.nonzero(g.apply_vec(v))[0])
        assert nz == [sys_.index(plus)]
    # arbitrary reduced words act on lines per the combinatorial action
    rng = random.Random(5)
    for _ in range(20):
        word = WeylWord(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 6))))
        g = weyl_word_element(cb, gf, word)
        for r in sys_.positive_roots:
            v = gf.zeros(cb.dim)
            v[sys_.index(r)] = 1
            nz = list(np.nonzero(g.apply_vec(v))[0])
            assert nz == [sys_.signed_index(sys_.apply_weyl(word, r))]


def test_divided_power_integrality_and_example_4_6():
    sysg, cg = constants("G", 2)
    a1 = sysg.simple_roots[0]
    terms = cg.exp_terms(-a1)  # raises if any divided power is non-integral
    M0 = cg.ad_matrix(sysg.signed_index(-a1))
    assert np.linalg.matrix_power(M0, 3).any()
    M3 = M0 % 3
    assert not (np.linalg.matrix_power(M3, 3) % 3).any()
    exp_M0_mod3 = sum(terms) % 3
    naive = (np.eye(14, dtype=np.int64) + M3 + 2 * np.linalg.matrix_power(M3, 2)) % 3
    assert (exp_M0_mod3 != naive).any()


def test_p_power_rejects_unfaithful_scope():
    # on all of g = sl_3 in characteristic 3 the center makes ad degenerate
    sys_, cb = constants("A", 2)
    gf = GF.get(3)
    x = gf.zeros(cb.dim)
    x[0] = 1
    with pytest.raises(ArithmeticError, match="faithful"):
        p_power(LieVector(cb, gf, "g", x))
    # but the u-scope solve works
    xu = gf.zeros(3)
    xu[0] = 1
    assert p_power(LieVector(cb, gf, "u", xu)).is_zero()
