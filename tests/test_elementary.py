"""Leading terms, exhaustive enumeration, solving, conjugation, orbits."""

import copy
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from chevlie.gf import GF
from chevlie.golden import TABLE1_RANKS
from chevlie.orders import canonical_order, default_order
from chevlie.rootsys import Root, build_root_system
from chevlie.chevalley import (
    build_constants,
    cocharacter_element,
    root_group_element,
    weyl_word_element,
)
from chevlie.chevgroups import class_report
from chevlie.commuting import enumerate_max_commuting
from chevlie.elementary import (
    BudgetExceeded,
    ElementarySubalgebra,
    PointSet,
    Setting,
    borel_generators,
    brute_force_Eu,
    build_leading_term_system,
    canonical,
    check_weyl_order,
    conjugation_reduce,
    g2_normal_forms,
    g_conjugacy_classes,
    get_setting,
    is_elementary,
    keys,
    leading_term_solve,
    lie,
    normalizer_in_g,
    replay_verify,
    solution_subalgebra,
    subalgebra_from_rows,
    weyl_words_all,
    _apply_word_u,
    _closed_orbit_word,
    _fusion_words,
    _generating_set,
    _key_array,
    _moves,
    _pivots,
    _torus_forms,
    _cell,
    _p_nilpotent_mask,
    _pivot_sets,
)
from oracles import (
    ad_stack,
    b_family,
    chevalley_group_generators,
    commute,
    commuting_set,
    direct_sum,
    full_generating_set,
    lt,
    matpow,
    orbit_decompose,
)


# -- orders ---------------------------------------------------------------


@pytest.mark.parametrize(
    "t,n",
    [("A", 2), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 5), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 7), ("G", 2)],
)
def test_canonical_orders_respect_addition(t, n):
    sys_ = build_root_system(t, n)
    assert canonical_order(t, n).respects_addition(sys_)


def test_canonical_order_blocks_B():
    # the displayed block inequalities: eps_r - eps_s > eps_t > eps_i + eps_j
    from chevlie.rootsys import EuclidModel

    b5 = build_root_system("B", 5)
    key = canonical_order("B", 5).key
    em = EuclidModel(b5)
    eps = lambda i: em.to_root(em.eps(i))
    plus = lambda i, j: em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
    minus = lambda i, j: em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(j))))
    for r in range(1, 5):
        for s in range(r + 1, 6):
            for t_ in range(1, 6):
                assert key(minus(r, s)) > key(eps(t_))
    for t_ in range(1, 6):
        for i in range(1, 5):
            for j in range(i + 1, 6):
                assert key(eps(t_)) > key(plus(i, j))
    for i in range(1, 5):
        for r in range(i + 1, 6):
            assert key(eps(r)) > key(eps(i))


def test_canonical_order_g2():
    g2 = build_root_system("G", 2)
    order = canonical_order("G", 2)
    chain = [Root(c) for c in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]]
    assert order.sorted_roots(g2) == list(reversed(chain))


def test_a2n_order_blocks():
    # the four-block chain for A_{2n}
    a4 = build_root_system("A", 4)
    key = canonical_order("A", 4).key
    top = a4.phi_rad(2)
    bottom = a4.phi_rad(3)
    blocks = [
        [r for r in a4.positive_roots if r not in top and r not in bottom],
        [r for r in top if r not in bottom],
        [r for r in bottom if r not in top],
        [r for r in top & bottom],
    ]
    for upper, lower in zip(blocks, blocks[1:]):
        for u in upper:
            for l in lower:
                assert key(u) > key(l)


# -- lie / lt ---------------------------------------------------------------


def test_lie_lt_identity_random():
    rng = random.Random(0)
    for t, n, p in [("A", 4, 5), ("B", 4, 3), ("C", 3, 5), ("D", 4, 3), ("G", 2, 5)]:
        setting = get_setting(t, n, p)
        sys_ = setting.system
        for _ in range(100):
            roots = []
            for r in rng.sample(sys_.positive_roots, sys_.num_positive):
                if all(commute(sys_, r, x) for x in roots):
                    roots.append(r)
            R = commuting_set(sys_, roots)
            E = lie(setting, R)
            assert E.dim == R.mask.bit_count()
            assert lt(E).mask == R.mask


def test_lie_rejects_non_commuting():
    setting = get_setting("A", 2, 5)
    with pytest.raises(ValueError, match="commute"):
        lie(setting, setting.system.simple_roots)


def test_lie_b2_example():
    setting = get_setting("B", 2, 5)
    E = lie(setting, setting.system.phi_rad(1))
    assert E.dim == 3
    assert lt(E).mask == commuting_set(setting.system, setting.system.phi_rad(1)).mask


def test_is_elementary_examples():
    setting = get_setting("A", 2, 5)
    gf = setting.field
    rows = gf.zeros((2, 3))
    rows[0, 0] = 1
    rows[1, 1] = 1
    assert not is_elementary(setting, rows)  # [x1, x2] != 0
    E = lie(setting, setting.system.phi_rad(1))
    assert is_elementary(setting, E.rows)
    # B family members are elementary
    sB = get_setting("B", 4, 3)
    gfB = sB.field
    eps, eps_plus, eps_minus = b_family(sB.system)[:3]
    idx = [sB.system.index(eps_plus[(i, j)]) for i in range(1, 4) for j in range(i + 1, 5)]
    row = gfB.zeros(sB.n_pos)
    for i in range(1, 5):
        row[sB.system.index(eps[i])] = i % 3
    M = gfB.zeros((len(idx) + 1, sB.n_pos))
    for k, ii in enumerate(idx):
        M[k, ii] = 1
    M[len(idx)] = row
    assert is_elementary(sB, M)


def test_lt_of_b_family():
    # the leading term of B(a_1..a_n) is S_t for t the last nonzero slot
    sB = get_setting("B", 5, 5)
    gf = sB.field
    eps, eps_plus, _ = b_family(sB.system)[:3]
    idx = [sB.system.index(eps_plus[(i, j)]) for i in range(1, 5) for j in range(i + 1, 6)]
    for a, t_expected in [((1, 0, 0, 0, 0), 1), ((2, 3, 0, 0, 0), 2), ((0, 1, 0, 4, 0), 4)]:
        row = gf.zeros(sB.n_pos)
        for i, ai in enumerate(a, start=1):
            row[sB.system.index(eps[i])] = ai
        M = gf.zeros((len(idx) + 1, sB.n_pos))
        for k, ii in enumerate(idx):
            M[k, ii] = 1
        M[len(idx)] = row
        E = subalgebra_from_rows(sB, M)
        expected = commuting_set(sB.system, b_family(sB.system).S[t_expected])
        assert lt(E).mask == expected.mask


# -- brute force ---------------------------------------------------------------


@pytest.mark.parametrize("p,count", [(2, 2), (3, 4), (5, 6), (7, 8)])
def test_brute_force_a2(p, count):
    # q + 1 points for p >= 3; at p = 2 the mixed family fails the p-power
    # condition (the two-term Jacobson identity has a bracket term), so the
    # count is 2; see LEDGER.md, A2 over F2
    setting = get_setting("A", 2, p)
    out = brute_force_Eu(setting, 2)
    assert len(out) == count
    for E in out:
        assert is_elementary(setting, E.rows)


@pytest.mark.parametrize("t,n,p,r", [("A", 2, 3, 2), ("A", 3, 2, 4), ("B", 2, 3, 3),
                                     ("G", 2, 3, 4), ("A", 3, 2, 2)])
def test_brute_force_matches_naive_enumeration(t, n, p, r):
    # independent oracle: loop over every echelon matrix directly, cell by cell;
    # below the maximal dimension (A3, r = 2) some row systems are inhomogeneous
    from itertools import combinations, product

    setting = get_setting(t, n, p)
    gf = setting.field
    npos = setting.n_pos
    perm = setting.perm_desc
    # the ascending root order is not the storage order
    assert (perm[::-1] != np.arange(npos)).any()
    naive = set()
    for pivots in combinations(range(npos), r):
        # echelon positions below each pivot that no pivot takes
        free = [[c for c in range(pc + 1, npos) if c not in pivots] for pc in pivots]
        for vals in product(range(gf.q), repeat=sum(map(len, free))):
            rows = gf.zeros((r, npos))
            it = iter(vals)
            for k, pc in enumerate(pivots):
                rows[k, perm[pc]] = 1
                for c in free[k]:
                    rows[k, perm[c]] = next(it)
            if is_elementary(setting, rows):
                naive.add(subalgebra_from_rows(setting, rows).pack())
    got = {E.pack() for E in brute_force_Eu(setting, r)}
    assert got == naive


def _route_count_survivors(setting, r):
    """The position sets kept by the rule `_pivot_sets` replaced: a cell is
    dead when some pivot pair with N nonzero mod p reaches its sum sigma by
    no other pair of roots from the two row supports."""
    from itertools import combinations

    sums = setting.system.sum_index
    out = []
    for pos in combinations(range(setting.n_pos), r):
        pivots, below = _cell(setting, pos)
        dead = False
        for i, j in combinations(range(r), 2):
            rho_i, rho_j = pivots[i], pivots[j]
            if setting.n_mod_p[rho_i, rho_j]:
                routes = sums[np.ix_([rho_i, *below[i]], [rho_j, *below[j]])]
                if (routes == sums[rho_i, rho_j]).sum() == 1:
                    dead = True
                    break
        if not dead:
            out.append(list(pos))
    return out


@pytest.mark.parametrize(
    "t,n,p,r",  # r=None: every r
    [("A", 3, 2, None), ("B", 3, 2, None), ("B", 3, 3, None), ("C", 3, 3, None),
     ("D", 4, 3, None), ("G", 2, 2, None), ("G", 2, 3, None), ("G", 2, 5, None),
     ("B", 4, 3, 7)],
)
def test_pivot_sets_match_route_count(t, n, p, r):
    setting = get_setting(t, n, p)
    for r in [r] if r else range(1, setting.n_pos + 1):
        assert list(_pivot_sets(setting, r)) == _route_count_survivors(setting, r), r


@pytest.mark.parametrize("t,n,p", [("F", 4, 5), ("F", 4, 3), ("B", 5, 5), ("D", 5, 3)])
def test_pivot_sets_match_p_catalog(t, n, p):
    # the walk reads n_mod_p; the catalog is a clique search on another graph
    setting = get_setting(t, n, p)
    catalog = enumerate_max_commuting(setting.system, p=p)
    perm = setting.perm_desc
    got = [sum(1 << int(perm[c]) for c in pos) for pos in _pivot_sets(setting, catalog.m)]
    assert len(got) == len(set(got)) == catalog.count
    assert set(got) == {s.mask for s in catalog.sets}
    assert not list(_pivot_sets(setting, catalog.m + 1))


def test_brute_force_b2_b3():
    for p in (3, 5):
        sb2 = get_setting("B", 2, p)
        out = brute_force_Eu(sb2, 3)
        assert len(out) == 1
        assert out[0].pack() == lie(sb2, sb2.system.phi_rad(1)).pack()
        sb3 = get_setting("B", 3, p)
        out3 = brute_force_Eu(sb3, 5)
        assert len(out3) == 1
        assert out3[0].pack() == lie(sb3, sb3.system.phi_rad(1)).pack()


def test_brute_force_g2_f5():
    setting = get_setting("G", 2, 5)
    out = brute_force_Eu(setting, 3)
    assert len(out) == 181  # q^3 + 2q^2 + q + 1
    masks = {s.mask for s in enumerate_max_commuting(setting.system).sets}
    for E in out:
        assert lt(E).mask in masks


def test_brute_force_budget():
    setting = get_setting("A", 2, 3)
    with pytest.raises(BudgetExceeded) as exc:
        brute_force_Eu(setting, 2, budget=2)
    # C(3, 2) = 3 pivot patterns against a budget of 2, refused up front
    assert "3 pivot patterns exceed the budget of 2" in str(exc.value)


# the smallest budget each run passes, measured before brute force solved
# each level of a cell as one batch: the budget sums q^k over the consistent
# systems, so it does not depend on the order in which they are solved
@pytest.mark.parametrize("t,n,p,degree,r,budget", [
    ("G", 2, 5, 1, 3, 219), ("G", 2, 7, 1, 3, 513), ("A", 2, 3, 1, 2, 6),
    ("G", 2, 5, 2, 3, 17_559),
], ids=["G2-F5", "G2-F7", "A2-F3", "G2-F25"])
def test_brute_force_smallest_budget(t, n, p, degree, r, budget):
    setting = get_setting(t, n, p, degree)
    assert brute_force_Eu(setting, r, budget=budget)
    with pytest.raises(BudgetExceeded, match="candidate-row budget"):
        brute_force_Eu(setting, r, budget=budget - 1)


# SHA-256 of the concatenated pack()s of brute force's sorted output, recorded
# from the one-row-at-a-time descent that the batched levels replaced
@pytest.mark.parametrize("t,n,p,degree,r,count,digest", [
    ("B", 4, 3, 1, 7, 80, "a2ea8eedfc64e7c15b131cbebd897a286f85b8c741020e856482883ac98dde35"),
    ("D", 4, 3, 1, 6, 3, "6e374a137347c1d108596b452b01e24d4d881d689cacca802a19afaf25ae581e"),
    ("G", 2, 5, 1, 3, 181, "26a0cec4a6429fb2e85e114729d7cbdef698f14ae2183943f1841d1856965b16"),
    ("G", 2, 5, 2, 3, 16_901, "360502078b414fc105b04a4efb605e9e079c05b8ea1bff40822b11028b996d2e"),
], ids=["B4-F3", "D4-F3", "G2-F5", "G2-F25"])
def test_brute_force_points_pinned(t, n, p, degree, r, count, digest):
    points = brute_force_Eu(get_setting(t, n, p, degree), r)
    packs = [E.pack() for E in points]
    assert len(points) == count and packs == sorted(packs)
    assert hashlib.sha256(b"".join(packs)).hexdigest() == digest


def test_point_set_is_a_key_sorted_stack_of_views():
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    assert isinstance(points, PointSet) and len(points) == len(points.rows) == 181
    packs = [E.pack() for E in points]
    assert packs == keys(setting, points.rows) == sorted(packs)
    for i in [0, 7, np.int64(180), -1]:
        E = points[i]
        assert isinstance(E, ElementarySubalgebra) and E.setting is setting
        assert np.shares_memory(E.rows, points.rows) and (E.rows == points.rows[i]).all()
    assert all(np.shares_memory(E.rows, points.rows) for E in points)
    with pytest.raises(TypeError):
        points[:2]
    empty = brute_force_Eu(setting, 4)
    assert len(empty) == 0 and list(empty) == [] and empty.rows.shape == (0, 4, setting.n_pos)


def test_g2_f25_enumeration_memory():
    # brute force and fusion of the 16,901 points hold them as one int16
    # stack; a list of ElementarySubalgebra and its np.stack peaked at 9.4 MiB
    setting = get_setting("G", 2, 5, 2)
    g_conjugacy_classes(setting, brute_force_Eu(setting, 3))  # the per-setting caches
    tracemalloc.start()
    try:
        g_conjugacy_classes(setting, brute_force_Eu(setting, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


RMAX_CASES = [
    ("A", 1, 2, 1), ("A", 2, 2, 2), ("A", 3, 2, 4), ("A", 4, 2, 6),
    ("B", 2, 3, 3), ("B", 3, 3, 5), ("B", 4, 3, 7), ("C", 3, 3, 6),
    ("C", 4, 3, 10), ("D", 4, 3, 6), ("G", 2, 5, 3),
]


@pytest.mark.parametrize("t,n,p,m", RMAX_CASES)
def test_rmax_matches_commuting_m(t, n, p, m):
    setting = get_setting(t, n, p)
    if t != "A" or n > 1:
        assert enumerate_max_commuting(setting.system).m == m
    assert len(brute_force_Eu(setting, m)) > 0
    assert len(brute_force_Eu(setting, m + 1)) == 0


def test_lemma_oto_unique_points():
    # when the order puts the complement strictly above the block, the only
    # point with those leading terms is the Chevalley span
    for t, n, p in [("A", 3, 2), ("A", 5, 2), ("C", 3, 3), ("B", 3, 3)]:
        setting = get_setting(t, n, p)
        cat = enumerate_max_commuting(setting.system)
        points = brute_force_Eu(setting, cat.m)
        key = canonical_order(t, n).key
        for R in cat.sets:
            members = set(R.members())
            rest = [r for r in setting.system.positive_roots if r not in members]
            if all(key(x) > key(y) for x in rest for y in members):
                with_lt = [E for E in points if lt(E).mask == R.mask]
                assert len(with_lt) == 1
                assert with_lt[0].pack() == lie(setting, R).pack()


# -- leading-term systems ----------------------------------------------------


def test_zero_solution_always_present():
    for t, n, p in [("B", 4, 3), ("D", 4, 5), ("G", 2, 5)]:
        setting = get_setting(t, n, p)
        for R in enumerate_max_commuting(setting.system).sets:
            lts = build_leading_term_system(setting, R)
            for eq in lts.equations:
                assert eq.get((), 0) == 0  # all-zero assignment satisfies
            rep = leading_term_solve(lts)
            assert tuple([0] * len(lts.unknowns)) in rep.solutions


@pytest.mark.parametrize("t,n,p,degree", [
    ("B", 4, 3, 1), ("D", 4, 3, 1), ("G", 2, 5, 1), ("G", 2, 5, 2),
], ids=["B4-F3", "D4-F3", "G2-F5", "G2-F25"])
def test_monomials_never_repeat_an_unknown(t, n, p, degree):
    # each monomial takes one unknown from each of two different rows, so
    # `leading_term_solve` never meets a square
    setting = get_setting(t, n, p, degree)
    for R in enumerate_max_commuting(setting.system, p=p).sets:
        lts = build_leading_term_system(setting, R)
        for eq in lts.equations:
            for mono in eq:
                rows = [lts.unknowns[v][0] for v in mono]
                assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("p", [3, 5])
def test_unique_zero_b4_d4(p):
    for t in ("B", "D"):
        setting = get_setting(t, 4, p)
        target = commuting_set(setting.system, setting.system.phi_rad(1))
        rep = leading_term_solve(build_leading_term_system(setting, target))
        assert rep.unique_zero


def test_solution_subalgebras_have_target_lt():
    setting = get_setting("B", 4, 3)
    for t_idx in (2, 4):
        target = commuting_set(setting.system, b_family(setting.system).S[t_idx])
        lts = build_leading_term_system(setting, target)
        rep = leading_term_solve(lts)
        assert rep.count == 3 ** (t_idx - 1)
        for sol in rep.solutions:
            E = solution_subalgebra(lts, sol)
            assert lt(E).mask == target.mask
            assert is_elementary(setting, E.rows)


# -- normalizers ---------------------------------------------------------------


def test_g2_normalizer_dims():
    setting = get_setting("G", 2, 5)
    sys_ = setting.system
    C3 = [Root((0, 1)), Root((2, 1)), Root((3, 2))]
    C5 = [Root((2, 1)), Root((3, 1)), Root((3, 2))]
    gf = setting.field
    rows = gf.zeros((3, 6))
    rows[0, sys_.index(Root((0, 1)))] = 1
    rows[0, sys_.index(Root((3, 1)))] = 1
    rows[1, sys_.index(Root((2, 1)))] = 1
    rows[2, sys_.index(Root((3, 2)))] = 1
    dims = [
        normalizer_in_g(lie(setting, C3))[1],
        normalizer_in_g(lie(setting, C5))[1],
        normalizer_in_g(subalgebra_from_rows(setting, rows))[1],
    ]
    assert dims == [7, 9, 6]


def test_borel_normalizes_ideal_spans():
    # h + u always normalizes lie(R) for an ideal R
    for t, n, p in [("B", 3, 3), ("G", 2, 5), ("A", 3, 2)]:
        setting = get_setting(t, n, p)
        cat = enumerate_max_commuting(setting.system)
        for R, f in zip(cat.sets, cat.ideals):
            if not f:
                continue
            basis_rows, d = normalizer_in_g(lie(setting, R))
            assert d >= setting.n_pos + setting.system.rank


def _dense_normalizer_count(setting, E):
    """Scan every vector of g for membership in the normalizer."""
    gf = setting.field
    p, d = gf.p, setting.basis.dim
    Rg, piv = gf.rref(E.as_g_rows())
    grids = np.meshgrid(*([np.arange(p)] * d), indexing="ij")
    ys = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    ok = np.ones(len(ys), dtype=bool)
    for e in Rg:
        out = ys @ (setting.basis.ad_of(gf, e, "g").astype(np.int64)).T % p
        out = (-out) % p
        for r, pc in zip(Rg, piv):
            out = (out - out[:, pc : pc + 1] * r.astype(np.int64)) % p
        ok &= ~out.any(axis=1)
    return int(ok.sum())


@pytest.mark.parametrize("p,expected_dim", [(3, 5), (5, 4)])
def test_a2_l3_normalizer_with_dense_oracle(p, expected_dim):
    # at p = 3 the center of sl_3 adds one dimension; at p = 5 the solved
    # dimension 4 contradicts the printed orbit dimension 5 (see LEDGER.md,
    # A2 normalizer dimension)
    setting = get_setting("A", 2, p)
    gf = setting.field
    sys_ = setting.system
    rows = gf.zeros((2, 3))
    rows[0, sys_.index(Root((1, 0)))] = 1
    rows[0, sys_.index(Root((0, 1)))] = 1
    rows[1, sys_.index(Root((1, 1)))] = 1
    L3 = subalgebra_from_rows(setting, rows)
    _, dim = normalizer_in_g(L3)
    assert _dense_normalizer_count(setting, L3) == p**dim
    assert dim == expected_dim


def test_leading_term_solve_over_f25():
    # a second route to the 16,901 points of G2 over F25 (LEDGER.md, G2 over
    # F_q): the solutions of the leading-term systems of the five maximal
    # p-commuting sets satisfy the brackets, and the p-nilpotent ones are
    # exactly the points of brute force
    setting = get_setting("G", 2, 5, degree=2)
    gf, n = setting.field, setting.n_pos
    stacks = []
    for R in enumerate_max_commuting(setting.system, p=5).sets:
        lts = build_leading_term_system(setting, R)
        sols = np.array(leading_term_solve(lts).solutions, dtype=np.int16)
        rows = gf.zeros((len(sols), len(lts.pivots), n))
        rows[:, np.arange(len(lts.pivots)), lts.pivots] = 1
        for v, (k, col) in enumerate(lts.unknowns):
            rows[:, k, col] = sols[:, v]
        stacks.append(rows)
    rows = np.concatenate(stacks)
    nilpotent = _p_nilpotent_mask(setting, rows.reshape(-1, n)).reshape(len(rows), -1).all(axis=1)
    packs = sorted(keys(setting, canonical(setting, rows[nilpotent])))
    assert len(packs) == 16_901
    assert packs == [E.pack() for E in brute_force_Eu(setting, 3)]


# -- orbits ---------------------------------------------------------------------


def test_a2_orbits_fusion_and_ambient_agree():
    setting = get_setting("A", 2, 5)
    points = brute_force_Eu(setting, 2)
    classes = g_conjugacy_classes(setting, points)
    assert len(classes) == 3
    orbits = orbit_decompose(setting, points, chevalley_group_generators(setting))
    assert len(orbits) == 3
    assert sorted(o.size for o in orbits) == [31, 31, 744]
    assert sorted(o.normalizer_dim for o in orbits) == [4, 6, 6]
    assert sorted(c.normalizer_dim for c in classes) == [4, 6, 6]
    assert sum(o.size for o in orbits) == 806


@pytest.mark.parametrize("p,count", [(7, 5), (11, 3)])
def test_a2_generic_classes_are_cube_cosets(p, count):
    # LEDGER.md, A2 over F_q with q = 1 mod 3: the generic points
    # span(x_a1 + c x_a2, x_{a1+a2}) fall into one class per coset of the
    # cubes in F_p^x, so there are 2 + gcd(3, p - 1) classes, not 3
    setting = get_setting("A", 2, p)
    a1, a2 = (setting.system.index(Root(c)) for c in [(1, 0), (0, 1)])
    points = brute_force_Eu(setting, 2)
    classes = g_conjugacy_classes(setting, points)
    assert len(classes) == count
    cubes = {pow(t, 3, p) for t in range(1, p)}
    cosets = []
    for c in classes:
        ratios = {
            int(row[a2]) * pow(int(row[a1]), -1, p) % p
            for i in c.point_indices
            for row in points[i].rows
            if row[a1] and row[a2]
        }
        if ratios:
            c0 = min(ratios)
            assert ratios == {c0 * u % p for u in cubes}
            cosets.append(ratios)
    assert len(cosets) == count - 2
    assert set().union(*cosets) == set(range(1, p))


def test_single_point_identity_orbit():
    setting = get_setting("A", 2, 5)
    E = lie(setting, setting.system.phi_rad(1))
    from chevlie.chevalley import cocharacter_element

    ident = cocharacter_element(setting.basis, setting.field, 1, 1)
    orbits = orbit_decompose(setting, [E], [ident])
    assert len(orbits) == 1 and orbits[0].size == 1


def test_normalizer_constant_on_classes():
    for t, n, p in [("A", 2, 5), ("G", 2, 5)]:
        setting = get_setting(t, n, p)
        points = brute_force_Eu(setting, enumerate_max_commuting(setting.system).m)
        for c in g_conjugacy_classes(setting, points):
            dims = {normalizer_in_g(points[i])[1] for i in c.point_indices}
            assert dims == {c.normalizer_dim}


def test_g2_f5_classes():
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    classes = g_conjugacy_classes(setting, points)
    # the count over F5 is four (see LEDGER.md, G2 over F5); the normalizer
    # dimensions take only three values
    assert len(classes) == 4
    assert sorted(c.normalizer_dim for c in classes) == [6, 6, 7, 9]
    assert sorted(c.size for c in classes) == [6, 55, 60, 60]
    assert sum(c.size for c in classes) == 181


@pytest.mark.parametrize("t,n,count", [("A", 3, 1), ("A", 4, 2), ("B", 3, 1), ("C", 3, 1), ("D", 4, 3)])
def test_fusion_classical_f3(t, n, count):
    # the root order differs from the storage order here, unlike A2 and G2;
    # the count is checked against the partial-Weyl count of class_report
    setting = get_setting(t, n, 3)
    points = brute_force_Eu(setting, enumerate_max_commuting(setting.system).m)
    classes = g_conjugacy_classes(setting, points)
    assert len(classes) == class_report(t, n, 3)["class_count"] == count


def _reference_classes(setting, points):
    """The full-element loop: union-find over every x_a(t) and a_i^vee(lam) in
    B(F_q) and every Weyl representative, applied to all points in g; returns
    (representative packing, point indices, normalizer dimension) per class."""
    gf, cb, n = setting.field, setting.basis, setting.n_pos
    moves = [
        root_group_element(cb, gf, a, t)
        for a in setting.system.positive_roots for t in range(1, gf.q)
    ]
    for i in range(1, setting.system.rank + 1):
        moves += [cocharacter_element(cb, gf, i, lam) for lam in range(1, gf.q) if lam != 1]
    moves += [weyl_word_element(cb, gf, w) for w in weyl_words_all(setting.system)]
    rows_g = np.stack([E.as_g_rows() for E in points])
    index = {k: i for i, k in enumerate(keys(setting, rows_g))}
    parent = list(range(len(points)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for g in moves:
        imgs = gf.matmul(rows_g, g.matrix.T[None, :, :])
        inside = np.flatnonzero(~imgs[:, :, n:].any(axis=(1, 2)))
        for i, k in zip(inside, keys(setting, canonical(setting, imgs[inside]))):
            a, b = find(int(i)), find(index[k])
            parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        rep = min((points[i] for i in members), key=lambda E: E.pack())
        out.append((rep.pack(), members, normalizer_in_g(rep)[1]))
    return sorted(out)


# len(borel_generators) by (type, rank, q): each kept root times r/e, its
# x_alpha(t^k) that the torus does not give, plus a torus element per simple
# root unless q = 2; at these bad p the kept roots are the simple ones and
# (3,1) for G2, (0,2,1), (2,2,1) for C3 and (0,1,2) for B3; over F_9, F_4
# and F_25 the torus gives every x_alpha(c) of a simple root (e = r)
BOREL_GENERATOR_COUNTS = {
    ("G", 2, 5): 4, ("B", 2, 9): 4, ("A", 3, 4): 6, ("G", 2, 3): 5, ("C", 3, 2): 5, ("B", 3, 2): 4,
    ("G", 2, 25): 4,
}


@pytest.mark.parametrize(
    "t,n,p,deg,r,npts,nclasses",
    [
        ("G", 2, 5, 1, 3, 181, 4), ("B", 2, 3, 2, 2, 100, 3), ("A", 3, 2, 2, 3, 94, 5),
        ("G", 2, 3, 1, 3, 274, 9), ("C", 3, 2, 1, 5, 71, 6), ("B", 3, 2, 1, 5, 72, 7),
    ],
)
def test_fusion_over_borel_generators_matches_all_elements(t, n, p, deg, r, npts, nclasses):
    setting = get_setting(t, n, p, degree=deg)
    assert len(borel_generators(setting)) == BOREL_GENERATOR_COUNTS[t, n, setting.field.q]
    points = brute_force_Eu(setting, r)
    classes = g_conjugacy_classes(setting, points)
    assert len(points) == npts and len(classes) == nclasses
    assert [(c.representative.pack(), c.point_indices, c.normalizer_dim) for c in classes] == (
        _reference_classes(setting, points)
    )


def _group_order(setting, gens) -> int:
    """Order of the matrix group the generators generate: BFS from the
    identity by right multiplication (a finite monoid of units is a group),
    each product by table gathers over the generator's nonzero entries."""
    gf, d = setting.field, setting.basis.dim
    frontier = gf.eye(d)[None]
    seen = {frontier[0].tobytes()}
    layers = [GF.layers(g.matrix) for g in gens]
    while len(frontier):
        fresh = []
        for L in layers:
            for x in gf.sparse_matmul(frontier, L, d).astype(frontier.dtype):
                if (k := x.tobytes()) not in seen:
                    seen.add(k)
                    fresh.append(x)
        frontier = np.array(fresh)
    return len(seen)


@pytest.mark.parametrize(
    "t,n,p,deg,order",
    [  # named by t, n, q = p^deg and the order
        pytest.param(t, n, p, deg, order, id=f"{t}-{n}-{p**deg}-{order}")
        for t, n, p, deg, order in [
            ("G", 2, 2, 1, 64), ("G", 2, 3, 1, 2916), ("G", 2, 2, 2, 36864), ("B", 2, 2, 1, 16),
            ("B", 2, 3, 1, 162), ("A", 2, 2, 2, 192), ("B", 3, 2, 1, 512), ("C", 3, 2, 1, 512),
            ("A", 1, 3, 2, 36), ("A", 1, 5, 2, 300), ("A", 2, 3, 2, 46656),
        ]
    ],
)
def test_borel_generators_generate_the_borel(t, n, p, deg, order):
    """The kept root groups and the torus generate the group that every
    positive root group over the whole F_p-basis and the torus generate, in
    the adjoint image: |U||T| for q = 2, 3, 4, over the centre for B2/F3,
    A2/F4 and A2/F9.  Over F_9 and F_25 the torus of A1 acts on its root
    group by the squares alone, which still span F_q."""
    setting = get_setting(t, n, p, degree=deg)
    full = full_generating_set(setting, setting.system.positive_roots)
    assert len(borel_generators(setting)) < len(full)
    assert _group_order(setting, borel_generators(setting)) == _group_order(setting, full) == order


@pytest.mark.parametrize("t,n,p,order", [("G", 2, 3, 972), ("B", 3, 2, 128)])
def test_simple_root_groups_fall_short_at_a_bad_prime(t, n, p, order):
    # (3,1) of G2 and (0,1,2) of B3 are each one sum of positive roots, with
    # N = 3 and 2, which vanish mod p, so the simple root groups and the torus
    # miss x_{(3,1)}(F_3) and x_{(0,1,2)}(F_2)
    setting = get_setting(t, n, p)
    assert _group_order(setting, _generating_set(setting, setting.system.simple_roots)) == order


def _tree_components(edges, npts):
    """Point sets joined by the (i, k, j) rows of a fusion tree."""
    parent = list(range(npts))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, _, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for i in range(npts):
        groups.setdefault(find(i), set()).add(i)
    return list(groups.values())


@pytest.mark.parametrize(
    "t,n,p,sizes", [("G", 2, 5, [6, 55, 60, 60]), ("G", 2, 3, [7]), ("A", 2, 5, [1, 1, 4])]
)
def test_fusion_trees_span_their_classes(t, n, p, sizes):
    setting = get_setting(t, n, p)
    points = brute_force_Eu(setting, enumerate_max_commuting(setting.system, p=p).m)
    classes = g_conjugacy_classes(setting, points)
    assert sorted(c.size for c in classes) == sizes
    gens = _moves(setting)[0]
    for c in classes:
        assert c.edges.shape == (c.size - 1, 3)
        components = _tree_components(c.edges.tolist(), len(points))
        assert set(c.point_indices) in components
        for i, k, j in c.edges.tolist():
            assert _apply_word_u(setting, points[i], [gens[k]]).pack() == points[j].pack()


@pytest.mark.parametrize(
    "t,n,p,deg,r",
    [
        ("G", 2, 5, 1, 3), ("A", 2, 7, 1, 2), ("B", 2, 3, 2, 2), ("A", 3, 2, 2, 3),
        ("A", 2, 7, 3, 2), ("G", 2, 5, 2, 3),
    ],
)
def test_fusion_trees_are_those_of_the_plain_loop(t, n, p, deg, r):
    """The union-find over every (move, point) pair in order, with a dict of
    byte keys, gives the same merging unions as the chunked numpy pass."""
    setting = get_setting(t, n, p, degree=deg)
    gf, npos = setting.field, setting.n_pos
    points = brute_force_Eu(setting, r)
    rows = np.stack([E.rows for E in points])
    index = {k: i for i, k in enumerate(keys(setting, rows))}
    parent = list(range(len(points)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    plain = []
    for k_move, g in enumerate(_moves(setting)[0]):
        imgs = gf.matmul(rows, g.matrix.T[None, :npos, :])
        inside = np.flatnonzero(~imgs[:, :, npos:].any(axis=(1, 2)))
        for i, key in zip(inside.tolist(), keys(setting, canonical(setting, imgs[inside, :, :npos]))):
            a, b = find(i), find(index[key])
            if a != b:
                parent[max(a, b)] = min(a, b)
                plain.append([i, k_move, index[key]])
    edges = np.concatenate([c.edges for c in g_conjugacy_classes(setting, points)]).tolist()
    assert sorted(edges) == sorted(plain)


def test_fusion_words_replay_for_every_g2_f5_point():
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    for c in g_conjugacy_classes(setting, points):
        members = {points[i].pack() for i in c.point_indices}
        for i in c.point_indices:
            word, out = conjugation_reduce(setting, points[i])
            assert replay_verify(setting, points[i], word, out) and out.pack() in members


def test_fusion_refuses_a_list_not_closed_under_borel():
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    nb = len(borel_generators(setting))
    classes = g_conjugacy_classes(setting, points)
    # the target of a Borel edge is the image of another point under B
    j = next(j for c in classes for _, k, j in c.edges.tolist() if k < nb)
    with pytest.raises(ValueError, match="not closed under the Borel action"):
        g_conjugacy_classes(setting, PointSet(setting, np.delete(points.rows, j, axis=0)))


def test_fusion_refuses_a_list_not_closed_under_the_torus():
    # the root-group moves come first, so the root-group edges of the trees
    # span the components of those moves; without the component of a torus
    # edge's target the list is closed under them, and the torus move is
    # the first to map a point out of the list
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    gens = _moves(setting)[0]
    edges = np.concatenate([c.edges for c in g_conjugacy_classes(setting, points)]).tolist()
    j = next(j for _, k, j in edges if gens[k].kind == "cocharacter")
    roots = [e for e in edges if gens[e[1]].kind == "root_group"]
    drop = next(c for c in _tree_components(roots, len(points)) if j in c)
    with pytest.raises(ValueError, match="not closed under the Borel action"):
        g_conjugacy_classes(setting, PointSet(setting, np.delete(points.rows, sorted(drop), axis=0)))


def test_fusion_refuses_a_list_not_closed_under_weyl():
    # the Borel edges of the trees span the B-orbits (Borel moves come
    # first), so the largest B-orbit that ends a Weyl edge is closed under B,
    # and some Weyl representative maps it into u onto another B-orbit
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    nb = len(borel_generators(setting))
    edges = np.concatenate([c.edges for c in g_conjugacy_classes(setting, points)]).tolist()
    weyl_ends = {x for i, k, j in edges if k >= nb for x in (i, j)}
    orbits = _tree_components([e for e in edges if e[1] < nb], len(points))
    orbit = max((o for o in orbits if o & weyl_ends), key=len)
    # the ambient BFS under B agrees that the orbit is this one set
    (o,) = orbit_decompose(setting, [points[min(orbit)]], borel_generators(setting))
    assert 1 < o.size == len(orbit)
    sub = PointSet(setting, points.rows[sorted(orbit)])
    with pytest.raises(ValueError, match="Weyl image inside u is missing"):
        g_conjugacy_classes(setting, sub)


def test_fusion_ignores_input_order():
    setting = get_setting("G", 2, 5)
    points = brute_force_Eu(setting, 3)
    perm = list(range(len(points)))
    random.Random(7).shuffle(perm)
    classes = g_conjugacy_classes(setting, points)
    shuffled = g_conjugacy_classes(setting, PointSet(setting, points.rows[perm]))
    assert len(shuffled) == len(classes)
    for c, s in zip(classes, shuffled):
        assert sorted(perm[i] for i in s.point_indices) == c.point_indices
        assert s.representative.pack() == c.representative.pack()
        assert s.normalizer_dim == c.normalizer_dim and len(s.edges) == len(c.edges)


def test_key_array_sorts_like_the_byte_keys():
    setting = get_setting("G", 2, 5, degree=2)
    points = brute_force_Eu(setting, 3)
    packs = [E.pack() for E in points]
    assert packs == sorted(packs)
    rng = np.random.default_rng(1)
    for stack in [
        np.stack([E.rows for E in points])[rng.permutation(len(points))],
        rng.integers(0, 256, size=(500, 2, setting.basis.dim)).astype(np.int16),
    ]:
        ka = _key_array(setting, stack)
        assert ka.tolist() == keys(setting, stack)
        assert ka[np.argsort(ka, kind="stable")].tolist() == sorted(keys(setting, stack))
    assert keys(setting, setting.field.zeros((0, 3, setting.n_pos))) == []


@pytest.mark.parametrize(
    "t,n,p,deg,r",
    [("G", 2, 5, 1, 3), ("G", 2, 5, 2, 3), ("A", 3, 2, 2, 3), ("B", 2, 3, 2, 2), ("A", 2, 7, 3, 2)],
)
def test_move_images_by_entries_match_matmul(t, n, p, deg, r):
    # every move of `_moves` maps the points as GF.matmul does, Weyl images
    # that leave u included; over F_{7^3} the gathers index in int32
    setting = get_setting(t, n, p, degree=deg)
    gf, npos, d = setting.field, setting.n_pos, setting.basis.dim
    rows = np.stack([E.rows for E in brute_force_Eu(setting, r)])
    gens, layers = _moves(setting)
    left = 0
    for g, L in zip(gens, layers):
        imgs = gf.sparse_matmul(rows, L, d)
        assert (imgs == gf.matmul(rows, g.matrix.T[None, :npos, :])).all()
        left += g.kind == "weyl_word" and bool(imgs[:, :, npos:].any())
        if g.kind != "root_group":  # Weyl and torus moves: one entry per u-row
            assert len(L) == 1 and sorted(L[0][0].tolist()) == list(range(npos))
    assert left
    if (t, deg) == ("G", 2):
        assert len(borel_generators(setting)) == BOREL_GENERATOR_COUNTS["G", 2, 25]
        assert sum(len(a) for L in layers for a, _, _ in L) == 44


@pytest.mark.parametrize("t,n,p,deg,r", [("G", 2, 5, 2, 3), ("A", 2, 7, 3, 2)])
def test_torus_forms_are_the_canonical_images(t, n, p, deg, r):
    # a torus move's row-scaled image of every point is `canonical` of its
    # image by entries
    setting = get_setting(t, n, p, degree=deg)
    npos, d = setting.n_pos, setting.basis.dim
    rows = np.stack([E.rows for E in brute_force_Eu(setting, r)])
    pivots = _pivots(setting, rows)
    torus = [L for g, L in zip(*_moves(setting)) if g.kind == "cocharacter"]
    assert len(torus) == setting.system.rank
    for L in torus:
        ((a, b, c),) = L
        assert (a == b).all()
        scale = setting.field.zeros(npos)
        scale[a] = c
        imgs = setting.field.sparse_matmul(rows, L, d)
        assert (canonical(setting, imgs[:, :, :npos]) == _torus_forms(setting.field, scale, rows, pivots)).all()


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_faithfulness_block_is_the_dense_block(t, n, monkeypatch):
    # the block `Setting` hands to GF.nullspace, read from the coroot rows of
    # the bracket table, is ad(x_alpha) from the x_{-beta} columns to the h
    # rows of the dense stack
    seen = []
    nullspace = GF.nullspace

    def spy(gf, M):
        seen.append(M)
        return nullspace(gf, M)

    monkeypatch.setattr(GF, "nullspace", spy)
    for p in (2, 3, 5, 7):
        base = get_setting(t, n, p)
        seen.clear()
        Setting(base.system, base.basis, base.field)
        npos, stack = base.n_pos, ad_stack(base.basis, p)
        want = np.stack([stack[i, 2 * npos :, npos : 2 * npos].reshape(-1) for i in range(npos)], axis=1)
        assert len(seen) == 1 and seen[0].shape == want.shape
        assert (seen[0] == want).all(), p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_setting_refuses_a_coroot_that_vanishes_mod_p(p):
    # multiplying alpha's coroot rows [x_alpha, x_{-alpha}] = h_alpha by p
    # zeroes column alpha of the block mod p, and `Setting` refuses the basis
    base = get_setting("B", 3, p)
    npos, alpha = base.n_pos, 4
    basis = copy.copy(base.basis)
    basis.brackets = table = base.basis.brackets.copy()
    table[(table[:, 0] == alpha) & (table[:, 1] == alpha + npos), 3] *= p
    with pytest.raises(ArithmeticError, match="not faithful"):
        Setting(base.system, basis, base.field)
    Setting(base.system, base.basis, base.field)


MASK_TYPES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
# x_{+-alpha_i} do not generate g mod p exactly here
MASK_FALLBACK = {("B", 2, 2), ("B", 3, 2), ("B", 4, 2), ("C", 3, 2), ("F", 4, 2), ("G", 2, 2), ("G", 2, 3)}


def _generated_dim(setting):
    """Dimension of the subalgebra generated by x_{+-alpha_i} mod p: their
    span closed under their brackets by row reduction, independent of the
    walk of `ChevalleyBasis.lie_generators`."""
    gf, system = setting.field, setting.system
    ads = ad_stack(setting.basis, gf.p)
    gens = [system.signed_index(b) for a in system.simple_roots for b in (a, -a)]
    span, new = gf.zeros((0, setting.basis.dim)), gf.eye(setting.basis.dim)[gens]
    while True:
        R, piv = gf.rref(np.concatenate([span, new]))
        if len(piv) == len(span):
            return len(span)
        span = R[: len(piv)]
        new = np.concatenate([gf.matmul(span, ads[g].T) for g in gens])


def _p_nilpotent_by_matpow(setting, rows):
    """ad(x)^p == 0 on all of g for each u-row x, by `matpow`."""
    gf, d = setting.field, setting.basis.dim
    rows_g = np.concatenate([rows, gf.zeros((len(rows), d - setting.n_pos))], axis=1)
    return ~matpow(gf, setting.basis.ad_of(gf, rows_g, "g"), gf.p).any(axis=(1, 2))


@pytest.mark.parametrize("t,n", MASK_TYPES)
def test_p_nilpotent_mask_by_generators(t, n):
    # ad(x)^p on x_{+-alpha_i} decides p-nilpotency exactly where these
    # generate g mod p, and the mask falls back to all of g exactly elsewhere
    rng = np.random.default_rng(n)
    seen = set()
    for p, deg in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)]:
        setting = get_setting(t, n, p, degree=deg)
        gf, npos, d = setting.field, setting.n_pos, setting.basis.dim
        rows = rng.integers(0, gf.q, (40, npos)).astype(np.int16)
        rows *= rng.random(rows.shape) < 0.3
        rows = np.concatenate([rows, gf.eye(npos)])  # the root vectors of u
        full = _p_nilpotent_by_matpow(setting, rows)
        mask = _p_nilpotent_mask(setting, rows)
        assert (mask == full).all(), (p, deg)
        seen.update(mask.tolist())
        fallback = len(setting.basis.lie_generators(p)) == d
        assert fallback == ((t, n, p) in MASK_FALLBACK)
        if deg == 1:
            assert fallback == (_generated_dim(setting) < d)
    assert seen == {True, False}


@pytest.mark.parametrize("t,n,p,deg", [("G", 2, 5, 1), ("B", 3, 3, 1), ("A", 3, 2, 2)])
def test_p_nilpotent_mask_on_repeated_rows(t, n, p, deg):
    # each distinct row is tested once; the mask is still read row by row
    rng = np.random.default_rng(p + n)
    setting = get_setting(t, n, p, degree=deg)
    gf, npos = setting.field, setting.n_pos
    rows = rng.integers(0, gf.q, (30, npos)).astype(np.int16)
    rows *= rng.random(rows.shape) < 0.3
    rows = np.concatenate([rows, gf.eye(npos)])
    stack = rows[rng.integers(0, len(rows), 400)]  # shuffled, most rows repeated
    assert len(GF.distinct_rows(stack)[0]) < len(stack) // 4
    mask = _p_nilpotent_mask(setting, stack)
    assert mask.shape == (len(stack),)
    assert (mask == _p_nilpotent_by_matpow(setting, stack)).all()
    assert mask.any() and not mask.all()
    assert _p_nilpotent_mask(setting, stack[:0]).shape == (0,)
    for row in stack[:3]:
        assert (_p_nilpotent_mask(setting, row[None]) == _p_nilpotent_by_matpow(setting, row[None])).all()


def test_a4_f2_orbits_fusion_and_ambient_agree():
    setting = get_setting("A", 4, 2)
    points = brute_force_Eu(setting, 6)
    classes = g_conjugacy_classes(setting, points)
    orbits = orbit_decompose(setting, points, chevalley_group_generators(setting))
    assert len(classes) == len(orbits) == 2
    assert [o.size for o in orbits] == [155, 155]
    assert sorted(o.normalizer_dim for o in orbits) == [18, 18]
    assert sorted(c.normalizer_dim for c in classes) == [18, 18]


def test_conjugation_reduce_replay_b5():
    rng = random.Random(3)
    setting = get_setting("B", 5, 5)
    gf = setting.field
    eps, eps_plus, eps_minus = b_family(setting.system)[:3]
    n = 5
    target = lie(setting, b_family(setting.system).S[1])
    plus_idx = [setting.system.index(eps_plus[(i, j)]) for i in range(1, n) for j in range(i + 1, n + 1)]
    minus_idx = [setting.system.index(eps_plus[(i, j)]) for i in range(1, n - 1) for j in range(i + 1, n)] + [
        setting.system.index(eps_minus[(i, n)]) for i in range(1, n)
    ]
    for _ in range(40):
        a = [rng.randrange(5) for _ in range(n)]
        if not any(a):
            a[0] = 1
        row = gf.zeros(setting.n_pos)
        for i, ai in enumerate(a, start=1):
            row[setting.system.index(eps[i])] = ai
        M = gf.zeros((len(plus_idx) + 1, setting.n_pos))
        for k, ii in enumerate(plus_idx):
            M[k, ii] = 1
        M[len(plus_idx)] = row
        word, out = conjugation_reduce(setting, subalgebra_from_rows(setting, M))
        assert out.pack() == target.pack()
        a2 = [rng.randrange(5) for _ in range(n - 1)]
        if not any(a2):
            a2[0] = 2
        row = gf.zeros(setting.n_pos)
        for i, ai in enumerate(a2, start=1):
            row[setting.system.index(eps[i])] = ai
        M = gf.zeros((len(minus_idx) + 1, setting.n_pos))
        for k, ii in enumerate(minus_idx):
            M[k, ii] = 1
        M[len(minus_idx)] = row
        E = subalgebra_from_rows(setting, M)
        tw = rng.randrange(5)
        if tw:
            g = root_group_element(setting.basis, gf, setting.system.simple_roots[n - 1], tw)
            E = _apply_word_u(setting, E, [g])
        word, out = conjugation_reduce(setting, E)
        assert out.pack() == target.pack()


def _leading_term_points(setting, sample=None):
    """The points of maximal dimension as `verify --stage unipotent` lists
    them: each cell's leading-term solutions that are elementary; with
    `sample`, at most that many seeded solutions per cell."""
    rng = random.Random(1)
    points = []
    for R in enumerate_max_commuting(setting.system, p=setting.field.p).sets:
        lts = build_leading_term_system(setting, R)
        solutions = leading_term_solve(lts).solutions
        if sample is not None and len(solutions) > sample:
            solutions = rng.sample(solutions, sample)
        points += [solution_subalgebra(lts, sol) for sol in solutions]
    return [E for E in points if is_elementary(setting, E.rows)]


def test_conjugation_reduce_b4_f3(monkeypatch):
    # B_n points reduce without the fusion forest: all but one land on
    # lie(S_1); B_4's lie(phi_rad(1)) is an ideal off both B families whose
    # class holds only itself
    def refuse(setting):
        raise AssertionError("the fusion forest was consulted")

    monkeypatch.setattr("chevlie.elementary._fusion_words", refuse)
    for n, p, npts in [(4, 3, 80), (4, 5, 312), (5, 3, 241)]:
        setting = get_setting("B", n, p)
        points = _leading_term_points(setting)
        assert len(points) == npts
        target = lie(setting, b_family(setting.system).S[1]).pack()
        rad = lie(setting, setting.system.phi_rad(1)).pack() if n == 4 else None
        outs = []
        for E in points:
            word, out = conjugation_reduce(setting, E)
            assert replay_verify(setting, E, word, out)
            if E.pack() == rad:
                assert word == [] and out.pack() == rad
            else:
                outs.append(out.pack())
        assert outs == [target] * (npts - (n == 4))


@pytest.mark.parametrize(
    "t,n,p,npts", [("D", 6, 5, 2), ("E", 6, 7, 2), ("E", 7, 7, 1), ("B", 6, 5, 301)]
)
def test_conjugation_reduce_past_the_fusion_limit(t, n, p, npts):
    """Points of types whose Weyl groups fusion refuses (B_6 sampled, 40
    solutions per cell) each reduce to lie(I) for an ideal I by a word that
    replays."""
    setting = get_setting(t, n, p)
    with pytest.raises(BudgetExceeded):
        check_weyl_order(setting.system)
    catalog = enumerate_max_commuting(setting.system, p=p)
    ideals = {lie(setting, S).pack() for S, flag in zip(catalog.sets, catalog.ideals) if flag}
    points = _leading_term_points(setting, sample=40)
    assert len(points) == npts
    for E in points:
        word, out = conjugation_reduce(setting, E)
        assert replay_verify(setting, E, word, out) and out.pack() in ideals


@pytest.mark.parametrize(
    "t,n,p,nclosed", [("G", 2, 5, 6), ("G", 2, 7, 8), ("A", 2, 7, 2), ("D", 4, 2, 3)]
)
def test_closed_orbit_route_agrees_with_fusion(t, n, p, nclosed):
    """Every point the closed-orbit route reduces (G_2: the q + 1 points of
    the closed orbit) reaches the form its fusion-forest word reaches."""
    setting = get_setting(t, n, p)
    points = brute_force_Eu(setting, enumerate_max_commuting(setting.system, p=p).m)
    words = _fusion_words(setting)
    closed = [(E, found) for E in points if (found := _closed_orbit_word(setting, E))]
    assert len(closed) == nclosed
    for E, (word, out) in closed:
        assert replay_verify(setting, E, word, out)
        assert out.pack() == words[E.pack()][1].pack()


def _borel_stable(setting, R) -> bool:
    E = lie(setting, R)
    return all(_apply_word_u(setting, E, [g]).pack() == E.pack() for g in borel_generators(setting))


@pytest.mark.parametrize(
    "t,n,p", [("G", 2, 2), ("G", 2, 3), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2)]
)
def test_p_catalog_flags_are_borel_stability(t, n, p):
    """At a bad p the p-catalog flags exactly the sets R whose lie(R) every
    generator of B(F_p) keeps (`is_ideal` with p)."""
    setting = get_setting(t, n, p)
    catalog = enumerate_max_commuting(setting.system, p=p)
    assert catalog.ideals == [_borel_stable(setting, R) for R in catalog.sets]


def test_g2_f2_point_is_its_own_closed_orbit():
    """G_2's one maximal 2-commuting set is B(F_2)-stable although
    alpha_1 + (alpha_1 + alpha_2) is a root outside it (N = +-2, zero mod 2):
    it is flagged, and the one point reduces by the empty word."""
    setting = get_setting("G", 2, 2)
    catalog = enumerate_max_commuting(setting.system, p=2)
    assert catalog.ideals == [True]
    (E,) = brute_force_Eu(setting, catalog.m)
    word, out = _closed_orbit_word(setting, E)
    assert word == [] and out.pack() == E.pack() == lie(setting, catalog.sets[0]).pack()


# first 16 hex digits of the SHA-256 over the packed normal forms that
# `conjugation_reduce` gives for the brute-force points at m, in their order
NORMAL_FORM_DIGESTS = {
    ("B", 4, 3): "3ba1bdb7b97a88d4",
    ("B", 5, 3): "fa38e5105853dc57",
    ("G", 2, 3): "56b673777019070d",
    ("G", 2, 5): "106e068b49324d2d",
    ("G", 2, 7): "f0c4f90df8d20a39",
    ("A", 2, 7): "8a17a5a48ed45078",
    ("A", 2, 13): "c1ababe606489689",
    ("D", 4, 2): "00336f0ec81a9385",
    ("D", 4, 3): "6e374a137347c1d1",
    ("A", 3, 2): "59b09b9ddddaf5d9",
}


@pytest.mark.parametrize("t,n,p", list(NORMAL_FORM_DIGESTS))
def test_normal_forms_pinned(t, n, p):
    setting = get_setting(t, n, p)
    points = brute_force_Eu(setting, enumerate_max_commuting(setting.system, p=p).m)
    forms = b"".join(conjugation_reduce(setting, E)[1].pack() for E in points)
    assert hashlib.sha256(forms).hexdigest()[:16] == NORMAL_FORM_DIGESTS[(t, n, p)]


def test_conjugation_reduce_identity_on_normal_form():
    setting = get_setting("G", 2, 5)
    C5 = [Root((2, 1)), Root((3, 1)), Root((3, 2))]
    word, out = conjugation_reduce(setting, lie(setting, C5))
    assert word == [] and out.pack() == lie(setting, C5).pack()


def test_conjugation_reduce_g2_p3():
    setting = get_setting("G", 2, 3)
    points = brute_force_Eu(setting, 4)
    assert len(points) == 7
    R1 = [Root((1, 1)), Root((2, 1)), Root((3, 1)), Root((3, 2))]
    target = lie(setting, R1)
    for E in points:
        word, out = conjugation_reduce(setting, E)
        assert out.pack() == target.pack()


def test_conjugation_reduce_classical_types_read_the_fusion_forest():
    """On these A_n settings every point, on either route, reduces to the
    minimal point of its fusion class, by a word that replays."""
    for t, n, p, npts, nclasses in [
        ("A", 3, 2, 1, 1), ("A", 2, 5, 6, 3), ("A", 2, 7, 8, 5), ("A", 2, 13, 14, 5)
    ]:
        setting = get_setting(t, n, p)
        points = brute_force_Eu(setting, enumerate_max_commuting(setting.system, p=p).m)
        classes = g_conjugacy_classes(setting, points)
        assert (len(points), len(classes)) == (npts, nclasses)
        for c in classes:
            for i in c.point_indices:
                word, out = conjugation_reduce(setting, points[i])
                assert out.pack() == c.representative.pack()
                assert replay_verify(setting, points[i], word, c.representative)


def test_conjugation_reduce_rejects_wrong_dimension():
    # m = 3 for G2 at p >= 5 and m = 4 at p = 3 (criterion 8)
    for p, roots in [(5, [(2, 1), (3, 2)]), (3, [(2, 1), (3, 1), (3, 2)])]:
        setting = get_setting("G", 2, p)
        E = lie(setting, [Root(c) for c in roots])
        with pytest.raises(ValueError, match="maximal dimension"):
            conjugation_reduce(setting, E)


def test_conjugation_reduce_rejects_a_subspace_that_is_not_elementary():
    # random fillings of the echelon cells of B4's ideals over F3 have the
    # maximal dimension; those that are not elementary reach neither route
    setting = get_setting("B", 4, 3)
    catalog = enumerate_max_commuting(setting.system, p=3)
    place = np.argsort(setting.perm_desc)  # place of each positive root in perm_desc
    rng = np.random.default_rng(0)
    verdicts = set()
    for R, ideal in zip(catalog.sets, catalog.ideals):
        if not ideal:
            continue
        idx = [setting.system.index(r) for r in R.members()]
        pivots, below = _cell(setting, sorted(place[idx].tolist()))
        for _ in range(10):
            rows = setting.field.zeros((len(pivots), setting.n_pos))
            for k, (c, cols) in enumerate(zip(pivots, below)):
                rows[k, c] = 1
                rows[k, cols] = rng.integers(0, 3, len(cols))
            E = subalgebra_from_rows(setting, rows)
            verdicts.add(elementary := is_elementary(setting, E.rows))
            if elementary:
                word, out = conjugation_reduce(setting, E)
                assert replay_verify(setting, E, word, out)
            else:
                with pytest.raises(ValueError, match="E is not an elementary subalgebra of u"):
                    conjugation_reduce(setting, E)
    assert verdicts == {True, False}


def test_brute_force_rejects_dimension_0():
    with pytest.raises(ValueError, match="dimension 0 is out of range"):
        brute_force_Eu(get_setting("A", 2, 5), 0)


def test_conjugation_reduce_g2_f7_one_form_per_class():
    """Each fusion class reduces to one of its own points, and a class holding
    lie(C3), lie(C5) or L reduces to that normal form."""
    setting = get_setting("G", 2, 7)
    points = brute_force_Eu(setting, 3)
    classes = g_conjugacy_classes(setting, points)
    assert (len(points), len(classes)) == (449, 6)  # computed, as `enumerate` prints
    forms = {E.pack() for E in g2_normal_forms(setting).values()}
    outs = [conjugation_reduce(setting, E)[1].pack() for E in points]
    for c in classes:
        members = {points[i].pack() for i in c.point_indices}
        reduced = {outs[i] for i in c.point_indices}
        assert len(reduced) == 1 and reduced <= members
        if forms & members:
            assert reduced == forms & members


def test_conjugation_reduce_g2_f9():
    setting = get_setting("G", 2, 3, 2)
    points = brute_force_Eu(setting, 4)
    assert len(points) == 19
    target = lie(setting, [Root((1, 1)), Root((2, 1)), Root((3, 1)), Root((3, 2))])
    for E in points:
        _, out = conjugation_reduce(setting, E)
        assert out.pack() == target.pack()


# -- product decomposition ---------------------------------------------------


def test_product_count_a1_plus_a1():
    a1 = build_root_system("A", 1)
    gf = GF.get(3)

    def count_max(system, r):
        setting = Setting(system, build_constants(system, default_order(system)), gf)
        return len(brute_force_Eu(setting, r))

    single = count_max(a1, 1)
    total = count_max(direct_sum(a1, a1), 2)
    assert single == 1 and total == single * single
    # and the sum admits nothing bigger
    s2 = direct_sum(a1, a1)
    setting = Setting(s2, build_constants(s2, default_order(s2)), gf)
    assert len(brute_force_Eu(setting, 3)) == 0
