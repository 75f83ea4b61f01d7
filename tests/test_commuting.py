"""Maximal commuting sets, ideals, stabilizers, and the closed forms."""

import random

import pytest

from chevlie.golden import TABLE1_RANKS
from chevlie.rootsys import Root, build_root_system
from chevlie.commuting import (
    appendix_oracle,
    catalog_to_json,
    commuting_set,
    enumerate_max_commuting,
    is_ideal,
    maximum_cliques,
    partial_weyl_orbits,
    weyl_stabilizer_generators,
)

TABLE2 = {
    ("A", 4): (6, 2), ("A", 5): (9, 1), ("B", 2): (3, 1), ("B", 3): (5, 1),
    ("B", 4): (7, 8), ("B", 5): (11, 9), ("B", 6): (16, 11), ("C", 3): (6, 1),
    ("C", 4): (10, 1), ("D", 4): (6, 3), ("D", 5): (10, 2), ("D", 6): (15, 2),
    ("E", 6): (16, 2), ("E", 7): (27, 1), ("F", 4): (9, 28), ("G", 2): (3, 5),
}


@pytest.mark.parametrize("key", sorted(TABLE2))
def test_table2_counts(key):
    cat = enumerate_max_commuting(build_root_system(*key))
    assert (cat.m, cat.count) == TABLE2[key]


def _from_complement(n: int, edges) -> list[int]:
    """Bitmask adjacency of the graph whose non-edges are `edges`."""
    full = (1 << n) - 1
    adj = [full & ~(1 << v) for v in range(n)]
    for u, v in edges:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return adj


def _brute_force_cliques(adj: list[int], n: int) -> tuple[int, list[int]]:
    cliques = [
        S for S in range(1 << n)
        if all(S & ~adj[v] & ~(1 << v) == 0 for v in range(n) if S >> v & 1)
    ]
    size = max(S.bit_count() for S in cliques)
    return size, sorted(S for S in cliques if S.bit_count() == size)


def test_maximum_cliques_on_small_graphs():
    # 5-cycle: maximum cliques are the 5 edges
    adj = [0] * 5
    for i in range(5):
        for j in (i - 1, i + 1):
            adj[i] |= 1 << (j % 5)
    size, cliques = maximum_cliques(adj, 5)
    assert size == 2 and len(cliques) == 5
    # complete graph
    adj = [((1 << 4) - 1) & ~(1 << i) for i in range(4)]
    size, cliques = maximum_cliques(adj, 4)
    assert size == 4 and cliques == [15]
    # complement path a-b-c-d: {a,c}, {a,d} and {b,d}
    adj = _from_complement(4, [(0, 1), (1, 2), (2, 3)])
    assert maximum_cliques(adj, 4) == (2, sorted([0b0101, 0b1001, 0b1010]))
    # complement perfect matching on k edges: one end of each edge, 2^k ways
    for k in range(1, 6):
        adj = _from_complement(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
        size, cliques = maximum_cliques(adj, 2 * k)
        assert size == k and len(cliques) == 2 ** k == len(set(cliques))
        assert cliques == _brute_force_cliques(adj, 2 * k)[1]


def test_maximum_cliques_match_brute_force():
    rng = random.Random(20150304)
    for _ in range(240):
        n = rng.randint(1, 14)
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        # split into several components, each a random sparse graph with a
        # pendant tail, and leave some vertices isolated in the complement
        start = 0
        while start < n:
            size = rng.randint(1, n - start)
            comp = order[start:start + size]
            start += size
            if rng.random() < 0.2:
                continue
            density = rng.choice([0.15, 0.3, 0.5])
            for i, u in enumerate(comp):
                for v in comp[i + 1:]:
                    if rng.random() < density:
                        edges.add((u, v))
            for i in range(1, len(comp)):
                if rng.random() < 0.3:
                    edges.add((comp[i - 1], comp[i]))
        adj = _from_complement(n, edges)
        assert maximum_cliques(adj, n) == _brute_force_cliques(adj, n)


def _malcev_m(t: str, n: int) -> int:
    if t == "A":
        return (n + 1) ** 2 // 4
    if t == "B":
        return {2: 3, 3: 5}.get(n, n * (n - 1) // 2 + 1)
    if t == "C":
        return n * (n + 1) // 2
    if t == "D":
        return n * (n - 1) // 2
    return {("E", 6): 16, ("E", 7): 27, ("E", 8): 36, ("F", 4): 9, ("G", 2): 3}[(t, n)]


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_m_matches_malcev(t, n):
    """m is the largest dimension of a commutative subalgebra of u, as found by
    A. I. Malcev, "Commutative subalgebras of semi-simple Lie algebras",
    Izv. Akad. Nauk SSSR Ser. Mat. 9 (1945): a second route to the m the
    clique search computes."""
    assert enumerate_max_commuting(build_root_system(t, n)).m == _malcev_m(t, n)


# (m, count) of the p-commuting catalogs at p = 2 and p = 3; the golden files
# pin only the plain predicate
P_CATALOGS = {
    ("G", 2): {2: (4, 1), 3: (4, 3)},
    ("B", 3): {2: (6, 1), 3: (5, 1)},
    ("B", 4): {2: (10, 1), 3: (7, 8)},
    ("C", 3): {2: (6, 1), 3: (6, 1)},
    ("F", 4): {2: (11, 56), 3: (9, 28)},
    ("A", 4): {2: (6, 2), 3: (6, 2)},
    ("D", 4): {2: (6, 3), 3: (6, 3)},
    ("E", 6): {2: (16, 2), 3: (16, 2)},
}


@pytest.mark.parametrize("t,n,p", [(t, n, p) for (t, n), by_p in P_CATALOGS.items() for p in by_p])
def test_p_commuting_catalogs(t, n, p):
    sys_ = build_root_system(t, n)
    cat = enumerate_max_commuting(sys_, p=p)
    assert (cat.m, cat.count) == P_CATALOGS[(t, n)][p]
    assert len({s.mask for s in cat.sets}) == cat.count
    for s in cat.sets:
        members = s.members()
        assert len(members) == cat.m
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert sys_.commute(a, b, p)


def test_catalog_sets_are_maximal_and_commuting():
    for t, n in [("B", 4), ("G", 2), ("F", 4), ("A", 5)]:
        sys_ = build_root_system(t, n)
        cat = enumerate_max_commuting(sys_)
        for s in cat.sets:
            members = s.members()
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert sys_.commute(a, b)
            others = [r for r in sys_.positive_roots if r not in s]
            for r in others:
                assert not all(sys_.commute(r, b) for b in members)


def test_is_ideal():
    g2 = build_root_system("G", 2)
    cat = enumerate_max_commuting(g2)
    named = {
        tuple(sorted(r.coeffs for r in s.members())): s for s in cat.sets
    }
    C5 = named[((2, 1), (3, 1), (3, 2))]
    assert is_ideal(C5)
    for key, s in named.items():
        if s is not C5:
            assert not is_ideal(s)
    # phi<i> is always an ideal
    for t, n in [("A", 4), ("B", 4), ("C", 3), ("D", 4), ("E", 6), ("F", 4)]:
        sys_ = build_root_system(t, n)
        for i in range(1, n + 1):
            assert is_ideal(commuting_set(sys_, sys_.phi_rad(i)))
    # B5: S_1 is an ideal
    b5 = build_root_system("B", 5)
    cat5 = enumerate_max_commuting(b5)
    assert sum(cat5.ideals) == 1


def test_g2_p3_sets():
    g2 = build_root_system("G", 2)
    cat = enumerate_max_commuting(g2, p=3)
    assert cat.m == 4 and cat.count == 3
    got = {tuple(sorted(r.coeffs for r in s.members())) for s in cat.sets}
    assert got == {
        ((1, 1), (2, 1), (3, 1), (3, 2)),
        ((1, 0), (2, 1), (3, 1), (3, 2)),
        ((0, 1), (1, 1), (2, 1), (3, 2)),
    }
    assert len(cat.orbit_components) == 1  # mutually connected


def test_partial_weyl_orbits_g2():
    cat = enumerate_max_commuting(build_root_system("G", 2))
    comps = cat.orbit_components
    assert len(comps) == 2
    sizes = sorted(len(c) for c in comps)
    assert sizes == [2, 3]
    with_ideal = [any(cat.ideals[k] for k in c) for c in comps]
    assert sum(with_ideal) == 1
    two = next(c for c in comps if len(c) == 2)
    assert any(cat.ideals[k] for k in two)


def test_partial_weyl_orbits_structure():
    # every component of B_n, E8(via golden test), F4 contains exactly one ideal
    for t, n in [("B", 4), ("B", 5), ("F", 4)]:
        cat = enumerate_max_commuting(build_root_system(t, n))
        for comp in cat.orbit_components:
            assert sum(1 for k in comp if cat.ideals[k]) == 1
    # A_{2n}: the two blocks lie in distinct components
    for n in (2, 4):
        cat = enumerate_max_commuting(build_root_system("A", n))
        assert len(cat.orbit_components) == 2
    # D4 triality: the three blocks in distinct components, permuted by the
    # diagram automorphism relabeling 1 -> 3 -> 4 -> 1
    d4 = build_root_system("D", 4)
    cat = enumerate_max_commuting(d4)
    assert len(cat.orbit_components) == 3
    perm = {1: 3, 3: 4, 4: 1, 2: 2}
    masks = {s.mask for s in cat.sets}
    for s in cat.sets:
        relabeled = commuting_set(
            d4,
            [
                Root(tuple(r.coeffs[perm[j + 1] - 1] for j in range(4)))
                for r in s.members()
            ],
        )
        assert relabeled.mask in masks


def test_weyl_stabilizers_table3():
    # phi<i> rows: generators are the complementary simple reflections
    for t, n in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        sys_ = build_root_system(t, n)
        for i in range(1, n + 1):
            gens, rep = weyl_stabilizer_generators(commuting_set(sys_, sys_.phi_rad(i)))
            assert gens == set(range(1, n + 1)) - {i}
            assert rep["non_generators_move_R"]
            if rep["exhaustive"]:
                assert rep["stabilizer_equals_parabolic"]
    # B_n: S_1 has generators Delta minus {alpha_1, alpha_n}
    for n in (4, 5):
        cat = enumerate_max_commuting(build_root_system("B", n))
        s1 = [s for s, f in zip(cat.sets, cat.ideals) if f and s.mask != commuting_set(cat.system, cat.system.phi_rad(1)).mask]
        gens, rep = weyl_stabilizer_generators(s1[0])
        assert gens == set(range(2, n))
    # exceptional rows
    for t, n, expected in [("E", 8, {1, 3, 4, 5, 6, 7, 8}), ("F", 4, {1, 3}), ("G", 2, {2})]:
        cat = enumerate_max_commuting(build_root_system(t, n))
        ideal = next(s for s, f in zip(cat.sets, cat.ideals) if f)
        gens, rep = weyl_stabilizer_generators(ideal)
        assert gens == expected
        if rep["exhaustive"]:
            assert rep["stabilizer_equals_parabolic"]


def test_exhaustive_stabilizers_small_groups():
    for t, n in [("G", 2), ("F", 4), ("B", 4), ("D", 4)]:
        cat = enumerate_max_commuting(build_root_system(t, n))
        for s, f in zip(cat.sets, cat.ideals):
            if f:
                _, rep = weyl_stabilizer_generators(s)
                assert rep["exhaustive"]
                assert rep["stabilizer_equals_parabolic"]


APPENDIX_CASES = (
    [("A", n) for n in range(1, 7)]
    + [("C", n) for n in range(3, 6)]
    + [("B", 5), ("B", 6), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("t,n", APPENDIX_CASES)
def test_appendix_oracle_equivalence(t, n):
    cat = enumerate_max_commuting(build_root_system(t, n))
    orc = appendix_oracle(t, n)
    assert [s.mask for s in cat.sets] == [s.mask for s in orc.sets]


def test_appendix_oracle_f4_case_counts():
    orc = appendix_oracle("F", 4)
    assert orc.count == 28 and orc.m == 9


def test_appendix_oracle_rejects_unsupported():
    with pytest.raises(ValueError):
        appendix_oracle("B", 4)
    with pytest.raises(ValueError):
        appendix_oracle("D", 5)
    with pytest.raises(ValueError):
        appendix_oracle("E", 6)


def test_catalog_json():
    cat = enumerate_max_commuting(build_root_system("G", 2))
    data = catalog_to_json(cat)
    assert data["m"] == 3 and data["count"] == 5
    assert len(data["sets"]) == 5
    ideals = [s for s in data["sets"] if s["ideal"]]
    assert len(ideals) == 1
    assert ideals[0]["stabilizer_generators"] == [2]
    assert {s["orbit"] for s in data["sets"]} == {0, 1}


def test_cominuscule_blocks_present():
    # types with cominuscule blocks: the sets phi<i> from the table appear
    for t, n, idx in [("A", 5, [3]), ("C", 3, [3]), ("D", 5, [4, 5]), ("E", 6, [1, 6]), ("E", 7, [7])]:
        sys_ = build_root_system(t, n)
        cat = enumerate_max_commuting(sys_)
        masks = {s.mask for s in cat.sets}
        for i in idx:
            assert commuting_set(sys_, sys_.phi_rad(i)).mask in masks
