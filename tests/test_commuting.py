"""Maximal commuting sets, ideals, stabilizers, and the closed forms."""

import hashlib
import math
import random

import pytest

from chevlie.golden import TABLE1_RANKS
from chevlie.rootsys import Root, build_root_system
from chevlie.commuting import (
    catalog_to_json,
    commutation_adjacency,
    commuting_set,
    enumerate_max_commuting,
    is_ideal,
    maximum_cliques,
    weyl_stabilizer_generators,
    _reflect_mask,
)
from oracles import appendix_oracle, commute

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


def _pendant_cores(rng: random.Random):
    """(n, complement edges) of odd cycles and random triangle-free cores, with
    up to four pendant paths hung on them: in a bare cycle a degree-1 vertex
    appears only once a branch has removed a core vertex."""
    for _ in range(60):
        k = rng.choice([3, 5, 5, 7, 7, 9])
        if rng.random() < 0.5:
            edges = {(i, (i + 1) % k) for i in range(k)}
            if k > 5 and rng.random() < 0.5:
                edges.add((0, k // 2))  # a chord leaves two shorter cycles
        else:
            nbrs = [set() for _ in range(k)]
            for u in range(k):
                for v in range(u + 1, k):
                    if rng.random() < 0.45 and not nbrs[u] & nbrs[v]:  # no triangle
                        nbrs[u].add(v)
                        nbrs[v].add(u)
            edges = {(u, v) for u in range(k) for v in nbrs[u] if u < v}
        n = k
        for _ in range(rng.randint(0, 4)):
            length = rng.randint(1, 3)
            if n + length > 16:
                break
            at = rng.randrange(n)
            for w in range(n, n + length):
                edges.add((at, w))
                at = w
            n += length
        order = list(range(n))
        rng.shuffle(order)  # so the branch order does not follow the construction
        yield n, {(order[u], order[v]) for u, v in edges}


def test_maximum_cliques_degree_one_split():
    # "v in" or "u in" for a degree-1 v: a missing "u in" branch loses the sets
    # holding u, and one taken without its alpha check adds smaller sets
    for n, edges in _pendant_cores(random.Random(20150305)):
        adj = _from_complement(n, edges)
        assert maximum_cliques(adj, n) == _brute_force_cliques(adj, n), (n, sorted(edges))


def _degree_two_graphs(rng: random.Random):
    """(n, complement edges) of graphs rich in degree-2 vertices, n <= 16:
    cycles, subdivided random graphs (a degree-2 vertex on each edge, its
    neighbours apart), triangles with pendant paths, and chains of K4 minus an
    edge (the two ends of the missing edge have degree 2 and adjacent
    neighbours)."""
    for k in range(3, 13):
        yield k, {(i, (i + 1) % k) for i in range(k)}
    for _ in range(12):
        k = rng.randint(3, 6)
        base = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.5]
        base = base[: 16 - k]
        yield k + len(base), {e for w, (u, v) in enumerate(base, k) for e in ((u, w), (w, v))}
    for _ in range(12):
        edges, n = set(), 0
        for _ in range(rng.randint(1, 3)):  # triangles, each tied to the last
            edges |= {(n, n + 1), (n + 1, n + 2), (n, n + 2)}
            if n:
                edges.add((rng.randrange(n), n + rng.randrange(3)))
            n += 3
        while n < 16 and rng.random() < 0.7:  # pendant paths
            at = rng.randrange(n)
            for w in range(n, min(n + rng.randint(1, 3), 16)):
                edges.add((at, w))
                at = w
            n = w + 1
        yield n, edges
    for _ in range(12):
        edges, n = set(), 0
        for _ in range(rng.randint(1, 4)):  # K4 on n..n+3 less the edge n, n+1
            edges |= {(n, n + 2), (n, n + 3), (n + 1, n + 2), (n + 1, n + 3), (n + 2, n + 3)}
            if n:
                edges.add((rng.randrange(n), n + rng.choice([2, 3])))
            n += 4
        yield n, edges


def test_maximum_cliques_degree_two_rules():
    # a degree-2 v with N(v) = {a, b}: "v in" with v traded for a or b, plus
    # "a and b in" unless a ~ b; a lost trade or triangle case shows here
    rng = random.Random(20150306)
    for n, edges in _degree_two_graphs(rng):
        order = list(range(n))
        rng.shuffle(order)
        adj = _from_complement(n, {(order[u], order[v]) for u, v in edges})
        assert maximum_cliques(adj, n) == _brute_force_cliques(adj, n), (n, sorted(edges))


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
    # where the p-graph is the plain one the catalog reuses the plain cliques
    adj = commutation_adjacency(sys_, p)
    assert [s.mask for s in cat.sets] == maximum_cliques(adj, sys_.num_positive)[1]
    for s in cat.sets:
        members = s.members()
        assert len(members) == cat.m
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert commute(sys_, a, b, p)


def test_catalogs_are_built_once_per_system_and_p():
    s = build_root_system("B", 3)
    assert enumerate_max_commuting(s) is enumerate_max_commuting(s)
    assert enumerate_max_commuting(s, p=5) is enumerate_max_commuting(s, p=5)


# (m, count, first 16 hex digits of the SHA-256 of ",".join(map(str, cliques)))
# of `maximum_cliques` for every `TABLE1_RANKS` type at p = None, 2 and 3: the
# golden maxsets table pins (m, count) only, so this pins the sets themselves
CLIQUE_DIGESTS = {
    ("A", 1, None): (1, 1, "6b86b273ff34fce1"),
    ("A", 1, 2): (1, 1, "6b86b273ff34fce1"),
    ("A", 1, 3): (1, 1, "6b86b273ff34fce1"),
    ("A", 2, None): (2, 2, "e96f71a6079688ae"),
    ("A", 2, 2): (2, 2, "e96f71a6079688ae"),
    ("A", 2, 3): (2, 2, "e96f71a6079688ae"),
    ("A", 3, None): (4, 1, "6208ef0f7750c111"),
    ("A", 3, 2): (4, 1, "6208ef0f7750c111"),
    ("A", 3, 3): (4, 1, "6208ef0f7750c111"),
    ("A", 4, None): (6, 2, "b84e78f689e1148a"),
    ("A", 4, 2): (6, 2, "b84e78f689e1148a"),
    ("A", 4, 3): (6, 2, "b84e78f689e1148a"),
    ("A", 5, None): (9, 1, "433abb1e3761643f"),
    ("A", 5, 2): (9, 1, "433abb1e3761643f"),
    ("A", 5, 3): (9, 1, "433abb1e3761643f"),
    ("A", 6, None): (12, 2, "2a563a72576bc577"),
    ("A", 6, 2): (12, 2, "2a563a72576bc577"),
    ("A", 6, 3): (12, 2, "2a563a72576bc577"),
    ("B", 2, None): (3, 1, "3fdba35f04dc8c46"),
    ("B", 2, 2): (3, 2, "858d37b5a6935b85"),
    ("B", 2, 3): (3, 1, "3fdba35f04dc8c46"),
    ("B", 3, None): (5, 1, "0dfcddb0440e967f"),
    ("B", 3, 2): (6, 1, "0604cd3138feed20"),
    ("B", 3, 3): (5, 1, "0dfcddb0440e967f"),
    ("B", 4, None): (7, 8, "bf120c5f6d384b1e"),
    ("B", 4, 2): (10, 1, "47fd889470024d18"),
    ("B", 4, 3): (7, 8, "bf120c5f6d384b1e"),
    ("B", 5, None): (11, 9, "538581429cf56184"),
    ("B", 5, 2): (15, 1, "12f5a17d7cda7bca"),
    ("B", 5, 3): (11, 9, "538581429cf56184"),
    ("B", 6, None): (16, 11, "de86b4abc3869fbd"),
    ("B", 6, 2): (21, 1, "80de1ebba9d1d7de"),
    ("B", 6, 3): (16, 11, "de86b4abc3869fbd"),
    ("C", 2, None): (3, 1, "8527a891e2241369"),
    ("C", 2, 2): (3, 2, "858d37b5a6935b85"),
    ("C", 2, 3): (3, 1, "8527a891e2241369"),
    ("C", 3, None): (6, 1, "0604cd3138feed20"),
    ("C", 3, 2): (6, 1, "0604cd3138feed20"),
    ("C", 3, 3): (6, 1, "0604cd3138feed20"),
    ("C", 4, None): (10, 1, "47fd889470024d18"),
    ("C", 4, 2): (10, 1, "47fd889470024d18"),
    ("C", 4, 3): (10, 1, "47fd889470024d18"),
    ("C", 5, None): (15, 1, "12f5a17d7cda7bca"),
    ("C", 5, 2): (15, 1, "12f5a17d7cda7bca"),
    ("C", 5, 3): (15, 1, "12f5a17d7cda7bca"),
    ("D", 4, None): (6, 3, "7208ed0e268abc78"),
    ("D", 4, 2): (6, 3, "7208ed0e268abc78"),
    ("D", 4, 3): (6, 3, "7208ed0e268abc78"),
    ("D", 5, None): (10, 2, "79d94eb569adda2b"),
    ("D", 5, 2): (10, 2, "79d94eb569adda2b"),
    ("D", 5, 3): (10, 2, "79d94eb569adda2b"),
    ("D", 6, None): (15, 2, "349cb1838ebbe765"),
    ("D", 6, 2): (15, 2, "349cb1838ebbe765"),
    ("D", 6, 3): (15, 2, "349cb1838ebbe765"),
    ("E", 6, None): (16, 2, "6e8c54464e4ed0a8"),
    ("E", 6, 2): (16, 2, "6e8c54464e4ed0a8"),
    ("E", 6, 3): (16, 2, "6e8c54464e4ed0a8"),
    ("E", 7, None): (27, 1, "2f2f7a0a76b07cd5"),
    ("E", 7, 2): (27, 1, "2f2f7a0a76b07cd5"),
    ("E", 7, 3): (27, 1, "2f2f7a0a76b07cd5"),
    ("E", 8, None): (36, 134, "25e41e3333fd99e3"),
    ("E", 8, 2): (36, 134, "25e41e3333fd99e3"),
    ("E", 8, 3): (36, 134, "25e41e3333fd99e3"),
    ("F", 4, None): (9, 28, "adfe23c3ffb59183"),
    ("F", 4, 2): (11, 56, "4d7974d3dbd0a8dc"),
    ("F", 4, 3): (9, 28, "adfe23c3ffb59183"),
    ("G", 2, None): (3, 5, "1ce5675c9c0f3987"),
    ("G", 2, 2): (4, 1, "2858dcd1057d3eae"),
    ("G", 2, 3): (4, 3, "3c07c32856484660"),
}


@pytest.mark.parametrize("t,n,p", list(CLIQUE_DIGESTS))
def test_maximum_clique_lists_pinned(t, n, p):
    sys_ = build_root_system(t, n)
    m, cliques = maximum_cliques(commutation_adjacency(sys_, p), sys_.num_positive)
    digest = hashlib.sha256(",".join(map(str, cliques)).encode()).hexdigest()[:16]
    assert (m, len(cliques), digest) == CLIQUE_DIGESTS[(t, n, p)]


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_abelian_ideals_peterson(t, n):
    # a second route to the ideal flags: grow the abelian ideals of b upward,
    # adding a root once every root one simple step above it is in and it
    # commutes with the ideal; Peterson's count is 2^rank (Kostant, IMRN 1998)
    sys_ = build_root_system(t, n)
    N = sys_.num_positive
    up = sys_.sum_index[:N, :n].tolist()  # root k plus alpha_i
    add = (sys_.sum_index[:N, :N] >= 0).tolist()
    ideals, todo = {0}, [0]
    for I in todo:
        for k in range(N):
            J = I | 1 << k  # J == I is already in ideals
            above = all(I >> j & 1 for j in up[k] if j >= 0)
            if J not in ideals and above and not any(add[k][j] for j in range(N) if J >> j & 1):
                ideals.add(J)
                todo.append(J)
    assert len(ideals) == 2 ** n
    cat = enumerate_max_commuting(sys_)
    flagged = {s.mask for s, flag in zip(cat.sets, cat.ideals) if flag}
    assert flagged == {I for I in ideals if I.bit_count() == cat.m}


def test_catalog_sets_are_maximal_and_commuting():
    for t, n in [("B", 4), ("G", 2), ("F", 4), ("A", 5)]:
        sys_ = build_root_system(t, n)
        cat = enumerate_max_commuting(sys_)
        for s in cat.sets:
            members = s.members()
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert commute(sys_, a, b)
            others = [r for r in sys_.positive_roots if r not in s]
            for r in others:
                assert not all(commute(sys_, r, b) for b in members)


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


def test_f4_p2_flags_b_stable_sets():
    # over F_2 two sets that are not ideals of Phi+ are B(F_2)-stable, since
    # each missing a + k gamma comes with an even C(r + k, k); four of the
    # six components then hold exactly one flagged set
    cat = enumerate_max_commuting(build_root_system("F", 4), p=2)
    assert [k for k, flag in enumerate(cat.ideals) if flag] == [45, 51, 54, 55]
    assert [is_ideal(cat.sets[k]) for k in (45, 51, 54, 55)] == [False, False, True, True]
    held = [sum(cat.ideals[k] for k in comp) for comp in cat.orbit_components]
    assert len(held) == 6 and sorted(held) == [0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_components_hold_at_most_one_ideal(t, n):
    # so the ideal a closed orbit's points walk to is one normal form per orbit
    sys_ = build_root_system(t, n)
    for p in (None, 2, 3, 5, 7):
        cat = enumerate_max_commuting(sys_, p=p)
        for comp in cat.orbit_components:
            assert sum(cat.ideals[k] for k in comp) <= 1


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_to_ideal_paths_are_shortest(t, n):
    # every set of a component with an ideal replays its letters onto that
    # ideal, by as many letters as a breadth-first search from the set takes
    sys_ = build_root_system(t, n)
    for p in (None, 2, 3, 5, 7):
        cat = enumerate_max_commuting(sys_, p=p)
        ideal_of = {s.mask: flag for s, flag in zip(cat.sets, cat.ideals)}
        moves = {
            X: [Y for i in range(1, n + 1) if (Y := _reflect_mask(sys_, i, X)) is not None]
            for X in ideal_of
        }
        for comp in cat.orbit_components:
            has_ideal = any(cat.ideals[k] for k in comp)
            for k in comp:
                X = cat.sets[k].mask
                if not has_ideal:
                    assert X not in cat.to_ideal
                    continue
                letters, ideal = cat.to_ideal[X]
                Y = X
                for i in letters:
                    Y = _reflect_mask(sys_, i, Y)
                assert Y == ideal and ideal_of[ideal]
                dist, todo = {X: 0}, [X]
                for Z in todo:
                    if ideal_of[Z]:
                        break
                    for W in moves[Z]:
                        if W not in dist:
                            dist[W] = dist[Z] + 1
                            todo.append(W)
                assert len(letters) == dist[Z]


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
            R = commuting_set(sys_, sys_.phi_rad(i))
            gens, rep = weyl_stabilizer_generators(R)
            assert gens == set(range(1, n + 1)) - {i}
            # each other simple reflection moves R, by Root-level reflection
            members = set(R.members())
            for j in set(range(1, n + 1)) - gens:
                assert {sys_.reflect(j, a) for a in members} != members
            if rep["exhaustive"]:
                assert rep["stabilizer_equals_parabolic"]
    # the certified orders in closed form: A4 phi<i> is fixed by S_i x S_{5-i}
    a4, d4 = build_root_system("A", 4), build_root_system("D", 4)
    for i in range(1, 5):
        _, rep = weyl_stabilizer_generators(commuting_set(a4, a4.phi_rad(i)))
        order = math.factorial(i) * math.factorial(5 - i)
        assert rep["stabilizer_order"] == rep["parabolic_order"] == order
    for i, order in [(1, 24), (2, 8), (3, 24), (4, 24)]:
        _, rep = weyl_stabilizer_generators(commuting_set(d4, d4.phi_rad(i)))
        assert rep["stabilizer_order"] == rep["parabolic_order"] == order
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
    + [("B", 5), ("B", 6), ("D", 7), ("D", 8), ("F", 4), ("G", 2)]
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
