"""Root system construction, arithmetic, and classical data."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chevlie.chevalley import build_constants
from chevlie.commuting import commutation_adjacency
from chevlie.golden import TABLE1_RANKS
from chevlie.orders import default_order
from chevlie.rootsys import EuclidModel, Root, build_root_system
from oracles import (
    commute,
    direct_sum,
    eps_root,
    euclid_positive_roots,
    is_positive,
    structure_constant,
)

CLASSICAL_COUNTS = {
    ("A", 2): 3, ("A", 5): 15, ("B", 2): 4, ("B", 4): 16, ("C", 3): 9,
    ("D", 4): 12, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24,
    ("G", 2): 6,
}


@pytest.mark.parametrize("key", sorted(CLASSICAL_COUNTS))
def test_positive_root_counts(key):
    t, n = key
    sys_ = build_root_system(t, n)
    assert sys_.num_positive == CLASSICAL_COUNTS[key]
    for r in sys_.positive_roots:
        assert is_positive(r)


@pytest.mark.parametrize("t,n", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4)])
def test_epsilon_model_matches_closure(t, n):
    sys_ = build_root_system(t, n)
    assert euclid_positive_roots(EuclidModel(sys_)) == set(sys_.positive_roots)


def test_epsilon_model_lookup():
    em = EuclidModel(build_root_system("B", 4))
    assert eps_root(em, 1, -3) == em.to_root((1, 0, -1, 0)) == Root((1, 1, 0, 0))
    assert eps_root(em, 4) == em.to_root(em.eps(4)) == Root((0, 0, 0, 1))
    assert eps_root(EuclidModel(build_root_system("C", 3)), 2, 2) == Root((0, 2, 1))
    f4 = EuclidModel(build_root_system("F", 4))
    assert f4.to_root((Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))) == Root(
        (0, 0, 0, 1)
    )
    # off the lattice, and a lattice vector that is not a root
    for vec in [(Fraction(1, 2), 0, 0, 0), (2, 0, 0, 0)]:
        with pytest.raises(ValueError, match="is not a root"):
            em.to_root(vec)
    for t, n in [("E", 6), ("G", 2)]:
        with pytest.raises(ValueError, match="no epsilon model"):
            EuclidModel(build_root_system(t, n))


def test_closure_property():
    sys_ = build_root_system("B", 4)
    for a in sys_.positive_roots:
        for b in sys_.positive_roots:
            s = a + b
            if sys_.is_root(s):
                assert s.coeffs in sys_._pos_index


def test_invalid_types_rejected():
    with pytest.raises(ValueError, match="legal"):
        build_root_system("E", 9)
    with pytest.raises(ValueError, match="legal"):
        build_root_system("Z", 3)
    with pytest.raises(ValueError, match="legal"):
        build_root_system("D", 3)
    build_root_system("C", 2)  # accepted, isomorphic to B2


def test_root_strings():
    g2 = build_root_system("G", 2)
    a1, a2 = g2.simple_roots
    assert g2.root_string(a1, a2) == (0, 3)
    a2sys = build_root_system("A", 2)
    assert a2sys.root_string(*a2sys.simple_roots) == (0, 1)
    b2 = build_root_system("B", 2)
    assert b2.root_string(b2.simple_roots[1], b2.simple_roots[0]) == (0, 2)
    with pytest.raises(ValueError, match="proportional"):
        g2.root_string(a1, -a1)


def test_commute():
    a2 = build_root_system("A", 2)
    r1, r2 = a2.simple_roots
    assert not commute(a2, r1, r2)
    for sys_ in (a2, build_root_system("G", 2), build_root_system("B", 3)):
        theta = sys_.highest_root
        assert all(
            commute(sys_, theta, r) for r in sys_.positive_roots if r != theta
        )
    g2 = build_root_system("G", 2)
    assert commute(g2, g2.simple_roots[0], Root((2, 1)), p=3)
    assert not commute(g2, g2.simple_roots[0], Root((2, 1)))


def test_commute_symmetric():
    for t, n in [("B", 3), ("G", 2), ("C", 3)]:
        sys_ = build_root_system(t, n)
        for a in sys_.positive_roots:
            for b in sys_.positive_roots:
                if a != b:
                    assert commute(sys_, a, b) == commute(sys_, b, a)


def test_phi_rad():
    a3 = build_root_system("A", 3)
    assert len(a3.phi_rad(2)) == 4
    b2 = build_root_system("B", 2)
    assert len(b2.phi_rad(1)) == 3
    assert a3.phi_rad(range(1, 4)) == frozenset(a3.positive_roots)
    with pytest.raises(ValueError):
        a3.phi_rad(9)


def test_phi_rad_lattice_property():
    # unions distribute on the nose; for intersections only containment holds
    # (alpha_1 + alpha_2 lies in phi<1> and phi<2> but phi<{}> is empty), see
    # LEDGER.md, phi_rad intersections
    sys_ = build_root_system("B", 4)
    import itertools

    subsets = [set(c) for k in range(3) for c in itertools.combinations(range(1, 5), k)]
    for S in subsets:
        for T in subsets:
            assert sys_.phi_rad(S | T) == sys_.phi_rad(S) | sys_.phi_rad(T)
            assert sys_.phi_rad(S & T) <= sys_.phi_rad(S) & sys_.phi_rad(T)


TABLE1 = {
    # family: ranks, bad, torsion, fundamental (callable of n), string
    "A": (range(1, 7), set(), set(), lambda n: n + 1, 2),
    "B": (range(3, 7), {2}, {2}, lambda n: 2, 3),
    "C": (range(3, 6), {2}, set(), lambda n: 2, 3),
    "D": (range(4, 7), {2}, {2}, lambda n: 4, 2),
    "E6": ([6], {2, 3}, {2, 3}, lambda n: 3, 2),
    "E7": ([7], {2, 3}, {2, 3}, lambda n: 2, 2),
    "E8": ([8], {2, 3, 5}, {2, 3, 5}, lambda n: 1, 2),
    "F4": ([4], {2, 3}, {2, 3}, lambda n: 1, 3),
    "G2": ([2], {2, 3}, {2}, lambda n: 1, 4),
}


@pytest.mark.parametrize("family", sorted(TABLE1))
def test_prime_profiles(family):
    ranks, bad, torsion, fund, string = TABLE1[family]
    t = family[0]
    for n in ranks:
        prof = build_root_system(t, n).prime_profile()
        assert prof.bad_primes == frozenset(bad), (family, n)
        assert prof.torsion_primes == frozenset(torsion), (family, n)
        assert prof.fundamental_group_order == fund(n), (family, n)
        assert prof.longest_root_string == string, (family, n)
        assert prof.torsion_primes <= prof.bad_primes | {2}


def test_b2_c2_isomorphic_invariants():
    # the B2/C2 coincidence: both labels must give matching invariants,
    # which pins torsion(B2) to torsion(C2) = none
    pb = build_root_system("B", 2).prime_profile()
    pc = build_root_system("C", 2).prime_profile()
    assert pb.bad_primes == pc.bad_primes == frozenset({2})
    assert pb.torsion_primes == pc.torsion_primes == frozenset()
    assert pb.fundamental_group_order == pc.fundamental_group_order == 2
    assert pb.longest_root_string == pc.longest_root_string == 3


def test_weyl_action():
    g2 = build_root_system("G", 2)
    a1, a2 = g2.simple_roots
    assert g2.reflect(1, a1) == -a1
    assert g2.reflect(1, a2) == Root((3, 1))
    assert g2.apply_weyl((), a2) == a2
    # every letter is an involution and words send roots to roots
    for sys_ in (g2, build_root_system("B", 3)):
        for i in range(1, sys_.rank + 1):
            for r in sys_.positive_roots:
                img = sys_.reflect(i, r)
                assert sys_.is_root(img)
                assert sys_.reflect(i, img) == r


def test_weyl_enumeration_sizes():
    assert len(build_root_system("G", 2).weyl_elements()) == 12
    assert len(build_root_system("B", 2).weyl_elements()) == 8
    assert len(build_root_system("A", 3).weyl_elements()) == 24
    assert len(build_root_system("F", 4).weyl_elements()) == 1152
    assert build_root_system("B", 5).weyl_elements() is None
    g2 = build_root_system("G", 2)
    assert g2.weyl_elements() is g2.weyl_elements()  # enumerated once per system


def test_weyl_group_order_from_degrees():
    for t, n in [("G", 2), ("B", 2), ("A", 3), ("F", 4)]:
        sys_ = build_root_system(t, n)
        assert math.prod(sys_.degrees()) == len(sys_.weyl_elements())
    for n, order in [(6, 51_840), (7, 2_903_040), (8, 696_729_600)]:
        assert math.prod(build_root_system("E", n).degrees()) == order


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 3), ("D", 4), ("G", 2)])
def test_weyl_words_are_reduced(t, n):
    sys_ = build_root_system(t, n)
    words = sys_.weyl_words()
    signed = sys_.positive_roots + [-r for r in sys_.positive_roots]
    for key, word in words.items():
        img = tuple(signed[k] for k in np.frombuffer(key, dtype=np.int16))
        assert tuple(sys_.apply_weyl(word, r) for r in sys_.positive_roots) == img
        # a reduced word is as long as the number of positive roots sent negative
        assert len(word) == sum(not is_positive(r) for r in img)


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_index_tables_match_root_arithmetic(t, n):
    sys_ = build_root_system(t, n)
    signed = sys_.positive_roots + [-r for r in sys_.positive_roots]
    at = {r: k for k, r in enumerate(signed)}
    for i in range(1, n + 1):
        assert sys_.reflections[i - 1].tolist() == [at[sys_.reflect(i, r)] for r in signed]

    def down(a, b):
        k, cur = 0, b - a
        while sys_.is_root(cur):
            k, cur = k + 1, cur - a
        return k

    assert sys_.string_down.tolist() == [[down(a, b) for b in signed] for a in signed]
    pos = sys_.positive_roots
    for p in (None, 2, 3):
        expected = [0] * len(pos)
        for i, a in enumerate(pos):
            for j, b in enumerate(pos):
                if i < j and (not sys_.is_root(a + b) or (p is not None and down(a, b) == p - 1)):
                    expected[i] |= 1 << j
                    expected[j] |= 1 << i
        assert commutation_adjacency(sys_, p) == expected, p


def test_direct_sum():
    a1 = build_root_system("A", 1)
    s = direct_sum(a1, a1)
    assert s.num_positive == 2
    r1, r2 = s.positive_roots
    assert not s.is_root(r1 + r2)


def test_direct_sum_name():
    s = direct_sum(build_root_system("B", 2), build_root_system("G", 2))
    assert s.name == "B2+G2"
    assert repr(s) == "RootSystem(B2+G2)"
    assert repr(build_root_system("B", 4)) == "RootSystem(B4)"


def _units(rank: int) -> list[Root]:
    return [Root(tuple(int(i == j) for j in range(rank))) for i in range(rank)]


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_simple_roots_are_the_height_one_roots_in_label_order(t, n):
    sys_ = build_root_system(t, n)
    assert sys_.simple_roots == [r for r in sys_.positive_roots if r.height == 1] == _units(n)


@pytest.mark.parametrize("first,second", [(("B", 2), ("G", 2)), (("G", 2), ("B", 2))])
def test_direct_sum_keeps_each_component(first, second):
    # the symmetrizer is walked per component of the Dynkin diagram, so a
    # non-simply-laced second summand keeps its root lengths and constants
    a, b = build_root_system(*first), build_root_system(*second)
    s = direct_sum(a, b)
    assert s.symmetrizer == a.symmetrizer + b.symmetrizer
    assert s.simple_roots == [r for r in s.positive_roots if r.height == 1] == _units(4)
    cs = build_constants(s, default_order(s))
    for part, before in ((a, ()), (b, (0, 0))):
        after = (0,) * (2 - len(before))
        embed = lambda r: Root(before + r.coeffs + after)
        cp = build_constants(part, default_order(part))
        signed = part.positive_roots + [-r for r in part.positive_roots]
        assert [s.norm2(embed(r)) for r in signed] == [part.norm2(r) for r in signed]
        for x in signed:
            for y in signed:
                if x != -y and part.is_root(x + y):
                    want = structure_constant(cp, x, y)
                    assert structure_constant(cs, embed(x), embed(y)) == want, (x, y)
