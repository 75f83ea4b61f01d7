"""Class and spectrum reports for the finite Chevalley groups."""

import math

import pytest

from chevlie.chevgroups import class_report, spectrum_report
from chevlie.commuting import enumerate_max_commuting
from chevlie.elementary import BudgetExceeded
from chevlie.rootsys import build_root_system
from oracles import g2_witness_classes

TABLE4 = {
    # (type, rank): (class_count, order exponent)
    ("A", 2): (3, 2),
    ("A", 3): (1, 4),
    ("A", 4): (2, 6),
    ("A", 5): (1, 9),
    ("A", 6): (2, 12),
    ("B", 2): (1, 3),
    ("B", 3): (1, 5),
    ("B", 4): (2, 7),
    ("B", 5): (1, 11),
    ("B", 6): (1, 16),
    ("C", 2): (1, 3),
    ("C", 3): (1, 6),
    ("C", 4): (1, 10),
    ("D", 4): (3, 6),
    ("D", 5): (2, 10),
    ("D", 6): (2, 15),
    ("E", 6): (2, 16),
    ("E", 7): (1, 27),
    ("E", 8): (1, 36),
    ("F", 4): (1, 9),
    ("G", 2): (">=3", 3),
}


@pytest.mark.parametrize("key", sorted(TABLE4))
def test_class_reports(key):
    t, n = key
    count, exponent = TABLE4[key]
    rep = class_report(t, n, 7 if t == "E" else 5)
    assert rep["class_count"] == count
    assert rep["order_exponent"] == exponent
    if isinstance(count, int) and (t, n) != ("A", 2):
        assert len(rep["representatives"]) == count


def test_class_count_is_computed_not_tabulated():
    # non-exceptional rows: count equals the ideal-bearing component count
    for t, n in [("A", 4), ("B", 4), ("B", 5), ("D", 4), ("E", 6), ("F", 4)]:
        cat = enumerate_max_commuting(build_root_system(t, n))
        ideal_comps = sum(
            1 for comp in cat.orbit_components if any(cat.ideals[k] for k in comp)
        )
        assert class_report(t, n, 5)["class_count"] == ideal_comps
        assert class_report(t, n, 5)["order_exponent"] == cat.m


def test_bad_prime_rejected():
    with pytest.raises(ValueError, match="bad"):
        class_report("G", 2, 3)
    with pytest.raises(ValueError, match="bad"):
        class_report("B", 4, 2)
    with pytest.raises(ValueError, match="bad"):
        spectrum_report("E", 8, 5)


@pytest.mark.parametrize("key", sorted(TABLE4))
def test_spectrum_reports(key):
    t, n = key
    count, exponent = TABLE4[key]
    for r in (1, 2):
        rep = spectrum_report(t, n, 7, r) if t in "E" else spectrum_report(t, n, 5, r)
        assert rep["component_count"] == count
        assert rep["dimension_exponent"] == r * exponent - 1
        assert rep["rank_exponent"] == r * exponent
        # the tabulated p^(rm - 1); the Krull dimension is rm (LEDGER.md)
        assert rep["dimension"] == f"p^{r * exponent - 1}"


def test_spectrum_matches_class_counts():
    for t, n in sorted(TABLE4):
        p = 7 if t == "E" else 5
        assert spectrum_report(t, n, p)["component_count"] == class_report(t, n, p)["class_count"]


def test_a2_third_class_only_for_p_at_least_3():
    # at p = 2 the span of x_a1 + x_a2 and x_{a1+a2} is not 2-nilpotent, so
    # only the two Chevalley classes remain; fusion on the points agrees
    from chevlie.elementary import brute_force_Eu, g_conjugacy_classes, get_setting

    for p, count in [(2, 2), (3, 3)]:
        rep = class_report("A", 2, p)
        assert rep["class_count"] == count
        assert len(rep["representatives"]) == count
        assert spectrum_report("A", 2, p)["component_count"] == count
        setting = get_setting("A", 2, p)
        assert len(g_conjugacy_classes(setting, brute_force_Eu(setting, 2))) == count


def test_witness_rejects_unsupported():
    with pytest.raises(ValueError):
        g2_witness_classes(3, 1)  # bad prime: the maximal dimension is 4
    with pytest.raises(ValueError):
        g2_witness_classes(5, 4)  # no pinned field F_625
    with pytest.raises(BudgetExceeded):
        g2_witness_classes(5, 3)  # about 2 million points over F125


@pytest.mark.parametrize("q,classes", [(7, 6), (11, 4), (13, 6)])
def test_witness_class_count_depends_on_q(q, classes):
    # 3 + gcd(3, q - 1) classes of q^3 + 2q^2 + q + 1 points (LEDGER.md, G2
    # over F_q: the class count depends on q)
    assert len(g2_witness_classes(q, 1)) == classes == 3 + math.gcd(3, q - 1)
    assert sum(c.size for c in g2_witness_classes(q, 1)) == q**3 + 2 * q**2 + q + 1


def test_witness_f5():
    # the count over F5 is four, confirmed by the ambient orbit count (see
    # LEDGER.md, G2 over F5)
    assert len(g2_witness_classes(5, 1)) == 4
    assert sorted(c.normalizer_dim for c in g2_witness_classes(5, 1)) == [6, 6, 7, 9]
