"""Acceptance criteria, one pass/fail line per criterion.

Each expected value is either the stated one or, where the stated value
over-reads the source, the computed one together with a second, independent
route to it inside the same test (LEDGER.md has the evidence and the commands
that reproduce it):

* criterion 6: rank-2 type A has q + 1 points for p >= 3 but two at p = 2,
  where the span of x_{a1} + x_{a2} and the highest root vector is abelian
  but not 2-nilpotent; plain 3x3 integer matrices certify it;
* criteria 6, 7 and 9: over F5 the unipotent points of G2 fall into four
  G(F5)-classes; the ambient orbit count under generators of G2(F5) gives
  four as well, every orbit size divides |G2(F5)|, and the fourth class has
  its own normal form N4.  The golden tables carry only the bound ">=3".
"""

import time

import numpy as np
import pytest

from chevlie.gf import GF
from chevlie.orders import canonical_order, default_order
from chevlie.rootsys import Root, build_root_system
from chevlie.chevalley import build_constants, root_group_element
from chevlie.commuting import (
    commuting_set,
    enumerate_max_commuting,
    weyl_stabilizer_generators,
)
from chevlie.elementary import (
    Setting,
    brute_force_Eu,
    build_leading_term_system,
    conjugation_reduce,
    g_conjugacy_classes,
    get_setting,
    leading_term_solve,
    lie,
    lt,
    normalizer_in_g,
    solution_subalgebra,
    subalgebra_from_rows,
    _apply_word_u,
)
from chevlie import golden as goldmod
from oracles import (
    appendix_oracle,
    b_family,
    commute,
    direct_sum,
    g2_witness_classes,
    orbit_decompose,
    sparse_bracket,
)


def _verdict(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}" + (f" -- {'; '.join(failures)}" if failures else ""))
    assert not failures, f"{name}: {failures}"


def test_criterion_1_table1():
    """Table of bad/torsion primes, fundamental groups, string lengths."""
    failures = []
    t0 = time.time()
    expected = {
        ("A", range(1, 7)): (set(), set(), lambda n: n + 1, 2),
        ("B", range(3, 7)): ({2}, {2}, lambda n: 2, 3),
        ("C", range(3, 6)): ({2}, set(), lambda n: 2, 3),
        ("D", range(4, 7)): ({2}, {2}, lambda n: 4, 2),
        ("E", (6,)): ({2, 3}, {2, 3}, lambda n: 3, 2),
        ("E", (7,)): ({2, 3}, {2, 3}, lambda n: 2, 2),
        ("E", (8,)): ({2, 3, 5}, {2, 3, 5}, lambda n: 1, 2),
        ("F", (4,)): ({2, 3}, {2, 3}, lambda n: 1, 3),
        ("G", (2,)): ({2, 3}, {2}, lambda n: 1, 4),
    }
    for (t, ranks), (bad, torsion, fund, string) in expected.items():
        for n in ranks:
            prof = build_root_system(t, n).prime_profile()
            got = (
                set(prof.bad_primes),
                set(prof.torsion_primes),
                prof.fundamental_group_order,
                prof.longest_root_string,
            )
            want = (bad, torsion, fund(n), string)
            if got != want:
                failures.append(f"{t}{n}: {got} != {want}")
    dt = time.time() - t0
    if dt >= 1.0:
        failures.append(f"took {dt:.2f}s >= 1s")
    _verdict("criterion 1: prime/fundamental/string table", failures)


TABLE2 = {
    ("A", 4): (6, 2), ("A", 5): (9, 1), ("B", 2): (3, 1), ("B", 3): (5, 1),
    ("B", 4): (7, 8), ("B", 5): (11, 9), ("B", 6): (16, 11), ("C", 3): (6, 1),
    ("C", 4): (10, 1), ("D", 4): (6, 3), ("D", 5): (10, 2), ("D", 6): (15, 2),
    ("E", 6): (16, 2), ("E", 7): (27, 1), ("E", 8): (36, 134), ("F", 4): (9, 28),
    ("G", 2): (3, 5),
}


def test_criterion_2_table2():
    """Maximal commuting set sizes and counts, with the stated time limits."""
    failures = []
    for (t, n), want in sorted(TABLE2.items()):
        t0 = time.time()
        cat = enumerate_max_commuting(build_root_system(t, n))
        dt = time.time() - t0
        if (cat.m, cat.count) != want:
            failures.append(f"{t}{n}: got {(cat.m, cat.count)} want {want}")
        limit = 60.0 if (t, n) == ("E", 8) else 5.0
        if dt >= limit:
            failures.append(f"{t}{n}: {dt:.1f}s >= {limit}s")
    _verdict("criterion 2: maximal commuting sets", failures)


def test_criterion_3_table3():
    """Stabilizer generators, with exhaustive Weyl checks where |W| <= 1152."""
    failures = []
    exhaustive_types = {("G", 2), ("F", 4), ("B", 4), ("D", 4)}
    cases = []
    for t, n in [("A", 4), ("A", 5), ("B", 2), ("B", 3), ("C", 3), ("D", 5), ("E", 6), ("E", 7)]:
        sys_ = build_root_system(t, n)
        cat = enumerate_max_commuting(sys_)
        for s, f in zip(cat.sets, cat.ideals):
            if f:
                i = [j for j in range(1, n + 1) if commuting_set(sys_, sys_.phi_rad(j)).mask == s.mask]
                cases.append((t, n, s, set(range(1, n + 1)) - {i[0]} if i else None))
    for t, n, expect in [
        ("B", 4, None), ("B", 5, None), ("D", 4, None),
        ("E", 8, {1, 3, 4, 5, 6, 7, 8}), ("F", 4, {1, 3}), ("G", 2, {2}),
    ]:
        sys_ = build_root_system(t, n)
        cat = enumerate_max_commuting(sys_)
        for s, f in zip(cat.sets, cat.ideals):
            if not f:
                continue
            want = expect
            if want is None:
                i = [j for j in range(1, n + 1) if commuting_set(sys_, sys_.phi_rad(j)).mask == s.mask]
                if i:
                    want = set(range(1, n + 1)) - {i[0]}
                else:  # the S_1 rows of type B
                    want = set(range(2, n))
            cases.append((t, n, s, want))
    for t, n, s, want in cases:
        gens, report = weyl_stabilizer_generators(s)
        if want is not None and gens != want:
            failures.append(f"{t}{n} {sorted(r.coeffs for r in s.members())}: {sorted(gens)} != {sorted(want)}")
        if (t, n) in exhaustive_types:
            if not report.get("exhaustive") or not report.get("stabilizer_equals_parabolic"):
                failures.append(f"{t}{n}: exhaustive stabilizer check failed")
    _verdict("criterion 3: stabilizer generators", failures)


def test_criterion_4_appendix_oracle():
    """Closed-form constructions agree with the exhaustive enumeration."""
    failures = []
    cases = [("A", n) for n in range(1, 7)] + [("C", n) for n in range(3, 6)]
    cases += [("B", 5), ("B", 6), ("F", 4), ("G", 2)]
    for t, n in cases:
        cat = enumerate_max_commuting(build_root_system(t, n))
        orc = appendix_oracle(t, n)
        if [s.mask for s in cat.sets] != [s.mask for s in orc.sets]:
            failures.append(f"{t}{n}: catalogs differ")
    _verdict("criterion 4: closed forms match enumeration", failures)


def _b_family_points(setting, t_idx):
    """All echelon B-family members with leading slot t_idx."""
    gf = setting.field
    eps, eps_plus, _ = b_family(setting.system)[:3]
    n = setting.system.rank
    idx = [setting.system.index(eps_plus[(i, j)]) for i in range(1, n) for j in range(i + 1, n + 1)]
    out = set()
    from itertools import product

    for tail in product(range(gf.p), repeat=t_idx - 1):
        row = gf.zeros(setting.n_pos)
        row[setting.system.index(eps[t_idx])] = 1
        for s, a in enumerate(tail, start=1):
            row[setting.system.index(eps[s])] = a
        M = gf.zeros((len(idx) + 1, setting.n_pos))
        for k, ii in enumerate(idx):
            M[k, ii] = 1
        M[len(idx)] = row
        out.add(subalgebra_from_rows(setting, M).pack())
    return out


def _c_twisted_points(setting, t_idx):
    """exp(ad(lam x_{alpha_n})) images of the echelon C-family members."""
    gf = setting.field
    eps, eps_plus, eps_minus = b_family(setting.system)[:3]
    n = setting.system.rank
    idx = [setting.system.index(eps_plus[(i, j)]) for i in range(1, n - 1) for j in range(i + 1, n)]
    idx += [setting.system.index(eps_minus[(i, n)]) for i in range(1, n)]
    out = set()
    from itertools import product

    for tail in product(range(gf.p), repeat=t_idx - 1):
        row = gf.zeros(setting.n_pos)
        row[setting.system.index(eps[t_idx])] = 1
        for s, a in enumerate(tail, start=1):
            row[setting.system.index(eps[s])] = a
        M = gf.zeros((len(idx) + 1, setting.n_pos))
        for k, ii in enumerate(idx):
            M[k, ii] = 1
        M[len(idx)] = row
        E = subalgebra_from_rows(setting, M)
        for lam in range(gf.p):
            if lam:
                g = root_group_element(setting.basis, gf, setting.system.simple_roots[n - 1], lam)
                out.add(_apply_word_u(setting, E, [g]).pack())
            else:
                out.add(E.pack())
    return out


def test_criterion_5_unipotent_theorems():
    """Unique-zero systems for the top blocks; the two affine families."""
    failures = []
    t0 = time.time()
    for t in ("B", "D"):
        for p in (3, 5):
            setting = get_setting(t, 4, p)
            target = commuting_set(setting.system, setting.system.phi_rad(1))
            rep = leading_term_solve(build_leading_term_system(setting, target))
            if not rep.unique_zero:
                failures.append(f"{t}4 p={p}: expected unique zero, {rep.describe()}")
    for n in (4, 5):
        setting = get_setting("B", n, 3)
        for t_idx in range(1, n + 1):
            target = commuting_set(setting.system, b_family(setting.system).S[t_idx])
            lts = build_leading_term_system(setting, target)
            rep = leading_term_solve(lts)
            got = {solution_subalgebra(lts, sol).pack() for sol in rep.solutions}
            want = _b_family_points(setting, t_idx)
            if got != want:
                failures.append(f"B{n} S_{t_idx}: solution set is not the stated family")
        for t_idx in range(1, n):
            target = commuting_set(setting.system, b_family(setting.system).Sstar[t_idx])
            lts = build_leading_term_system(setting, target)
            rep = leading_term_solve(lts)
            got = {solution_subalgebra(lts, sol).pack() for sol in rep.solutions}
            want = _c_twisted_points(setting, t_idx)
            if got != want:
                failures.append(f"B{n} S*_{t_idx}: solution set is not the twisted family")
    dt = time.time() - t0
    if dt >= 300:
        failures.append(f"took {dt:.0f}s >= 5 min")
    _verdict("criterion 5: leading-term systems", failures)


def test_criterion_6_brute_force():
    """Exhaustive unipotent enumerations and the G2 orbit decomposition.

    At p = 2 the third line of rank-2 type A is not elementary, so the count
    is two rather than q + 1; the certificate below uses plain matrices.
    """
    failures = []
    # sl_3 with x_{a1} = E12, x_{a2} = E23 and x_{a1+a2} = E13 (up to sign)
    E12, E23, E13 = (np.zeros((3, 3), dtype=np.int64) for _ in range(3))
    E12[0, 1] = E23[1, 2] = E13[0, 2] = 1
    x = E12 + E23
    if (x @ E13 - E13 @ x).any():
        failures.append("A2: x_{a1} + x_{a2} and x_{a1+a2} do not commute")
    if not ((x @ x) % 2).any():
        failures.append("A2: (x_{a1} + x_{a2})^2 vanishes mod 2")
    if np.linalg.matrix_power(x, 3).any():
        failures.append("A2: (x_{a1} + x_{a2})^3 is nonzero")
    for p in (2, 3, 5):
        setting = get_setting("A", 2, p)
        pts = {E.pack() for E in brute_force_Eu(setting, 2)}
        want = p + 1 if p >= 3 else 2
        if len(pts) != want:
            failures.append(f"A2 q={p}: {len(pts)} points != {want}")
        chevalley = {lie(setting, setting.system.phi_rad(i)).pack() for i in (1, 2)}
        if not chevalley <= pts:
            failures.append(f"A2 q={p}: a lie(phi<i>) point is missing")
    for p in (3, 5):
        sb2 = get_setting("B", 2, p)
        if len(brute_force_Eu(sb2, 3)) != 1:
            failures.append(f"B2 p={p}: expected exactly one point")
        sb3 = get_setting("B", 3, p)
        pts = brute_force_Eu(sb3, 5)
        orbit = {lie(sb3, sb3.system.phi_rad(1)).pack()}  # U fixes the ideal span
        if {E.pack() for E in pts} != orbit:
            failures.append(f"B3 p={p}: points differ from the lie(phi<1>) orbit")
    t0 = time.time()
    setting = get_setting("G", 2, 5)
    classes = g_conjugacy_classes(setting, brute_force_Eu(setting, 3))
    dt = time.time() - t0
    if len(classes) != 4:
        failures.append(f"G2/F5: {len(classes)} classes != 4")
    if sorted(c.normalizer_dim for c in classes) != [6, 6, 7, 9]:
        failures.append(f"G2/F5 normalizer dims {sorted(c.normalizer_dim for c in classes)}")
    if dt >= 600:
        failures.append(f"G2 run took {dt:.0f}s >= 10 min")
    _verdict("criterion 6: brute-force enumerations", failures)


def test_criterion_7_conjugation_replay():
    """1000 replays per family onto lie(S_1); the four G2 normal forms over F5.

    Each G2 point reduces to the one normal form that lies in its own fusion
    class: lie(C3), lie(C5), L, or N4 for the fourth class (LEDGER.md, G2
    over F5).
    """
    import random

    failures = []
    rng = random.Random(2024)
    setting = get_setting("B", 5, 5)
    gf = setting.field
    eps, eps_plus, eps_minus = b_family(setting.system)[:3]
    n = 5
    target = lie(setting, b_family(setting.system).S[1]).pack()
    plus_idx = [setting.system.index(eps_plus[(i, j)]) for i in range(1, n) for j in range(i + 1, n + 1)]
    c_idx = [setting.system.index(eps_plus[(i, j)]) for i in range(1, n - 1) for j in range(i + 1, n)]
    c_idx += [setting.system.index(eps_minus[(i, n)]) for i in range(1, n)]
    bad_b = bad_c = 0
    for _ in range(1000):
        a = [rng.randrange(5) for _ in range(n)]
        if not any(a):
            a[rng.randrange(n)] = 1 + rng.randrange(4)
        row = gf.zeros(setting.n_pos)
        for i, ai in enumerate(a, start=1):
            row[setting.system.index(eps[i])] = ai
        M = gf.zeros((len(plus_idx) + 1, setting.n_pos))
        for k, ii in enumerate(plus_idx):
            M[k, ii] = 1
        M[len(plus_idx)] = row
        _, out = conjugation_reduce(setting, subalgebra_from_rows(setting, M))
        bad_b += out.pack() != target
        a2 = [rng.randrange(5) for _ in range(n - 1)]
        if not any(a2):
            a2[rng.randrange(n - 1)] = 1 + rng.randrange(4)
        row = gf.zeros(setting.n_pos)
        for i, ai in enumerate(a2, start=1):
            row[setting.system.index(eps[i])] = ai
        M = gf.zeros((len(c_idx) + 1, setting.n_pos))
        for k, ii in enumerate(c_idx):
            M[k, ii] = 1
        M[len(c_idx)] = row
        E = subalgebra_from_rows(setting, M)
        lam = rng.randrange(5)
        if lam:
            g = root_group_element(setting.basis, gf, setting.system.simple_roots[n - 1], lam)
            E = _apply_word_u(setting, E, [g])
        _, out = conjugation_reduce(setting, E)
        bad_c += out.pack() != target
    if bad_b or bad_c:
        failures.append(f"B5: {bad_b} B-family and {bad_c} C-family replays missed lie(S_1)")
    sg = get_setting("G", 2, 5)
    sysg, gfg = sg.system, sg.field

    def span(*rows):
        M = gfg.zeros((len(rows), sg.n_pos))
        for k, terms in enumerate(rows):
            for coeffs, a in terms:
                M[k, sysg.index(Root(coeffs))] = a
        return subalgebra_from_rows(sg, M).pack()

    normal_forms = {
        "lie(C3)": lie(sg, [Root((0, 1)), Root((2, 1)), Root((3, 2))]).pack(),
        "lie(C5)": lie(sg, [Root((2, 1)), Root((3, 1)), Root((3, 2))]).pack(),
        "L": span([((0, 1), 1), ((3, 1), 1)], [((2, 1), 1)], [((3, 2), 1)]),
        "N4": span([((0, 1), 1), ((3, 1), 1)], [((1, 1), 1), ((2, 1), 2)], [((3, 2), 1)]),
    }
    if len(set(normal_forms.values())) != len(normal_forms):
        failures.append("G2: the four normal forms are not distinct")
    points = brute_force_Eu(sg, 3)
    for c in g_conjugacy_classes(sg, points):
        members = {points[i].pack() for i in c.point_indices}
        own = [name for name, nf in normal_forms.items() if nf in members]
        if len(own) != 1:
            failures.append(f"G2: a class of {c.size} points holds normal forms {own}")
            continue
        target = normal_forms[own[0]]
        missed = sum(
            conjugation_reduce(sg, points[i])[1].pack() != target for i in c.point_indices
        )
        if missed:
            failures.append(f"G2: {missed} points of the {own[0]} class reduce elsewhere")
    _verdict("criterion 7: conjugation replay", failures)


def test_criterion_8_g2_p3():
    """The characteristic-3 variant of G2."""
    failures = []
    setting = get_setting("G", 2, 3)
    cat = enumerate_max_commuting(setting.system, p=3)
    if (cat.m, cat.count) != (4, 3):
        failures.append(f"expected 3 sets of size 4, got {(cat.m, cat.count)}")
    if len(cat.orbit_components) != 1:
        failures.append("the three sets are not mutually connected")
    points = brute_force_Eu(setting, 4)
    R1 = [Root((1, 1)), Root((2, 1)), Root((3, 1)), Root((3, 2))]
    target = lie(setting, R1).pack()
    for E in points:
        _, out = conjugation_reduce(setting, E)
        if out.pack() != target:
            failures.append("a point failed to reduce to lie(R_1)")
            break
    classes = g_conjugacy_classes(setting, points)
    if len(classes) != 1:
        failures.append(f"{len(classes)} classes instead of one")
    _verdict("criterion 8: G2 at p = 3", failures)


@pytest.mark.parametrize("which", sorted(goldmod.BUILDERS))
def test_criterion_9_golden_tables(which):
    """Every computed table matches its embedded golden file, and the class
    and spectrum tables carry the G2 marker ">=3"."""
    rows = goldmod.BUILDERS[which]()
    failures = [f"{which}: {m}" for m in goldmod.diff_golden(which, rows)]
    if which in ("groups", "spectrum"):
        g2 = [r for r in rows if r["type"] == "G"]
        marker = g2[0].get("class_count", g2[0].get("component_count"))
        if marker != ">=3":
            failures.append(f"{which}: G2 marker {marker!r} != '>=3'")
    _verdict(f"criterion 9a: golden {which} table", failures)


def test_criterion_9_witness_f5():
    """The F5 witness is four, and the ambient orbit count agrees.

    x_a(1) generates the root group X_a over a prime field, and X_a, X_-a
    for the simple roots a generate G2(F5), so the BFS under these four
    elements alone finds the G2(F5)-orbits that meet E(u)(F5).  Bruhat fusion
    merges points only by group elements, so its classes refine these orbits,
    and equal counts mean equal partitions.
    """
    failures = []
    got = len(g2_witness_classes(5, 1))
    if got != 4:
        failures.append(f"witness(5,1) = {got} != 4")
    setting = get_setting("G", 2, 5)
    gens = [
        root_group_element(setting.basis, setting.field, root, 1)
        for a in setting.system.simple_roots
        for root in (a, -a)
    ]
    orbits = orbit_decompose(setting, brute_force_Eu(setting, 3), gens)
    if len(orbits) != got:
        failures.append(f"{len(orbits)} ambient orbits != witness {got}")
    order = 5**6 * (5**6 - 1) * (5**2 - 1)  # |G2(F5)|
    sizes = sorted(o.size for o in orbits)
    if any(order % s for s in sizes):
        failures.append(f"orbit sizes {sizes} do not all divide |G2(F5)| = {order}")
    dims = sorted(o.normalizer_dim for o in orbits)
    if dims != sorted(c.normalizer_dim for c in g2_witness_classes(5, 1)):
        failures.append(f"orbit normalizer dims {dims} differ from the fusion classes'")
    _verdict("criterion 9b: F5 witness", failures)


@pytest.mark.slow
def test_criterion_9_witness_f25():
    """The F25 witness: six classes, matching the even-power claim."""
    failures = []
    t0 = time.time()
    got = len(g2_witness_classes(5, 2))
    if got != 6:
        failures.append(f"witness(5,2) = {got} != 6")
    dims5 = {c.normalizer_dim for c in g2_witness_classes(5, 1)}
    dims25 = {c.normalizer_dim for c in g2_witness_classes(5, 2)}
    if dims5 != dims25:
        failures.append(f"normalizer dimension sets differ: {dims5} vs {dims25}")
    if time.time() - t0 >= 3600:
        failures.append("F25 witness exceeded one hour")
    _verdict("criterion 9c: F25 witness", failures)


def test_criterion_10_property_suites():
    """Order probes, lt/lie, Jacobi, normalizer constancy, products, exp."""
    import random

    failures = []
    t0 = time.time()
    # addition-respecting probes for every canonical order
    for t, n in [("A", 4), ("A", 5), ("B", 5), ("C", 4), ("D", 5), ("E", 7), ("G", 2)]:
        if not canonical_order(t, n).respects_addition(build_root_system(t, n)):
            failures.append(f"order for {t}{n} fails addition probes")
    # lt(lie(R)) = R on random commuting sets
    rng = random.Random(1)
    for t, n, p in [("B", 4, 3), ("D", 4, 5), ("G", 2, 5)]:
        setting = get_setting(t, n, p)
        sys_ = setting.system
        for _ in range(100):
            roots = []
            for r in rng.sample(sys_.positive_roots, sys_.num_positive):
                if all(commute(sys_, r, x) for x in roots):
                    roots.append(r)
            R = commuting_set(sys_, roots)
            if lt(lie(setting, R)).mask != R.mask:
                failures.append(f"lt(lie(R)) != R in {t}{n}")
                break
    # Jacobi over Z, random triples with h-parts
    for t, n in [("A", 5), ("C", 4), ("E", 8), ("F", 4), ("G", 2)]:
        sys_ = build_root_system(t, n)
        try:
            order = canonical_order(t, n)
        except ValueError:
            order = default_order(sys_)
        cb = build_constants(sys_, order)
        keys = [("x", r) for r in sys_.positive_roots]
        keys += [("x", -r) for r in sys_.positive_roots]
        keys += [("h", i) for i in range(sys_.rank)]
        for _ in range(10_000):
            a, b, c = ({rng.choice(keys): 1} for _ in range(3))
            total = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for k, v in sparse_bracket(cb, x, sparse_bracket(cb, y, z)).items():
                    total[k] = total.get(k, 0) + v
            if any(total.values()):
                failures.append(f"Jacobi fails in {t}{n}")
                break
    # normalizer dimension constant on orbits
    for t, n, p in [("A", 2, 5), ("G", 2, 5)]:
        setting = get_setting(t, n, p)
        pts = brute_force_Eu(setting, enumerate_max_commuting(setting.system).m)
        for c in g_conjugacy_classes(setting, pts):
            dims = {normalizer_in_g(pts[i])[1] for i in c.point_indices}
            if dims != {c.normalizer_dim}:
                failures.append(f"normalizer dimension varies on a {t}{n} class")
    # product count for the rank-one sum over F3
    a1 = build_root_system("A", 1)
    gf3 = GF.get(3)

    def count(system, r):
        basis = build_constants(system, default_order(system))
        return len(brute_force_Eu(Setting(system, basis, gf3), r))

    if count(direct_sum(a1, a1), 2) != count(a1, 1) ** 2:
        failures.append("product count fails for the rank-one sum")
    # integer exponential vs mod-3 exponential for ad(x_{-a1}) in G2
    g2 = build_root_system("G", 2)
    cb = build_constants(g2, canonical_order("G", 2))
    M0 = cb.ad_matrix(g2.signed_index(-g2.simple_roots[0]))
    M3 = M0 % 3
    if not np.linalg.matrix_power(M0, 3).any():
        failures.append("M0^3 vanished over Z")
    if (np.linalg.matrix_power(M3, 3) % 3).any():
        failures.append("M3^3 nonzero mod 3")
    exp_mod3 = sum(cb.exp_terms(-g2.simple_roots[0])) % 3
    naive = (np.eye(14, dtype=np.int64) + M3 + 2 * np.linalg.matrix_power(M3, 2)) % 3
    if not (exp_mod3 != naive).any():
        failures.append("mod-3 image of exp(M0) equals exp(M3)")
    dt = time.time() - t0
    if dt >= 120:
        failures.append(f"took {dt:.0f}s >= 2 min")
    _verdict("criterion 10: property suites", failures)
