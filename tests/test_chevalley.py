"""Structure constants, brackets, p-powers, and group generator actions."""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from chevlie.gf import GF, IRREDUCIBLE
from chevlie.golden import TABLE1_RANKS
from chevlie.orders import RootOrder, canonical_order, default_order
from chevlie.rootsys import EuclidModel, Root, build_root_system
from chevlie.chevalley import (
    ChevalleyBasis,
    build_constants,
    cocharacter_element,
    root_group_element,
    weyl_rep_element,
    weyl_word_element,
)
from chevlie.elementary import Setting
from oracles import ad_stack, commute, csv_lines, direct_sum, p_power, sparse_bracket, structure_constant


def constants(t, n, canonical=True):
    sys_ = build_root_system(t, n)
    order = canonical_order(t, n) if canonical else default_order(sys_)
    return sys_, build_constants(sys_, order)


def bracket(cb, gf, x, y, scope):
    return gf.matmul(cb.ad_of(gf, x, scope), y[:, None])[:, 0]


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

    base = default_order(sys_)

    class Cubed(RootOrder):
        # the same order of the roots as the default key, but not additive
        def key(self, root):
            return tuple(c**3 for c in base.key(root))

    cubed = Cubed(())
    assert cubed.sorted_roots(sys_) == base.sorted_roots(sys_)
    assert not cubed.respects_addition(sys_)
    with pytest.raises(ValueError, match="respect addition"):
        build_constants(sys_, cubed)


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


@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_default_orders_respect_addition(t, n):
    sys_ = build_root_system(t, n)
    assert default_order(sys_).respects_addition(sys_)
    try:
        order = canonical_order(t, n)
    except ValueError:
        return
    assert order.respects_addition(sys_)


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
            for k, c in sparse_bracket(cb, {x: 1}, {y: 1}).items():
                want[row[k], j] = c
        assert (cb.ad_matrix(i) == want).all(), x


def test_e8_setting_memory():
    # the E8 setting keeps no ad stack; dense int64 copies of ad took the
    # peak to 351 MiB.  The child reports VmHWM, the peak of its
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


def test_e8_settings_build_no_ad_stack():
    # a Setting reads the coroot rows of the bracket table: four E8 settings
    # on one basis allocate no (dim, dim, dim) stack.  A dense int16 stack
    # per prime, cached on the basis, took the traced peak to 117 MiB
    sys_ = build_root_system("E", 8)
    cb = ChevalleyBasis(sys_, default_order(sys_))
    fields = [GF.get(p) for p in (2, 3, 5, 7)]
    tracemalloc.start()
    try:
        for gf in fields:
            Setting(sys_, cb, gf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _coroot_columns(cb):
    """(rank, n_pos): column alpha is the coroot alpha^vee in simple coroots,
    read from the [x_alpha, x_{-alpha}] = h_alpha rows of the bracket table."""
    n = cb.n_pos
    I, J, K, C = cb.brackets.T
    rows = (I < n) & (J == I + n)
    cols = np.zeros((cb.system.rank, n), dtype=np.int64)
    cols[K[rows] - 2 * n, I[rows]] = C[rows]
    return cols


@pytest.mark.parametrize("name", [f"{t}{n}" for t, n in TABLE1_RANKS] + ["B2+G2"])
def test_coroot_columns_have_gcd_one(name):
    # every coroot is W-conjugate to a simple coroot, so its coefficients
    # have gcd 1: no column vanishes mod any p, and ad is faithful on u in
    # every characteristic (the check `Setting` makes cannot fail)
    sys_ = reduce(direct_sum, [build_root_system(part[0], int(part[1:])) for part in name.split("+")])
    cols = _coroot_columns(build_constants(sys_, default_order(sys_)))
    assert (cols.T == [sys_.coroot_coeffs(r) for r in sys_.positive_roots]).all()
    assert (np.gcd.reduce(cols, axis=0) == 1).all()


@pytest.mark.parametrize("t,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_magnitude_and_antisymmetry(t, n):
    sys_, cb = constants(t, n)
    allroots = sys_.positive_roots + [-r for r in sys_.positive_roots]
    for a in allroots:
        for b in allroots:
            s = a + b
            if not sys_.is_root(s):
                continue
            v = structure_constant(cb, a, b)
            r, _ = sys_.root_string(a, b)
            assert abs(v) == r + 1, (a, b)
            assert structure_constant(cb, b, a) == -v
            assert structure_constant(cb, -a, -b) == -v


def test_extraspecial_positive():
    for t, n in [("A", 4), ("B", 5), ("G", 2), ("D", 5)]:
        sys_ = build_root_system(t, n)
        cb = build_constants(sys_, canonical_order(t, n))
        for gamma, (a1, b1) in cb.extraspecial.items():
            r, _ = sys_.root_string(a1, b1)
            assert structure_constant(cb, a1, b1) == r + 1


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
        j1 = sparse_bracket(cb, a, sparse_bracket(cb, b, c))
        j2 = sparse_bracket(cb, b, sparse_bracket(cb, c, a))
        j3 = sparse_bracket(cb, c, sparse_bracket(cb, a, b))
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
            assert structure_constant(cb, plus(i, 5), minus(j, 5)) == 1
            assert structure_constant(cb, plus(j, 5), minus(i, 5)) == -1
    d5 = build_root_system("D", 5)
    cd = build_constants(d5, canonical_order("D", 5))
    em = EuclidModel(d5)
    plus = lambda i, j: em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
    minus = lambda i, j: em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(j))))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert structure_constant(cd, minus(i, 5), plus(j, 5)) == 1
            assert structure_constant(cd, minus(j, 5), plus(i, 5)) == -1


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
    assert "\n".join(csv_lines(cb)) == CSV_GOLDEN[key]


# SHA-256 of `brackets.tobytes()` and of the (2N, 2N) int64 table of N(a, b)
# over the signed roots, recorded from the `Root`/`Fraction` recursion that
# the signed table replaced: the default order of every Table 1 type, and the
# canonical order where one is defined
CONSTANT_PINS = [
    ("A", 1, "default", "ea56c4b26d86843d5d5c05efea7466743be7f3a94badb37cd0abf8295c9cbfc4", "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
    ("A", 1, "canonical", "ea56c4b26d86843d5d5c05efea7466743be7f3a94badb37cd0abf8295c9cbfc4", "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
    ("A", 2, "default", "a67812281c2bb5bfd1ef086f2590b7879df2cd2ca4fd4b2388875e7bccbed1f8", "6859b2f5e2138883a3e2209a69f7e5ea60068e842abb2f786d9a6cd629632b31"),
    ("A", 2, "canonical", "579404263fd6962918c8fc5ae0ebb6322838501ccc1c288771355627eb4ec99e", "74524ae0b62945298c054f46dd24dad85789c6e71b1d6838b41716e10b2f22dd"),
    ("A", 3, "default", "9a6787fc3b57f03acaf6978f0cb4524c48d88f67fd5e9d12fa1f9622ccf5a3da", "cd6f5c50b2f5bc2f5cb6c10f453e003756f910c11c5e2f8a2a0cc2d8af99cdff"),
    ("A", 3, "canonical", "0063a5af88a987d7c29f4603bb120b454ab375e40fd2753adda9f7fc7efa6060", "f67d5846bcce9955e3cb553386c325f5f47fcf0a8c489a231640b39657fb68c1"),
    ("A", 4, "default", "20a2b5445ac173d4c162caacd64c51ffa2219aa48cc6c7932d59a940810f6397", "ea06db47cce1f8f2a592a9ac9e1ba9ad8ee0337f23017ec5e09778b3ffd8ed89"),
    ("A", 4, "canonical", "cc70dac02558a7bde248ac611beda1b04e2ca3bca9d088c178b9d0781e7c62d1", "c94b4857c3e71dea233173cfc7e45f220e297be05edb228ec60c6f3e8b4938f7"),
    ("A", 5, "default", "422be15e344290cc32627f922b67a583e5ad0afec0d1b604b484c95268853b6e", "c549788402c7cd4214274074b61ed681dd4fc2bfd2d68b9a5c506077e6a959fd"),
    ("A", 5, "canonical", "3eab5df2b1e9d2936f0fa4a7a8ea9fa3dc81f10de05d4b53a77d328b5f9a9847", "a39998cd6e192759c2db80b4ca9343d1341e6412ff50be871b59d30c7035e783"),
    ("A", 6, "default", "8c8885ff0c4ca511acfa649a4f97dec48f274803d7771bf39306643b3349cf35", "14a388fd0870370c2738321275d2f5056531e6f1033305ac2c834d7bd874db8f"),
    ("A", 6, "canonical", "2c0446799abec80076bf0014b89dad0e657ca99d68d798702c1dabcde7c1cabf", "4282507e6265a0f73ee7127f592c9e11cf7f1b90578aa63b19e3befc3c247f9e"),
    ("B", 2, "default", "5f79fcfb2debca7cb5583886241289845ec48a1303921df0af55ffae2fc233b9", "3f73e66b8a77e146c02079f2892b96005d7a3b07c2deafac6dcc60ea309a508c"),
    ("B", 2, "canonical", "9c661c6121f9777c5eeabd2b11fcd9bd49b145234a8e29f64a57c69ac2030340", "4413e05a6cd35a3e29e53686cffba5bfd9bb4f8e2477f15495488401ccb8e16e"),
    ("B", 3, "default", "9d676b474cc1e1e2836be00f509eec2da7236bfed167db84b4a55ae9d67216c5", "1c2ec57b47c73a026e28e7c97fa69d7232eba815dda76e658a6d097a8ff1ccc6"),
    ("B", 3, "canonical", "33512d1855e6ff7b0f4b2d577f4c57d4e32a020671c5111d2be3ce9ffe017778", "94ce38f2511eaab0ea12d3c80e55d5dcc9803caf81d440d3ac75bac396956bfa"),
    ("B", 4, "default", "5aeec8e60e9530fcc851dc62f3c3bf04409b10cf5ebf7e36ab5bdc6ec7c7e9f4", "384418bb0f2e22c41e21b9652ce7b23fc50cc012b2ffaef515b7f708d348af06"),
    ("B", 4, "canonical", "04925c7508df74cab909f4c1eefe7709bd38a1706097eb3811644b202f53d428", "84a9e5458a6be719662318ca8f5f165567feb14d1997ae51929a0395f3f5ff2a"),
    ("B", 5, "default", "faee7e99a4a52d8274e47b1378eaddd5c0ea76c3bc52cd5a7efa2e934571da9e", "d4f12c2554b9fe4bdd5cf1e413515d90906c27ee3d94b984ee651ffc72cd9527"),
    ("B", 5, "canonical", "1aac1c11d8363e2af044695d25c342e73b2c81da7a51bcd9c5529f77e1fc50d6", "04d3b3369560eda626972ff16e09a245e5b3ee405ee03e960c54ee53636bcf02"),
    ("B", 6, "default", "ab1b8de24bb77537566fbccd7f13712c8b6c0618a4203b7d4dc691a6e0d33fd2", "0f81fbf56b2fc048b2262d4f7b42a4c077ea12d61e243804263212440a6145e6"),
    ("B", 6, "canonical", "f3627ca035456920e262e27fc89f06519ed0434dadaef8b4bfcc6fb9de7aa0ab", "b60ca580a75303cbaa5ed2362f04dc086547b384ef0af6bb37baca9a275eac9d"),
    ("C", 2, "default", "0eb3b29aca6932d04acb4601095d0ac59847953591e8e5fb5942aaab27db33ad", "356409657b69d6c6ef0f31dd616f0c76b4594bceba9aaa122739ff329c610750"),
    ("C", 2, "canonical", "daa0ffdc1ce1bcea9e1149fa35e9be753533d7950b9f4c53a5776f66fa472d02", "2f34742203c38258c8852df1167b6ec0bd75b0c0a63c4318d6d1ae66c76f3724"),
    ("C", 3, "default", "903828b1bb92be3ef98f6b1cd9a46cf710ac5710d2ebd4d4ab3a15cffd448f47", "69d45decb7f333049a08a15e28b9f4e4d4dddc3521fabcf2be54f5750515fd9a"),
    ("C", 3, "canonical", "585c265b3b5ad90568b70e35a6c9c7b1135f672bcdb638b1c2ed6d63ea5c773f", "53c91aeb932106b23574c6fc83ecfa11da00e66105d52c13a42b459777376cb1"),
    ("C", 4, "default", "11b6364b9d415be35c56fd069359306b935fc132553c8aeea0176ce3e30221b3", "0da1fae5196c3b5401cc11560454f79c758ed5673e139bc5a0bddc3aa080a78c"),
    ("C", 4, "canonical", "b326c9c3d6e472c35effd1f71ae2d4a2a51a96ce9a8acac53721200e32732df6", "5a1263e7ab3be6a5686ec3234511cab066b226d4de4f0c4dcf69fdf6f316e8f1"),
    ("C", 5, "default", "b53e52e912419785e42ba53d8366c34f28b19810886a36a0b9704ae9a7a3cf32", "a4b3bb0128ac62098b1fedd3ab5275813264dbf34b931b4d887c7f75517e2fc6"),
    ("C", 5, "canonical", "261419f6253c93a7fa97b4012342513a06b58095dc7bedb5099bb735e8142d49", "1fd61604968c2558337ebef09b64207ed35c8f0e61e71312c803293d40fc4efc"),
    ("D", 4, "default", "6bccf8f155dcb9d864287837d2fad4686eafdbda03c936ce14657de60755cf13", "12c2299edfd54626e2006726705c808ed1b1cd2b95c5532aff69b24bb247174c"),
    ("D", 4, "canonical", "dba85b04bc63e08e94e13816ae214b4f29de87acd9a06f47ddce19e27137cbe9", "deb1109c33f22a1ff1ebfddbf07444719d05e7fdc83acc0bdfbc5705b89a82ee"),
    ("D", 5, "default", "11fef87e463d67c99db36c36b01eaa9ccde98335846bb3f385e88432261298b8", "f97317b1a2c3c8a1e95056db216c0d9a31f8805490bfe9841321795703a868de"),
    ("D", 5, "canonical", "b214782ac315dac080c03613b8af0a89a5d519aa9f9d6b9a476b543821075dbf", "219b3ecfaedce9080d51af147d5d4abde7d1621d919d954e58710f98e20ae00f"),
    ("D", 6, "default", "2f8a6c5bf279df179df408d0cf852210384949149aaba376a054a34f15495d93", "5084d5b4883e2ff841d74fc324472708bc4e4a7298d2ca854c3662edee2a783c"),
    ("D", 6, "canonical", "ebc5b5bff7af66ef11b2bc57681e6c249b33ef62da4047e8cbfb928fc292f130", "6f7adba696410835d4b85ec89946b5254043943a94ea31e32f810366a545a5fe"),
    ("E", 6, "default", "a03d73532bbbaf8400308ccf92b04b21a76ea646cc01a6082c779ae276c7b841", "0278eb956b2b46335ec930e08178c29cda0d93ab67c64002b40868214f1f4de5"),
    ("E", 7, "default", "e0d0c259b567216099145c34b19d46b98483a1d2767aa3f081c0f8319354de22", "dad6d49869930838a9e24d41d1734e2199948a17b3b15420d269a0e3b4b85bfc"),
    ("E", 7, "canonical", "8ec889111494876ae53d9f013cdd140ac6e406bd1177637909060a88e72ad244", "ba0c0584725d069ef176210a7f465820dca2825a4624edd4a781cf9b807e9454"),
    ("E", 8, "default", "a4944e1388bda35d87b97486063fa8a26e54bdd4c0dfa865f790f8dae4cf4839", "547ffb05b407b613ecfaeba05f59cd7ab0df5e94ca6b03354ae7a3d4fc7ba737"),
    ("F", 4, "default", "4b2095cd5a42516c6a81a1db0edcba378761397abea5c22dd34e6289f99186cb", "8684164d8ffbf101ce54748d2a3ead0d762c12a1fbc68a12e4472676413ab082"),
    ("G", 2, "default", "bf7ce88d9cdc335c8d130761a21f16dbfb0f24e6a8989bec2372cbaf465c1437", "ad1829bb6a6c50deeeea524f10db7e170b80bba23a3a87b51c5d9c3a283a3129"),
    ("G", 2, "canonical", "96ea7c4fa96a0fa9166cc42f88dd3af0c9529de52c2421498ce0284d65c0946b", "887d415465295ec2c24118158e7a157ac7d4a7012f8536565da7bbfbe247c054"),
]


@pytest.mark.parametrize(
    "t,n,order,brackets,signed", CONSTANT_PINS, ids=[f"{t}{n}-{o}" for t, n, o, *_ in CONSTANT_PINS]
)
def test_constants_pinned(t, n, order, brackets, signed):
    sys_ = build_root_system(t, n)
    order = canonical_order(t, n) if order == "canonical" else default_order(sys_)
    cb = build_constants(sys_, order)
    roots = sys_.positive_roots + [-r for r in sys_.positive_roots]
    table = np.array([[structure_constant(cb, a, b) for b in roots] for a in roots], dtype=np.int64)
    assert (table == cb.constants).all()
    assert hashlib.sha256(cb.brackets.tobytes()).hexdigest() == brackets
    assert hashlib.sha256(table.tobytes()).hexdigest() == signed


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
                assert (not bracket(cb, gf, va, vb, "u").any()) == commute(sys_, a, b)
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
            zero = not bracket(cb, gf, va, vb, "u").any()
            assert zero == commute(sys_, a, b, p=3)


def test_p_power_examples():
    sys_, cb = constants("A", 2)
    gf = GF.get(2)
    out = p_power(cb, gf, np.array([1, 1, 0], dtype=np.int16))
    assert list(np.nonzero(out)[0]) == [sys_.index(Root((1, 1)))]
    for i in range(3):
        e = gf.zeros(3)
        e[i] = 1
        assert not p_power(cb, gf, e).any()
    # abelian span: p-power is p-semilinear, checked where it is nonzero
    theta = sys_.index(Root((1, 1)))
    for c in range(2):
        w = np.array([1, 1, 0], dtype=np.int16)
        w[theta] = c
        assert (p_power(cb, gf, w) == out).all()


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
        phi[gamma] = M / Fraction(structure_constant(cb, a1, b1))
        M2 = phi[-a1] @ phi[-b1] - phi[-b1] @ phi[-a1]
        phi[-gamma] = M2 / Fraction(structure_constant(cb, -a1, -b1))
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
                assert (M == structure_constant(cb, a, b) * phi[s]).all(), (a, b)
            else:
                assert not M.any(), (a, b)
    # p-power oracle: solved p-power equals the matrix p-th power
    gf = GF.get(p)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.integers(0, p, sys_.num_positive).astype(np.int16)
        y = p_power(cb, gf, x)
        mx = _mod_p(sum((int(c) * phi[sys_.root(i)] for i, c in enumerate(x)), zero), p)
        my = _mod_p(sum((int(c) * phi[sys_.root(i)] for i, c in enumerate(y)), zero), p)
        assert (np.linalg.matrix_power(mx, p) % p == my).all()


def test_root_group_action_examples():
    sys_, cb = constants("A", 2)
    gf = GF.get(5)
    g = root_group_element(cb, gf, sys_.simple_roots[0], 0)
    assert (g.matrix == gf.eye(cb.dim)).all()
    g = root_group_element(cb, gf, sys_.simple_roots[0], 2)
    v = gf.zeros(cb.dim)
    v[sys_.index(Root((0, 1)))] = 1
    out = g.apply_rows(v[None])[0]
    Nc = structure_constant(cb, sys_.simple_roots[0], Root((0, 1))) % 5
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
                lhs = g.apply_rows(bracket(cb, gf, x, y, "g")[None])[0]
                gx, gy = g.apply_rows(np.stack([x, y]))
                rhs = bracket(cb, gf, gx, gy, "g")
                assert (lhs == rhs).all()


def test_cocharacter_examples():
    sys_, cb = constants("A", 2)
    gf = GF.get(5)
    co = cocharacter_element(cb, gf, 2, 3)
    v = gf.zeros(cb.dim)
    v[sys_.index(Root((0, 1)))] = 1
    assert co.apply_rows(v[None])[0, sys_.index(Root((0, 1)))] == gf.power(3, 2)
    # any scaling ratio of (x_a1, x_a2) is achievable with cocharacters
    ratios = set()
    for l1 in gf.units():
        for l2 in gf.units():
            h1 = cocharacter_element(cb, gf, 1, l1).matrix
            h2 = cocharacter_element(cb, gf, 2, l2).matrix
            g = gf.matmul(h2, h1)
            s1 = g[0, 0]
            s2 = g[1, 1]
            ratios.add(int(gf.mul(s1, gf.inv(s2))))
    assert ratios == set(gf.units())
    # G2: a2vee(c) carries x_{a2} + c^3 x_{3a1+a2} to a multiple of the sum
    sysg, cg = constants("G", 2)
    for c in range(2, 5):
        co = cocharacter_element(cg, gf, 2, c)
        v = gf.zeros(cg.dim)
        v[sysg.index(Root((0, 1)))] = 1
        v[sysg.index(Root((3, 1)))] = gf.power(c, 3)
        out = co.apply_rows(v[None])[0]
        a, b = out[sysg.index(Root((0, 1)))], out[sysg.index(Root((3, 1)))]
        assert a == b != 0


@pytest.mark.parametrize("t,n,p,r", [("G", 2, 5, 2), ("B", 2, 3, 2), ("A", 2, 2, 3)])
def test_root_groups_and_cocharacters_are_homomorphisms(t, n, p, r):
    # x_a(s) x_a(t) = x_a(s + t) and a^vee(lam) a^vee(mu) = a^vee(lam mu): the
    # reason the F_p-basis and one primitive element generate B(F_q)
    sys_, cb = constants(t, n)
    gf = GF.get(p, r)
    for a in sys_.positive_roots + [-b for b in sys_.positive_roots]:
        x = [root_group_element(cb, gf, a, s).matrix for s in range(gf.q)]
        for s in range(gf.q):
            for u in range(gf.q):
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
    assert span == set(range(gf.q))
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
        out = g.apply_rows(v[None])[0]
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
        nz = list(np.nonzero(g.apply_rows(v[None])[0])[0])
        assert nz == [sys_.index(plus)]
    # arbitrary reduced words act on lines per the combinatorial action
    rng = random.Random(5)
    for _ in range(20):
        word = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 6)))
        g = weyl_word_element(cb, gf, word)
        for r in sys_.positive_roots:
            v = gf.zeros(cb.dim)
            v[sys_.index(r)] = 1
            nz = list(np.nonzero(g.apply_rows(v[None])[0])[0])
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


def test_per_basis_data_is_built_once(monkeypatch):
    # F_5 and F_25 gather ad from one layer list; exp_terms is formed once
    # per root
    sys_, cb = constants("B", 2)
    seen = []
    sparse_matmul = GF.sparse_matmul

    def spy(gf, X, layers, width):
        seen.append(layers)
        return sparse_matmul(gf, X, layers, width)

    monkeypatch.setattr(GF, "sparse_matmul", spy)
    for field in [(5, 1), (5, 2)]:
        cb.ad_of(GF.get(*field), GF.get(*field).zeros(cb.n_pos), "g")
    assert len(seen) == 2 and seen[0] is seen[1]
    assert len(seen[0]) == 1  # u-rows: each entry of ad(x) comes from one bracket row
    a = sys_.simple_roots[1]
    assert cb.exp_terms(a) is cb.exp_terms(a)


AD_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (5, 2), (7, 3)]


def _ad_by_stack(gf, stack, x, d):
    """sum_I x_I ad(x_I) on the first d basis elements, in integers from the
    dense `ad_stack`: its entries lie in F_p, and a scalar of F_p
    scales each base-p digit of an element of F_q on its own."""
    out = np.zeros(x.shape[:-1] + (d, d), dtype=np.int64)
    for k in range(gf.degree):
        digit = x.astype(np.int64) // gf.p**k % gf.p
        plane = sum(digit[..., i, None, None] * stack[i, :d, :d] for i in range(x.shape[-1]))
        out += plane % gf.p * gf.p**k
    return out.astype(np.int16)


@pytest.mark.parametrize("field", AD_FIELDS, ids=[f"F{p}^{r}" for p, r in AD_FIELDS])
@pytest.mark.parametrize("t,n", TABLE1_RANKS)
def test_ad_of_matches_the_dense_stack(t, n, field, monkeypatch):
    # u-length vectors on u and on g, g-length vectors on g: one vector, a
    # stack, a zero vector and an empty stack; F_{7^3} gathers through the
    # int32 flat tables
    sys_, cb = constants(t, n, canonical=False)
    gf = GF.get(*field)
    stack = ad_stack(cb, gf.p)
    rng = np.random.default_rng([ord(t), n, *field])
    cases = []
    for length, scope in [(cb.n_pos, "u"), (cb.n_pos, "g"), (cb.dim, "g")]:
        d = cb.dim if scope == "g" else cb.n_pos
        for shape in [(length,), (2, 3, length), (0, length)]:
            x = rng.integers(0, gf.q, shape).astype(np.int16)
            cases.append((x, scope, _ad_by_stack(gf, stack, x, d)))
        cases.append((gf.zeros(length), scope, gf.zeros((d, d))))

    def refuse(*args):
        raise AssertionError("ad_of called GF.matmul")

    monkeypatch.setattr(GF, "matmul", refuse)
    for x, scope, want in cases:
        got = cb.ad_of(gf, x, scope)
        assert got.dtype == np.int16 and got.shape == want.shape
        assert (got == want).all(), (x.shape, scope)


def test_ad_of_rejects_other_lengths():
    # only u- and g-length vectors are accepted, and only u-length ones on u
    sys_, cb = constants("B", 4)
    gf = GF.get(5)
    for length, scope in [(cb.n_pos - 1, "u"), (cb.n_pos + 1, "g"), (cb.dim - 1, "g"),
                          (cb.dim + 1, "g"), (cb.dim, "u")]:
        with pytest.raises(ValueError, match="takes vectors of length"):
            cb.ad_of(gf, gf.zeros((2, length)), scope)


def test_p_power_rejects_unfaithful_scope():
    # on all of g = sl_3 in characteristic 3 the center makes ad degenerate
    sys_, cb = constants("A", 2)
    gf = GF.get(3)
    x = gf.zeros(cb.dim)
    x[0] = 1
    with pytest.raises(ArithmeticError, match="faithful"):
        p_power(cb, gf, x)
    # but the u-scope solve works
    xu = gf.zeros(3)
    xu[0] = 1
    assert not p_power(cb, gf, xu).any()
