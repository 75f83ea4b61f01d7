"""Second routes the tests check `chevlie` against; no product code calls them.

* the ambient orbit BFS over all subspaces of g that the orbits reach, and
  generators of G(F_q) from the simple root groups: a route to conjugacy
  classes independent of Bruhat fusion; `full_generating_set` gives each
  root group every t of the F_p-basis, whatever the torus already yields;
* the positive roots generated directly in epsilon coordinates, a route
  independent of the string closure, and `direct_sum` of two root systems;
* `commute`, the (p-)commuting predicate on one pair of roots, which
  `commutation_adjacency` computes for all pairs at once;
* the closed-form catalogs of the maximum commuting sets (the B_n family
  S_t, S*_t and F4's 12 + 9 + 7 cases), which read their roots from
  `EuclidModel`: a route independent of the clique search;
* `p_power` by `matpow`, `sparse_bracket` with `Root` arithmetic and
  `structure_constant` (one N_{a,b}), and the `csv_lines` dump of the
  structure constants: routes independent of the bracket table;
* `ad_stack`, the dense (dim, dim, dim) ad of every basis element mod p,
  the reference for the table gathers of `ChevalleyBasis.ad_of`;
* the G2 witness, the Bruhat fusion classes of G2 over small F_q that the
  LEDGER entries on G2 cite.

Pytest puts this directory on `sys.path`, so tests read `from oracles import
...`; a command outside pytest runs with `PYTHONPATH=src:tests`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from typing import NamedTuple

import numpy as np

from chevlie.chevalley import ChevalleyBasis, GroupGenerator, cocharacter_element, root_group_element
from chevlie.commuting import MaxSetCatalog, commuting_set, is_ideal, partial_weyl_orbits
from chevlie.elementary import (
    BudgetExceeded,
    ElementarySubalgebra,
    Setting,
    brute_force_Eu,
    canonical,
    g_conjugacy_classes,
    get_setting,
    keys,
    normalizer_basis,
)
from chevlie.gf import GF
from chevlie.rootsys import EuclidModel, Root, RootSystem, build_root_system

# points of one orbit decomposition
_MAX_ORBIT_POINTS = 5_000_000


# -- root systems ----------------------------------------------------------------


def direct_sum(a: RootSystem, b: RootSystem) -> RootSystem:
    """The direct sum of two root systems: the Cartan matrix is block
    diagonal, so a root's coefficients are those over a's simple roots, then
    those over b's, and each block keeps its own symmetrizer."""
    C = [row + [0] * b.rank for row in a.cartan] + [[0] * a.rank + row for row in b.cartan]
    name = f"{a.name}+{b.name}"
    return RootSystem(name, name, C)


def commute(system: RootSystem, alpha: Root, beta: Root, p: int | None = None) -> bool:
    """Whether alpha and beta commute (sum not a root); p gives p-commuting."""
    if alpha == beta:
        raise ValueError("commute is defined for distinct roots")
    a, b = system.signed_index(alpha), system.signed_index(beta)
    if system.sum_index[a, b] < 0:
        return True
    return p is not None and bool(system.string_down[a, b] == p - 1)


def is_positive(root: Root) -> bool:
    return all(c >= 0 for c in root.coeffs) and any(root.coeffs)


def eps_root(model: EuclidModel, *signed: int) -> Root:
    """The root sum of sign(k) eps_|k| over k: eps_root(em, 1, -3) is
    eps_1 - eps_3 and eps_root(em, 2, 2) is 2 eps_2."""
    vec = [0] * model.dim
    for k in signed:
        vec = [x + (y if k > 0 else -y) for x, y in zip(vec, model.eps(abs(k)))]
    return model.to_root(vec)


def euclid_positive_roots(model: EuclidModel) -> set[Root]:
    """All positive roots generated directly in epsilon coordinates."""
    t, n = model.system.type_label, model.system.rank
    r = partial(eps_root, model)
    if t == "A":
        roots = [r(i, -j) for i in range(1, n + 2) for j in range(1, n + 2) if i != j]
    else:
        m = model.dim
        roots = [
            r(si * i, sj * j)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
            for si, sj in product((1, -1), repeat=2)
        ]
        if t in "BF":
            roots += [r(s * i) for i in range(1, m + 1) for s in (1, -1)]
        if t == "C":
            roots += [r(s * i, s * i) for i in range(1, m + 1) for s in (1, -1)]
        if t == "F":
            roots += [
                model.to_root([Fraction(s, 2) for s in signs])
                for signs in product((1, -1), repeat=4)
            ]
    return {x for x in roots if is_positive(x)}


# -- orbit decomposition (ambient BFS) ------------------------------------------------


def full_generating_set(setting: Setting, roots) -> list[GroupGenerator]:
    """x_alpha(t) for alpha in roots and every t in the F_p-basis 1, ...,
    t^(r-1) of F_q, then alpha_j^vee(lam0) for each simple j and a primitive
    lam0 (none if q = 2): the set before any torus reduction."""
    gf, cb = setting.field, setting.basis
    additive, lam0 = gf.generators()
    gens = [root_group_element(cb, gf, a, t) for a in roots for t in additive]
    if lam0 != 1:
        gens += [cocharacter_element(cb, gf, j, lam0) for j in range(1, setting.system.rank + 1)]
    return gens


def chevalley_group_generators(setting: Setting) -> list[GroupGenerator]:
    """x_{+-alpha_i}(t) for simple alpha_i, t in the F_p-basis, and alpha_i^vee(lam0)."""
    return full_generating_set(setting, [b for a in setting.system.simple_roots for b in (a, -a)])


@dataclass
class Orbit:
    representative_rows: np.ndarray  # (r, dim_g)
    size: int
    normalizer_dim: int


def orbit_decompose(
    setting: Setting,
    points: list[ElementarySubalgebra],
    generators: list[GroupGenerator],
) -> list[Orbit]:
    """The orbits under the generators that meet the points, by BFS with
    ambient closure, sorted by representative key.

    Conjugates may leave u, so the BFS runs over all encountered g-subspaces,
    and an orbit's size counts them all; BudgetExceeded once the orbits hold
    more than `_MAX_ORBIT_POINTS`.  Representatives are the canonical
    matrices of minimal key, and the normalizer dimension is recorded per
    orbit.  Only the keys of the current orbit are kept, not its matrices.
    """
    gf = setting.field
    if not points:
        return []
    r = points[0].dim
    mats = [g.matrix.T.copy() for g in generators]
    # points of u are already canonical in g: the u-columns lead the column order
    starts = np.stack([E.as_g_rows() for E in points])
    start_keys = keys(setting, starts)
    covered: set[bytes] = set()
    orbits: list[tuple[bytes, Orbit]] = []
    total = 0
    for key0, rows0 in zip(start_keys, starts):
        if key0 in covered:
            continue
        members = {key0}
        rep_key, rep = key0, rows0
        frontier = rows0[None, :, :]
        while len(frontier):
            fresh = []
            for M in mats:
                imgs = canonical(setting, gf.matmul(frontier, M[None, :, :]))
                for k, x in zip(keys(setting, imgs), imgs):
                    if k in members:
                        continue
                    members.add(k)
                    fresh.append(x)
                    if k < rep_key:
                        rep_key, rep = k, x
                    if len(members) + total > _MAX_ORBIT_POINTS:
                        raise BudgetExceeded("orbit closure exceeds the point budget")
            frontier = np.stack(fresh) if fresh else np.zeros((0, r, setting.basis.dim), dtype=np.int16)
        total += len(members)
        covered.update(k for k in start_keys if k in members)
        orbits.append(
            (
                rep_key,
                Orbit(
                    representative_rows=rep,
                    size=len(members),
                    normalizer_dim=len(normalizer_basis(setting, rep)),
                ),
            )
        )
    orbits.sort(key=lambda item: item[0])
    return [o for _, o in orbits]


# -- closed-form constructions ---------------------------------------------------


class BFamily(NamedTuple):
    """Epsilon-coordinate roots of B_n and the maximum commuting sets built
    from them: eps[i], plus[(i, j)] = eps_i + eps_j and minus[(i, j)] =
    eps_i - eps_j for i < j, S[t] for 1 <= t <= n and S*[t] for 1 <= t < n."""

    eps: dict[int, Root]
    plus: dict[tuple[int, int], Root]
    minus: dict[tuple[int, int], Root]
    S: dict[int, list[Root]]
    Sstar: dict[int, list[Root]]


@lru_cache(maxsize=None)
def b_family(system: RootSystem) -> BFamily:
    """S_t and S*_t for type B_n, with the epsilon roots they are made of."""
    n = system.rank
    em = EuclidModel(system)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    eps = {i: eps_root(em, i) for i in range(1, n + 1)}
    plus = {(i, j): eps_root(em, i, j) for i, j in pairs}
    minus = {(i, j): eps_root(em, i, -j) for i, j in pairs}
    r1 = [plus[(i, j)] for i, j in pairs if j < n]
    r2 = [plus[(i, n)] for i in range(1, n)]
    r3 = [minus[(i, n)] for i in range(1, n)]
    S = {t: r1 + r2 + [eps[t]] for t in range(1, n + 1)}
    Sstar = {t: r1 + r3 + [eps[t]] for t in range(1, n)}
    return BFamily(eps, plus, minus, S, Sstar)


def appendix_oracle(type_label: str, rank: int) -> MaxSetCatalog:
    """Closed-form catalog of the maximum commuting sets, where one exists."""
    system = build_root_system(type_label, rank)
    n = rank
    sets: list[list[Root]] = []
    if type_label == "A":
        em = EuclidModel(system)
        # eps_i - eps_j for i <= k < j, with k = ceil(n/2) or floor(n/2) + 1
        sets = [
            [eps_root(em, i, -j) for i in range(1, k + 1) for j in range(k + 1, n + 2)]
            for k in sorted({(n + 1) // 2, n // 2 + 1})
        ]
    elif type_label == "C":
        em = EuclidModel(system)
        sets = [[eps_root(em, i, j) for i in range(1, n + 1) for j in range(i, n + 1)]]
    elif type_label == "B":
        if n < 5:
            raise ValueError("type B oracle applies for rank >= 5")
        family = b_family(system)
        sets = [family.S[t] for t in range(1, n + 1)] + [family.Sstar[t] for t in range(1, n)]
    elif type_label == "D":
        if n < 7:
            raise ValueError("type D oracle applies for rank >= 7")
        em = EuclidModel(system)
        R = [eps_root(em, i, j) for i in range(1, n) for j in range(i + 1, n)]
        sets = [
            R + [eps_root(em, i, n) for i in range(1, n)],
            R + [eps_root(em, i, -n) for i in range(1, n)],
        ]
    elif type_label == "F":
        sets = _f4_sets(system)
    elif type_label == "G":
        sets = [
            [Root(c) for c in cs]
            for cs in [
                (((1, 0)), ((3, 1)), ((3, 2))),
                (((1, 1)), ((3, 1)), ((3, 2))),
                (((0, 1)), ((2, 1)), ((3, 2))),
                (((0, 1)), ((1, 1)), ((3, 2))),
                (((2, 1)), ((3, 1)), ((3, 2))),
            ]
        ]
    else:
        raise ValueError(f"no closed-form construction for type {type_label}")
    csets = sorted((commuting_set(system, s) for s in sets), key=lambda s: s.mask)
    sizes = {s.mask.bit_count() for s in csets}
    assert len(sizes) == 1, "constructed sets have unequal sizes"
    catalog = MaxSetCatalog(
        system=system,
        predicate=("plain",),
        m=sizes.pop(),
        sets=csets,
        ideals=[is_ideal(s) for s in csets],
    )
    partial_weyl_orbits(catalog)
    return catalog


def _f4_sets(system: RootSystem) -> list[list[Root]]:
    """The 12 + 9 + 7 case construction of the 28 maximum sets in F4."""
    em = EuclidModel(system)
    r = partial(eps_root, em)
    # the B4 subsystem uses eps_i (short) and eps_i +- eps_j (long)
    phir1 = [r(1)] + [r(1, i) for i in (2, 3, 4)] + [r(1, -i) for i in (2, 3, 4)]
    S = {t: [r(t)] + [r(i, j) for i in (1, 2, 3) for j in range(i + 1, 5)]
         for t in (1, 2, 3, 4)}
    Sstar = {t: [r(t)] + [r(i, j) for i in (1, 2) for j in range(i + 1, 4)]
             + [r(i, -4) for i in (1, 2, 3)] for t in (1, 2, 3)}
    out: list[list[Root]] = []
    signs3 = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    # eps_{abc} = (eps_1 + a eps_2 + b eps_3 + c eps_4) / 2
    half = {s: em.to_root([Fraction(x, 2) for x in (1, *s)]) for s in signs3}
    # case 1: 12 unordered pairs differing by one sign change
    seen = set()
    for s in signs3:
        for t in range(3):
            s2 = list(s)
            s2[t] = -s2[t]
            key = frozenset([s, tuple(s2)])
            if key in seen:
                continue
            seen.add(key)
            out.append(phir1 + [half[s], half[tuple(s2)]])
    # case 2: S_t plus eps_{+++} and one negative not on the eps_t slot
    for t in (1, 2, 3, 4):
        for u in (2, 3, 4):
            if u == t:
                continue
            s = [1, 1, 1]
            s[u - 2] = -1
            out.append(S[t] + [half[(1, 1, 1)], half[tuple(s)]])
    # case 3: S*_t plus eps_{++-} paired with eps_{+++} or a second negative
    for t in (1, 2, 3):
        out.append(Sstar[t] + [half[(1, 1, -1)], half[(1, 1, 1)]])
        for u in (2, 3):
            if u == t:
                continue
            s = [1, 1, -1]
            s[u - 2] = -1
            out.append(Sstar[t] + [half[(1, 1, -1)], half[tuple(s)]])
    return out


# -- brackets and p-powers ------------------------------------------------------


def structure_constant(basis: ChevalleyBasis, a: Root, b: Root) -> int:
    """Structure constant N_{a,b}; zero when a+b is not a root."""
    sys = basis.system
    return int(basis.constants[sys.signed_index(a), sys.signed_index(b)])


def sparse_bracket(basis: ChevalleyBasis, x: dict, y: dict) -> dict:
    """Bracket of formal Z-combinations {("x", root) | ("h", i): coeff}."""
    out: dict = {}

    def add(key, c):
        if c:
            out[key] = out.get(key, 0) + c
            if not out[key]:
                del out[key]

    sys = basis.system
    for ka, ca in x.items():
        for kb, cb in y.items():
            if ka[0] == "h" and kb[0] == "h":
                continue
            if ka[0] == "h":
                add(kb, ca * cb * sys.pairing(kb[1], ka[1]))
            elif kb[0] == "h":
                add(ka, -ca * cb * sys.pairing(ka[1], kb[1]))
            else:
                s = ka[1] + kb[1]
                if all(v == 0 for v in s.coeffs):
                    for j, cj in enumerate(sys.coroot_coeffs(ka[1])):
                        add(("h", j), ca * cb * cj)
                elif sys.is_root(s):
                    add(("x", s), ca * cb * structure_constant(basis, ka[1], kb[1]))
    return out


def csv_lines(basis: ChevalleyBasis):
    """Deterministic (alpha, beta, N) dump over positive pairs."""
    yield "alpha,beta,N"
    n, pos = basis.n_pos, basis.system.positive_roots
    for i, j in zip(*np.nonzero(basis.constants[:n, :n])):
        av = " ".join(map(str, pos[i].coeffs))
        bv = " ".join(map(str, pos[j].coeffs))
        yield f"{av},{bv},{basis.constants[i, j]}"


def matpow(field: GF, A: np.ndarray, n: int) -> np.ndarray:
    """A^n for n >= 1 by square-and-multiply over the bits of n, leading
    bit first: one squaring per further bit and one product per further
    one bit (3 products for n = 5, 5 for n = 13).  A may be a stack."""
    P = A
    for bit in bin(n)[3:]:
        P = field.matmul(P, P)
        if bit == "1":
            P = field.matmul(P, A)
    return P


def ad_stack(basis: ChevalleyBasis, p: int) -> np.ndarray:
    """ad of every basis element mod p: an int16 (dim, dim, dim) stack whose
    entry [I, K, J] is the x_K-coefficient of [x_I, x_J].  F_p and every
    F_{p^r} read the same one, since F_p is encoded as itself.  Uncached:
    E8's stack is 29 MiB."""
    stack = np.zeros((basis.dim,) * 3, dtype=np.int16)
    I, J, K, C = basis.brackets.T
    stack[I, K, J] = C % p
    return stack


def p_power(basis: ChevalleyBasis, field: GF, x: np.ndarray) -> np.ndarray:
    """The unique y with ad(y) = ad(x)^p, solved in the scope of x: u when x
    has `n_pos` coordinates, g when it has `dim`.

    Rejects (ArithmeticError) when the solution fails to exist or to be
    unique, which signals a characteristic outside the supported range.
    """
    k = len(x)
    xg = field.zeros(basis.dim)
    xg[:k] = x  # u is the span of the first n_pos basis elements of g
    P = matpow(field, basis.ad_of(field, xg), field.p)
    M = ad_stack(basis, field.p)[:k].reshape(k, -1).T
    sol = field.solve_affine(M, P.reshape(-1))
    if sol is None:
        raise ArithmeticError("ad(y) = ad(x)^p has no solution in this scope")
    y, kernel = sol
    if len(kernel):
        raise ArithmeticError("adjoint representation is not faithful on this scope")
    return y


# -- the G2 witness ------------------------------------------------------------


@lru_cache(maxsize=None)
def g2_witness_classes(p: int, r: int) -> tuple:
    """Bruhat fusion classes of the 3-dimensional points of u for G2 over
    F_{p^r}, computed once per field.  Their number is the exact count of
    G(F_q)-classes of maximal elementary abelian subgroups, 3 + gcd(3, q - 1)
    at q = 5, 7, 11, 13, 25 (LEDGER.md).

    Desk-scale only: p >= 5 with a field F_{p^r} (ValueError otherwise),
    within 20,000 candidate rows of brute force (BudgetExceeded otherwise).
    """
    if p < 5:
        raise ValueError(f"p = {p} is bad for G2: the maximal dimension is 4, not 3")
    setting = get_setting("G", 2, p, degree=r)
    # candidate rows of brute force: F25 takes 17,559; F29, F49 and F125 are refused
    return tuple(g_conjugacy_classes(setting, brute_force_Eu(setting, 3, budget=20_000)))
