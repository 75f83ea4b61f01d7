"""Maximal sets of commuting (or p-commuting) positive roots.

Enumeration is exact maximum-clique search on the commutation graph, done as
maximum independent sets of its sparse complement in two passes: the exact
size, with vertices of degree <= 1 peeled, then every set of that size,
entering only branches whose exact size matches (see `maximum_cliques`).
Catalogs carry ideal flags, Weyl stabilizer generators, and the orbit
partition under the partial Weyl action; everything is ordered by membership
mask for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .rootsys import Root, RootSystem, build_root_system, EuclidModel


@dataclass(frozen=True)
class CommutingSet:
    system: RootSystem
    mask: int

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[Root]:
        return [
            self.system.root(i)
            for i in range(self.system.num_positive)
            if self.mask >> i & 1
        ]

    def __contains__(self, root: Root) -> bool:
        return bool(self.mask >> self.system.index(root) & 1)

    def __repr__(self):
        return f"CommutingSet({self.system.type_label}{self.system.rank}, {sorted(r.coeffs for r in self.members())})"


def commuting_set(system: RootSystem, roots) -> CommutingSet:
    mask = 0
    for r in roots:
        mask |= 1 << system.index(r)
    return CommutingSet(system, mask)


@dataclass
class MaxSetCatalog:
    system: RootSystem
    predicate: tuple  # ("plain",) or ("p", p)
    m: int
    sets: list[CommutingSet]
    ideals: list[bool]
    orbit_ids: list[int] = field(default_factory=list)
    orbit_components: list[list[int]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.sets)


# -- maximum clique enumeration ------------------------------------------------
#
# The commutation graph is dense but its complement (pairs summing to a root)
# is sparse, and for the simply laced types triangle-free, which makes every
# coloring or fractional bound on the clique side useless (>= n/2 while the
# answer is ~n/3).  Maximum cliques are therefore the maximum independent sets
# of the complement, found in two passes over vertex masks P:
# - size, alpha(P): peel each vertex v of degree <= 1, counting it and dropping
#   N[v] (exact: trading v's neighbour, if any, for v keeps a maximum set
#   maximum); then sum over components, or branch on a vertex of maximum
#   degree.  The memo holds one int per peeled P.
# - sets(P): multiply over components (an isolated v is one, with the one set
#   {v}); else branch on a degree-1 vertex if any, else one of maximum degree,
#   into "v in" and "v out", entering a branch only when its exact alpha
#   equals alpha(P).  The two branches split the maximum sets, so the list is
#   complete and has no repeats.


def maximum_cliques(adj: list[int], n: int) -> tuple[int, list[int]]:
    """Size and full list of maximum cliques of the graph (bitmask adjacency)."""
    full = (1 << n) - 1
    nonadj = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    memo: dict[int, int] = {0: 0}

    def vertices(P: int):
        while P:
            low = P & -P
            yield low.bit_length() - 1
            P ^= low

    def components(P: int) -> list[int]:
        out = []
        while P:
            comp = frontier = P & -P
            while frontier:
                grown = comp
                for v in vertices(frontier):
                    grown |= nonadj[v] & P
                frontier, comp = grown & ~comp, grown
            out.append(comp)
            P &= ~comp
        return out

    def branch_vertex(P: int) -> int:
        """A vertex of degree 1 if there is one, else one of maximum degree."""
        def key(v):
            d = (nonadj[v] & P).bit_count()
            return d == 1, d
        return max(vertices(P), key=key)

    def alpha(P: int) -> int:
        size, todo = 0, P
        while todo:  # dropping u = N(v) lowers only the degrees in N(u)
            low = todo & -todo
            todo ^= low
            nb = nonadj[low.bit_length() - 1] & P
            if P & low and nb & (nb - 1) == 0:
                size += 1
                P &= ~(nb | low)
                if nb:
                    todo |= nonadj[nb.bit_length() - 1] & P
        if P not in memo:
            comps = components(P)
            if len(comps) > 1:
                memo[P] = sum(map(alpha, comps))
            else:
                v = branch_vertex(P)
                memo[P] = max(1 + alpha(P & ~nonadj[v] & ~(1 << v)), alpha(P & ~(1 << v)))
        return size + memo[P]

    def sets(P: int) -> list[int]:
        comps = components(P)
        if len(comps) != 1:
            out = [0]
            for c in comps:
                out = [s | t for s in out for t in sets(c)]
            return out
        a, v, out = alpha(P), branch_vertex(P), []
        inside, outside = P & ~nonadj[v] & ~(1 << v), P & ~(1 << v)
        if 1 + alpha(inside) == a:
            out += [s | 1 << v for s in sets(inside)]
        if alpha(outside) == a:
            out += sets(outside)
        return out

    return alpha(full), sorted(sets(full))


# -- catalog construction --------------------------------------------------------


def commutation_adjacency(system: RootSystem, p: int | None = None) -> list[int]:
    """Bitmask rows of the (p-)commutation graph on the positive roots."""
    n = system.num_positive
    commute = system.sum_index[:n, :n] < 0
    if p is not None:
        commute |= system.string_down[:n, :n] == p - 1
    # the pair (i, j), i < j, is decided as commute(root i, root j, p)
    upper = np.triu(commute, 1)
    bits = np.packbits(upper | upper.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


_CATALOG_CACHE: dict = {}


def enumerate_max_commuting(system: RootSystem, p: int | None = None) -> MaxSetCatalog:
    """All maximum-size sets of pairwise (p-)commuting positive roots."""
    key = (id(system), p)
    if key in _CATALOG_CACHE:
        return _CATALOG_CACHE[key]
    adj = commutation_adjacency(system, p)
    if p is not None and adj == commutation_adjacency(system):
        plain = enumerate_max_commuting(system)  # the same graph: reuse its cliques
        m, cliques = plain.m, [s.mask for s in plain.sets]
    else:
        m, cliques = maximum_cliques(adj, system.num_positive)
    sets = [CommutingSet(system, mask) for mask in cliques]
    catalog = MaxSetCatalog(
        system=system,
        predicate=("plain",) if p is None else ("p", p),
        m=m,
        sets=sets,
        ideals=[is_ideal(s) for s in sets],
    )
    partial_weyl_orbits(catalog)
    _CATALOG_CACHE[key] = catalog
    return catalog


def is_ideal(R: CommutingSet) -> bool:
    """Closed under adding any positive root that lands in the positive roots."""
    n = R.system.num_positive
    sums = R.system.sum_index[:n, [i for i in range(n) if R.mask >> i & 1]]
    return all(R.mask >> k & 1 for k in sums[sums >= 0].tolist())


def _reflect_mask(system: RootSystem, i: int, mask: int) -> int | None:
    """Image of a positive-root mask under s_i, or None if it leaves Phi+."""
    n = system.num_positive
    imgs = system.reflections[i - 1, [k for k in range(n) if mask >> k & 1]].tolist()
    if any(k >= n for k in imgs):
        return None
    return sum(1 << k for k in imgs)


def partial_weyl_orbits(catalog: MaxSetCatalog) -> list[list[int]]:
    """Connected components under moves R -> s_i(R) that stay positive.

    A move is legal exactly when alpha_i is not in R.  Components are sorted
    by minimal member mask and stored on the catalog.
    """
    sys = catalog.system
    index_of = {s.mask: k for k, s in enumerate(catalog.sets)}
    seen = [False] * len(catalog.sets)
    components = []
    for start in range(len(catalog.sets)):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            k = stack.pop()
            comp.append(k)
            mask = catalog.sets[k].mask
            for i in range(1, sys.rank + 1):
                if mask >> (i - 1) & 1:
                    continue  # alpha_i in R: move would leave Phi+
                img = _reflect_mask(sys, i, mask)
                if img is None or img not in index_of:
                    continue
                j = index_of[img]
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(sorted(comp))
    components.sort(key=lambda comp: catalog.sets[comp[0]].mask)
    catalog.orbit_components = components
    ids = [0] * len(catalog.sets)
    for cid, comp in enumerate(components):
        for k in comp:
            ids[k] = cid
    catalog.orbit_ids = ids
    return components


# -- Weyl stabilizers ---------------------------------------------------------


WEYL_EXHAUSTIVE_ORDER = 2000  # largest |W| whose stabilizer report is exhaustive


def _simple_stabilizer(R: CommutingSet) -> set[int]:
    """The 1-based indices i with s_i(R) = R."""
    sys = R.system
    return {i for i in range(1, sys.rank + 1) if _reflect_mask(sys, i, R.mask) == R.mask}


def weyl_stabilizer_generators(R: CommutingSet):
    """Simple reflections fixing R setwise, plus a verification report.

    For Weyl groups of at most `WEYL_EXHAUSTIVE_ORDER` elements the report
    certifies Stab_W(R) equals the subgroup generated by the returned
    indices by exhaustive enumeration; otherwise only containment facts.
    """
    sys = R.system
    gens = _simple_stabilizer(R)
    report = {"generators": sorted(gens), "exhaustive": False}
    elements = sys.weyl_elements(WEYL_EXHAUSTIVE_ORDER)
    if elements is not None:
        # w is the row of positions of the images of the positive roots
        idx = [k for k in range(sys.num_positive) if R.mask >> k & 1]
        member = np.zeros(2 * sys.num_positive, dtype=bool)
        member[idx] = True
        stab = elements[member[elements[:, idx]].all(axis=1)]
        para = sys.weyl_words(sorted(gens), WEYL_EXHAUSTIVE_ORDER)
        report["exhaustive"] = True
        report["stabilizer_order"] = len(stab)
        report["parabolic_order"] = len(para)
        report["stabilizer_equals_parabolic"] = {w.tobytes() for w in stab} == para.keys()
    return gens, report


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
    eps = {i: em.to_root(em.eps(i)) for i in range(1, n + 1)}
    plus = {(i, j): em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
            for i, j in pairs}
    minus = {(i, j): em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(j))))
             for i, j in pairs}
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
        def j_set(J):
            out = []
            for i in J:
                for j in range(1, n + 2):
                    if j not in J:
                        vec = tuple(
                            x - y for x, y in zip(em.eps(i), em.eps(j))
                        )
                        root = em.to_root(vec)
                        assert root.is_positive
                        out.append(root)
            return out
        if n % 2 == 0:
            m = n // 2
            sets = [j_set(set(range(1, m + 1))), j_set(set(range(1, m + 2)))]
        else:
            m = (n - 1) // 2
            sets = [j_set(set(range(1, m + 2)))]
    elif type_label == "C":
        if n < 3 and n != 2:
            raise ValueError("type C oracle needs rank >= 2")
        em = EuclidModel(system)
        sets = [[
            em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        ]]
    elif type_label == "B":
        if n < 5:
            raise ValueError("type B oracle applies for rank >= 5")
        family = b_family(system)
        sets = [family.S[t] for t in range(1, n + 1)] + [family.Sstar[t] for t in range(1, n)]
    elif type_label == "D":
        if n < 7:
            raise ValueError("type D oracle applies for rank >= 7")
        em = EuclidModel(system)
        plus = lambda i, j: em.to_root(tuple(x + y for x, y in zip(em.eps(i), em.eps(j))))
        minus = lambda i, j: em.to_root(tuple(x - y for x, y in zip(em.eps(i), em.eps(j))))
        R = [plus(i, j) for i in range(1, n) for j in range(i + 1, n)]
        sets = [
            R + [plus(i, n) for i in range(1, n)],
            R + [minus(i, n) for i in range(1, n)],
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
    sizes = {s.cardinality for s in csets}
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
    half = Fraction(1, 2)
    def eps(i):
        return em.eps(i)
    def vadd(*vs):
        out = tuple(Fraction(0) for _ in range(4))
        for v in vs:
            out = tuple(x + y for x, y in zip(out, v))
        return out
    def vneg(v):
        return tuple(-x for x in v)
    def vhalf(signs):  # eps_{ijk}: sign on eps_1 always +
        i, j, k = signs
        return tuple(
            half * c
            for c in vadd(eps(1), *( [eps(2)] if i > 0 else [vneg(eps(2))] ),
                          *( [eps(3)] if j > 0 else [vneg(eps(3))] ),
                          *( [eps(4)] if k > 0 else [vneg(eps(4))] ))
        )
    def R(v):
        return em.to_root(v)
    # the B4 subsystem uses eps_i (short) and eps_i +- eps_j (long)
    plus = lambda i, j: R(vadd(eps(i), eps(j)))
    minus = lambda i, j: R(vadd(eps(i), vneg(eps(j))))
    phir1 = [R(eps(1))] + [plus(1, i) for i in (2, 3, 4)] + [minus(1, i) for i in (2, 3, 4)]
    S = {t: [R(eps(t))] + [plus(i, j) for i in (1, 2, 3) for j in range(i + 1, 5)]
         for t in (1, 2, 3, 4)}
    Sstar = {t: [R(eps(t))] + [plus(i, j) for i in (1, 2) for j in range(i + 1, 4)]
             + [minus(i, 4) for i in (1, 2, 3)] for t in (1, 2, 3)}
    out: list[list[Root]] = []
    signs3 = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
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
            out.append(phir1 + [R(vhalf(s)), R(vhalf(tuple(s2)))])
    # case 2: S_t plus eps_{+++} and one negative not on the eps_t slot
    for t in (1, 2, 3, 4):
        for u in (2, 3, 4):
            if u == t:
                continue
            s = [1, 1, 1]
            s[u - 2] = -1
            out.append(S[t] + [R(vhalf((1, 1, 1))), R(vhalf(tuple(s)))])
    # case 3: S*_t plus eps_{++-} paired with eps_{+++} or a second negative
    for t in (1, 2, 3):
        out.append(Sstar[t] + [R(vhalf((1, 1, -1))), R(vhalf((1, 1, 1)))])
        for u in (2, 3):
            if u == t:
                continue
            s = [1, 1, -1]
            s[u - 2] = -1
            out.append(Sstar[t] + [R(vhalf((1, 1, -1))), R(vhalf(tuple(s)))])
    return out


# -- JSON emission ----------------------------------------------------------------


def catalog_to_json(catalog: MaxSetCatalog) -> dict:
    sets = []
    for k, s in enumerate(catalog.sets):
        sets.append(
            {
                "roots": [list(r.coeffs) for r in s.members()],
                "ideal": catalog.ideals[k],
                "orbit": catalog.orbit_ids[k] if catalog.orbit_ids else None,
                "stabilizer_generators": sorted(_simple_stabilizer(s)),
            }
        )
    return {
        "type": catalog.system.type_label,
        "rank": catalog.system.rank,
        "predicate": list(catalog.predicate),
        "m": catalog.m,
        "count": catalog.count,
        "sets": sets,
    }
