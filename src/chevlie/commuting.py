"""Maximal sets of commuting (or p-commuting) positive roots.

Enumeration is exact maximum-clique search on the commutation graph, done as
maximum independent sets of its sparse complement in two passes over the same
subproblems: the exact size, then every set of that size, read off the
branches whose exact size matches.  Both passes peel vertices of degree <= 1
(the list trades a peeled vertex for its neighbour where that fits) and branch
on a degree-2 vertex first: one branch at a triangle, else "it in" and "both
its neighbours in", with the first branch's sets traded onto each neighbour
(see `maximum_cliques`).
Catalogs carry ideal flags (B(F_p)-stability in a p-catalog), the orbit
partition under the partial Weyl action and each set's shortest path to its
ideal; everything is ordered by membership mask for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rootsys import Root, RootSystem


@dataclass(frozen=True)
class CommutingSet:
    system: RootSystem
    mask: int

    def members(self) -> list[Root]:
        return [
            self.system.root(i)
            for i in range(self.system.num_positive)
            if self.mask >> i & 1
        ]

    def __contains__(self, root: Root) -> bool:
        return bool(self.mask >> self.system.index(root) & 1)

    def __repr__(self):
        return f"CommutingSet({self.system.name}, {sorted(r.coeffs for r in self.members())})"


@dataclass
class MaxSetCatalog:
    """The maximum (p-)commuting sets by mask, their ideal flags (`is_ideal`,
    over F_p in a p-catalog), and the partial Weyl orbits with each set's
    path to its orbit's ideal (`partial_weyl_orbits`)."""

    system: RootSystem
    predicate: tuple  # ("plain",) or ("p", p)
    m: int
    sets: list[CommutingSet]
    ideals: list[bool]
    orbit_components: list[list[int]] = field(default_factory=list)
    # mask -> (s_i letters, ideal mask), for the sets of components with an ideal
    to_ideal: dict[int, tuple[tuple[int, ...], int]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.sets)


# -- maximum clique enumeration ------------------------------------------------
#
# The commutation graph is dense but its complement (pairs summing to a root)
# is sparse, and for the simply laced types triangle-free, which makes every
# coloring or fractional bound on the clique side useless (>= n/2 while the
# answer is ~n/3).  Maximum cliques are therefore the maximum independent sets
# of the complement.  Two passes walk the same subproblems, the vertex masks P
# the peel leaves: `alpha` memoizes the size of each, and `sets` the list of
# its maximum sets.
# - peel(P, todo): drop each v in todo of degree <= 1 with its neighbour u, if
#   any, and record the step.  A maximum set holds v or u, never both (holding
#   neither, it could take v), and those holding u are those holding v with v
#   traded for u where u fits, N(u) & t = {v}.  So each step adds 1 to alpha,
#   and `sets` rebuilds the peeled P's list in reverse step order: each set
#   takes v, and each such t where u fits also gives t - v + u.  Dropping u
#   lowers only the degrees in N(u), which join todo; "v out" below seeds todo
#   with N(v), the only degrees it lowers in a peeled P, and other calls seed
#   all of P.  Any seed is exact: a vertex left unpeeled is branched on.
# - split(P): one flood fill finds the component C of P's lowest vertex and
#   its branch vertex v, its first of degree 2, else its first of maximum
#   degree.  If C != P, alpha adds alpha(C) and alpha(P \ C), and the sets are
#   each set of C joined with each set of P \ C.
# - A connected P branches at v.  If N(v) = {a, b}, a maximum set holds v, or
#   exactly one of a, b (traded for v it is a maximum set holding v), or both
#   (holding none, it could take v).  So the branches are "v in" (P - N[v])
#   and "a and b in" (P - N[a] - N[b]), the second dropped when a ~ b (a
#   triangle: v is simplicial), and the sets of "v in" are also traded, v for
#   a and v for b where each fits, which gives exactly the maximum sets
#   holding one of a, b.  Any other v branches into "v in" and "v out".
# `sets` enters a branch only when the branch's k + alpha(Q) is alpha(P), so
# each list is complete; its groups differ in which of v, a and b they hold
# (or whether they hold v), so no set is listed twice.


def maximum_cliques(adj: list[int], n: int) -> tuple[int, list[int]]:
    """Size and full list of maximum cliques of the graph (bitmask adjacency)."""
    full = (1 << n) - 1
    nonadj = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    memo: dict[int, int] = {0: 0}
    lists: dict[int, list[int]] = {0: [0]}

    def split(P: int) -> tuple[int, int]:
        """The component of P's lowest vertex, and its branch vertex."""
        comp = frontier = P & -P
        best = -1  # rank: degree 2 above any other degree, then the lower index
        while frontier:
            v = frontier.bit_length() - 1
            nb = nonadj[v] & P
            grown = nb & ~comp
            frontier, comp = frontier ^ 1 << v | grown, comp | grown
            d = nb.bit_count()
            if (rank := (n if d == 2 else d) * n + n - v) > best:
                best, branch = rank, v
        return comp, branch

    def peel(P: int, todo: int) -> tuple[int, list[tuple[int, int]]]:
        steps = []  # (v, N(v)) as masks
        while todo:  # dropping u = N(v) lowers only the degrees in N(u)
            low = todo & -todo
            todo ^= low
            nb = nonadj[low.bit_length() - 1] & P
            if P & low and nb & (nb - 1) == 0:
                steps.append((low, nb))
                P &= ~(nb | low)
                if nb:
                    todo |= nonadj[nb.bit_length() - 1] & P
        return P, steps

    def branches(P: int, v: int) -> tuple[list[tuple[int, int, int]], tuple[int, ...]]:
        """(taken, rest, seed) per branch of a connected peeled P at v, "v in"
        first, and the neighbours v is traded for in the sets of "v in"."""
        bit, nv = 1 << v, nonadj[v] & P
        inside = P & ~nv & ~bit
        if nv.bit_count() != 2:
            return [(bit, inside, inside), (0, P ^ bit, nv)], ()
        a, b = (nv & -nv).bit_length() - 1, nv.bit_length() - 1
        if nonadj[a] >> b & 1:  # a triangle: v is simplicial
            return [(bit, inside, inside)], (a, b)
        both = P & ~nonadj[a] & ~nonadj[b] & ~nv
        return [(bit, inside, inside), (nv, both, both)], (a, b)

    def alpha(P: int, todo: int) -> int:
        P, steps = peel(P, todo)
        if P not in memo:
            C, v = split(P)
            if C != P:
                memo[P] = alpha(C, C) + alpha(P ^ C, P ^ C)
            else:
                memo[P] = max(
                    t.bit_count() + alpha(Q, seed) for t, Q, seed in branches(P, v)[0]
                )
        return len(steps) + memo[P]

    def sets(P: int, todo: int, size: int = -1) -> list[int]:
        """P's maximum sets, or none if their size is not `size` (if given)."""
        P, steps = peel(P, todo)
        if size >= 0 and len(steps) + memo[P] != size:
            return []
        if P not in lists:
            C, v = split(P)
            if C != P:
                rest = sets(P ^ C, P ^ C)
                lists[P] = [s | t for s in sets(C, C) for t in rest]
            else:
                moves, trade = branches(P, v)
                lists[P] = out = []
                for t, Q, seed in moves:
                    out += [s | t for s in sets(Q, seed, memo[P] - t.bit_count())]
                bit = 1 << v
                for x in trade:  # only sets of "v in" hold v
                    out += [s ^ bit | 1 << x for s in out if nonadj[x] & s == bit]
        out = lists[P]
        for low, nb in reversed(steps):  # the sets holding v, then those holding u
            out = [s | low for s in out]
            if nb:
                fits = nonadj[nb.bit_length() - 1]
                out += [s ^ low | nb for s in out if fits & s == low]
        return out

    a = alpha(full, full)
    return a, sorted(sets(full, full))


# -- catalog construction --------------------------------------------------------


def commutation_adjacency(system: RootSystem, p: int | None = None) -> list[int]:
    """Bitmask rows of the (p-)commutation graph on the positive roots."""
    n = system.num_positive
    commute = system.sum_index[:n, :n] < 0
    if p is not None:
        commute |= system.string_down[:n, :n] == p - 1
    # the pair (i, j), i < j, is decided by the root_i-string through root_j
    upper = np.triu(commute, 1)
    bits = np.packbits(upper | upper.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


@lru_cache(maxsize=None)
def enumerate_max_commuting(system: RootSystem, p: int | None = None) -> MaxSetCatalog:
    """All maximum-size sets of pairwise (p-)commuting positive roots.

    Built once per system and p; callers pass p by keyword or leave it out,
    since the cache keys `f(s)` and `f(s, None)` apart."""
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
        ideals=[is_ideal(s, p) for s in sets],
    )
    partial_weyl_orbits(catalog)
    return catalog


def is_ideal(R: CommutingSet, p: int | None = None) -> bool:
    """Whether B, over F_p if p is given, keeps lie(R).  The torus keeps every
    lie(R), and x_gamma(t) x_a is the sum over k >= 0 of +-C(r + k, k) t^k
    x_{a + k gamma}, r the gamma-string below a (Carter 1972), so p must
    divide C(r + k, k) whenever a + k gamma is a positive root outside R;
    without p, R is closed under adding positive roots."""
    sys, n = R.system, R.system.num_positive
    cols = [i for i in range(n) if R.mask >> i & 1]
    inside = np.isin(np.arange(2 * n), cols)
    r, at = sys.string_down[:n, cols], sys.sum_index[:n, cols]  # at[gamma, a] = a + k gamma
    for k in (1, 2, 3):  # strings have at most four roots
        missing = (at >= 0) & ~inside[at]
        if p is not None:
            missing &= np.array([math.comb(j + k, k) % p for j in range(4)])[r] > 0
        if missing.any():
            return False
        at = np.where(at >= 0, np.take_along_axis(sys.sum_index[:n], at, 1), -1)
    return True


def _reflect_mask(system: RootSystem, i: int, mask: int) -> int | None:
    """Image of a positive-root mask under s_i, or None if it leaves Phi+."""
    n = system.num_positive
    imgs = system.reflections[i - 1, [k for k in range(n) if mask >> k & 1]].tolist()
    if any(k >= n for k in imgs):
        return None
    return sum(1 << k for k in imgs)


def partial_weyl_orbits(catalog: MaxSetCatalog) -> None:
    """Connected components under moves R -> s_i(R) that stay positive, and
    each set's shortest path to the ideal of its component.

    A move is legal exactly when alpha_i is not in R (else `_reflect_mask`
    gives None).  W keeps sums and root strings, so a legal image is again a
    maximal (p-)commuting set, always in the catalog.  Each component is
    walked breadth first, from its ideal if it holds one (ideals start
    first); `to_ideal[mask]` = (letters, ideal mask) where applying s_i for
    the letters in turn takes the set to the ideal, by a shortest path.
    Components are sorted by minimal member mask, the position of a set's
    component being its orbit id, and stored on the catalog.
    """
    sys, sets = catalog.system, catalog.sets
    index_of = {s.mask: k for k, s in enumerate(sets)}
    seen = [False] * len(sets)
    catalog.to_ideal = paths = {}
    components = []
    for start in sorted(range(len(sets)), key=lambda k: not catalog.ideals[k]):
        if seen[start]:
            continue
        seen[start] = True
        if catalog.ideals[start]:
            paths[sets[start].mask] = ((), sets[start].mask)
        comp = [start]
        for k in comp:
            mask = sets[k].mask
            for i in range(1, sys.rank + 1):
                img = _reflect_mask(sys, i, mask)
                if img is not None and not seen[j := index_of[img]]:
                    seen[j] = True
                    comp.append(j)
                    if mask in paths:
                        letters, ideal = paths[mask]
                        paths[img] = ((i,) + letters, ideal)
        components.append(sorted(comp))
    components.sort(key=lambda comp: sets[comp[0]].mask)
    catalog.orbit_components = components


# -- Weyl stabilizers ---------------------------------------------------------


def _simple_stabilizer(R: CommutingSet) -> set[int]:
    """The 1-based indices i with s_i(R) = R."""
    sys = R.system
    return {i for i in range(1, sys.rank + 1) if _reflect_mask(sys, i, R.mask) == R.mask}


def weyl_stabilizer_generators(R: CommutingSet):
    """Simple reflections fixing R setwise, plus a verification report.

    Where `RootSystem.weyl_elements` lists the group (at most
    `rootsys.WEYL_EXHAUSTIVE_ORDER` elements) the report certifies, by
    exhaustive enumeration, that Stab_W(R) equals the subgroup generated by
    the returned indices; otherwise it holds only the generators.
    """
    sys = R.system
    gens = _simple_stabilizer(R)
    report = {"generators": sorted(gens), "exhaustive": False}
    elements = sys.weyl_elements()
    if elements is not None:
        # w is the row of positions of the images of the positive roots
        idx = [k for k in range(sys.num_positive) if R.mask >> k & 1]
        member = np.zeros(2 * sys.num_positive, dtype=bool)
        member[idx] = True
        stab = elements[member[elements[:, idx]].all(axis=1)]
        para = sys.weyl_words(sorted(gens))
        report["exhaustive"] = True
        report["stabilizer_order"] = len(stab)
        report["parabolic_order"] = len(para)
        report["stabilizer_equals_parabolic"] = {w.tobytes() for w in stab} == para.keys()
    return gens, report


# -- JSON emission ----------------------------------------------------------------


def catalog_to_json(catalog: MaxSetCatalog) -> dict:
    orbit = {k: cid for cid, comp in enumerate(catalog.orbit_components) for k in comp}
    sets = []
    for k, s in enumerate(catalog.sets):
        sets.append(
            {
                "roots": [list(r.coeffs) for r in s.members()],
                "ideal": catalog.ideals[k],
                "orbit": orbit[k],
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
