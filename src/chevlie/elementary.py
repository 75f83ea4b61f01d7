"""Elementary subalgebras of the nilpotent radical over small finite fields F_q.

The central objects are subspaces of u in reduced echelon form with respect
to an addition-respecting root order: the leading position of a row is the
largest root carrying a nonzero coefficient, rows are normalized to leading
coefficient one, and leading roots are eliminated from the other rows.
Lemma: the leading roots of an elementary subalgebra commute mod p.  Its one
premise is an additive order key (`RootOrder.respects_addition`): for rows
led by rho_i and rho_j only the leading entries reach the rho_i + rho_j
coordinate of their bracket, which is therefore N_{rho_i,rho_j}.

A point lies in the echelon cell of its set of leading roots, and `_cell` is
the one description of that cell: exhaustive enumeration and the
leading-term systems both read it.  Exhaustive enumeration walks the cells
whose pivots commute mod p (`_pivot_sets`), each one row level at a time,
solving the bracket constraints of all partial fillings of a level as one
stack of linear systems (they are linear in each new row) and filtering rows
by p-nilpotency of the adjoint matrix.  Its points stay one key-sorted
stack (`PointSet`) through fusion.  G-conjugacy of
points inside u is decided with the Bruhat decomposition: two subalgebras of
u are conjugate iff generators of B(F_q) and simple reflections, each
keeping u, join them, so the components of the point set under these moves
are its classes; its unions span each class by a tree.  `conjugation_reduce`
has two routes to a normal form: a point of a closed orbit G lie(I), I an
abelian ideal, is b w lie(I), and `_closed_orbit_word` clears it by root
elements and reads its pivot set's path to I from the catalog; any other
point reads a path in its fusion tree.  Every word is replayed onto its form
before it is returned.
The generators of B(F_q) are few: torus conjugation turns x_alpha(1) into
x_alpha(c) for every c of a subfield F_{p^e}, so x_alpha(t^k) is kept only
for k < r/e (`_generating_set`).
A move acts through the nonzero entries of its matrix, by table gathers.
Fusion skips the points a move fixes, found without a row reduction: a
reduced point E contains a vector v exactly when v = v[P] E for its pivot
columns P, and a fixed point only joins itself.  A torus move maps E to
E D, which row scaling alone reduces.
The generic orbit BFS over ambient subspaces, which cross-checks the Bruhat
engine at desk scale, is a test oracle in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
from operator import index

import numpy as np

from .gf import GF
from .orders import canonical_order, default_order
from .chevalley import (
    ChevalleyBasis,
    GroupGenerator,
    build_constants,
    cocharacter_element,
    root_group_element,
    weyl_rep_element,
    weyl_word_element,
)
from .commuting import CommutingSet, enumerate_max_commuting
from .rootsys import Root, RootSystem, build_root_system


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would process more candidates than allowed."""


DEFAULT_BUDGET = 100_000_000
# the largest Weyl group whose elements fusion enumerates
WEYL_FUSION_LIMIT = 5000
# solutions of one leading-term system
_MAX_SOLUTIONS = 1_000_000

# partial fillings of a cell whose next row is solved for in one stacked system
_FILL_BATCH = 256
# entries of the int16 ad stack of one `_p_nilpotent_mask` chunk
_AD_CHUNK = 1 << 18
# entries of the (points, r, dim) image stack of one Bruhat fusion chunk
_FUSION_CHUNK = 1 << 16
# pairs of one move that the fusion union-find reads as Python ints at a time
_UNION_SLICE = 1 << 12


# -- settings -----------------------------------------------------------------


@dataclass(eq=False)
class Setting:
    """A root system, its constants over a fixed leading-term order (the
    order is `basis.order_index`), and a field."""

    system: RootSystem
    basis: ChevalleyBasis
    field: GF

    def __post_init__(self):
        n = self.system.num_positive
        # column k of echelon form = k-th largest root
        self.perm_desc = np.argsort(self.basis.order_index)[::-1]
        # column order of canonical forms and keys: u by the order, then the rest of g
        self.colperm = np.concatenate([self.perm_desc, np.arange(n, self.basis.dim)])
        # N_{a,b} mod p for positive a, b (zero where a + b is not a root)
        I, J, _, C = self.basis.brackets.T
        inside = (I < n) & (J < n)
        self.n_mod_p = np.zeros((n, n), dtype=np.int64)
        self.n_mod_p[I[inside], J[inside]] = C[inside] % self.field.p
        self._check_faithful()

    def _check_faithful(self):
        """ad must be injective on u for p-nilpotency to characterize p-power 0.

        Only the block of ad(x_alpha) from the x_{-beta} columns to the h rows
        is checked.  Its rows are a subset of the rows of the whole matrix, so
        a trivial kernel of the block proves a trivial kernel of ad on u.  The
        block is the coroot rows of the bracket table, [x_alpha, x_{-alpha}]
        = h_alpha: column alpha is zero outside the x_{-alpha} column of
        ad(x_alpha), where it holds the coroot alpha^vee in simple coroots.
        The columns have disjoint supports, so the kernel is trivial exactly
        when no coroot vanishes mod p.  Every coroot is W-conjugate to a
        simple coroot, so its coefficients have gcd 1: the check cannot fail.
        It stays as the check on the basis the rest of this module relies
        on, and `perfbench/tracing.py` pins `GF.nullspace` on the `unipotent`
        workload, where this is its only caller.
        """
        gf, n = self.field, self.n_pos
        I, J, K, C = self.basis.brackets.T
        rows = (I < n) & (J == I + n)
        M = gf.zeros((self.system.rank * n, n))
        M[(K[rows] - 2 * n) * n + J[rows] - n, I[rows]] = C[rows] % gf.p
        if len(gf.nullspace(M)):
            raise ArithmeticError(
                f"adjoint representation not faithful on u for {self.system} over {gf}"
            )

    @property
    def n_pos(self) -> int:
        return self.system.num_positive


@lru_cache(maxsize=None)
def get_setting(type_label: str, rank: int, p: int, degree: int = 1) -> Setting:
    system = build_root_system(type_label, rank)
    try:
        order = canonical_order(type_label, rank)
    except ValueError:
        order = default_order(system)
    return Setting(system, build_constants(system, order), GF.get(p, degree))


def _pivots(setting: Setting, rows: np.ndarray) -> np.ndarray:
    """Storage index of each row's leading root: its first nonzero in `perm_desc`."""
    return setting.perm_desc[np.argmax(rows[..., setting.perm_desc] != 0, axis=-1)]


# -- elementary subalgebras -----------------------------------------------------


@dataclass(eq=False)
class ElementarySubalgebra:
    """Subspace of u in reduced echelon form with respect to the root order."""

    setting: Setting
    rows: np.ndarray  # (r, n_pos) in storage coordinates

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def pack(self) -> bytes:
        return keys(self.setting, self.rows[None])[0]

    def leading_roots(self) -> list[Root]:
        return [self.setting.system.root(i) for i in _pivots(self.setting, self.rows).tolist()]

    def as_g_rows(self) -> np.ndarray:
        g = self.setting.field.zeros((self.dim, self.setting.basis.dim))
        g[:, : self.setting.n_pos] = self.rows
        return g

    def __repr__(self):
        lead = sorted(r.coeffs for r in self.leading_roots())
        return f"ElementarySubalgebra(dim={self.dim}, lt={lead})"


@dataclass(frozen=True, eq=False)
class PointSet:
    """Points of one dimension r as one (N, r, n_pos) stack of canonical
    rows (storage coordinates).  Item i is an `ElementarySubalgebra` view
    of `rows[i]`, built only when read; a stack is 36 B per G2/F25 point
    against about 224 B per `ElementarySubalgebra`."""

    setting: Setting
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return (ElementarySubalgebra(self.setting, rows) for rows in self.rows)

    def __getitem__(self, i) -> ElementarySubalgebra:
        return ElementarySubalgebra(self.setting, self.rows[index(i)])


def canonical(setting: Setting, rows: np.ndarray) -> np.ndarray:
    """Reduced echelon form of linearly independent rows, in storage coordinates.

    Pivots are taken in the column order `setting.colperm`.  `rows` is one
    (r, d) matrix or an (N, r, d) stack, with d = n_pos (subspaces of u) or
    d = dim (subspaces of g).
    """
    gf = setting.field
    cols = setting.colperm[: rows.shape[-1]]
    if rows.ndim == 2:
        R, pivots = gf.rref(rows[:, cols])
        if len(pivots) != rows.shape[0]:
            raise ValueError("rows are linearly dependent")
    else:
        R = gf.batch_rref(rows[:, :, cols])
    out = np.empty_like(R)
    out[..., cols] = R
    return out


def keys(setting: Setting, stack: np.ndarray) -> list[bytes]:
    """One byte key per canonical matrix of an (N, r, d) stack: its entries
    read row by row in the column order `setting.colperm`."""
    return _key_array(setting, stack).tolist()


def _key_array(setting: Setting, stack: np.ndarray) -> np.ndarray:
    """The keys of `keys` as one (N,) array of fixed-width `np.void` items,
    which numpy sorts and searches by memcmp, the order of the bytes keys.
    An entry is one byte, or two big-endian ones when q > 256."""
    N, r, d = stack.shape
    entry = np.dtype(np.uint8 if setting.field.q <= 256 else ">u2")
    ordered = stack[:, :, setting.colperm[:d]].astype(entry, order="C").reshape(N, r * d)
    return ordered.view(np.dtype((np.void, r * d * entry.itemsize))).ravel()


def normal_form_tag(setting: Setting, rows: np.ndarray) -> str:
    """Tag "lie:<roots>" when the rows are root vectors of u, else "generic"."""
    if rows[:, setting.n_pos :].any() or ((rows != 0).sum(axis=1) != 1).any():
        return "generic"
    roots = sorted(setting.system.root(int(np.flatnonzero(row)[0])).coeffs for row in rows)
    return "lie:" + ";".join(",".join(map(str, c)) for c in roots)


def subalgebra_from_rows(setting: Setting, rows_u: np.ndarray) -> ElementarySubalgebra:
    """Canonicalize arbitrary spanning rows (storage coordinates) to echelon form."""
    return ElementarySubalgebra(setting, canonical(setting, rows_u))


def lie(setting: Setting, roots) -> ElementarySubalgebra:
    """Chevalley span of a commuting set, in echelon form."""
    if isinstance(roots, CommutingSet):
        roots = roots.members()
    roots = list(roots)
    gf = setting.field
    idx = [setting.system.index(r) for r in roots]
    clash = np.argwhere(np.triu(setting.n_mod_p[np.ix_(idx, idx)], 1))
    if len(clash):
        a, b = clash[0]
        raise ValueError(f"{roots[a]} and {roots[b]} do not commute in characteristic {gf.p}")
    rows = gf.zeros((len(idx), setting.n_pos))
    for k, i in enumerate(idx):
        rows[k, i] = 1
    return subalgebra_from_rows(setting, rows)


def is_elementary(setting: Setting, rows_u: np.ndarray) -> bool:
    """Pairwise brackets vanish and every basis row is p-nilpotent.

    On an abelian span the p-power map is p-semilinear, so row conditions
    suffice for all elements.
    """
    gf = setting.field
    # [x_i, x_j] is column j of ads[i]
    if gf.matmul(setting.basis.ad_of(gf, rows_u, "u"), rows_u.T).any():
        return False
    return bool(_p_nilpotent_mask(setting, rows_u).all())


def _p_nilpotent_mask(setting: Setting, rows_u: np.ndarray) -> np.ndarray:
    """Boolean mask over candidate u-rows: ad(x)^p == 0 in g.

    ad(x)^p = ad(x^[p]), and ad is injective on u (`Setting._check_faithful`),
    so ad(x)^p == 0 is equivalent to x^[p] == 0.

    ad(x)^p is a derivation in characteristic p (Leibniz's rule for D^p has
    binomials C(p, k) = 0 mod p for 0 < k < p; Jacobson), so it kills the
    subalgebra generated by the basis elements it kills.  It is applied
    only to the columns `ChevalleyBasis.lie_generators`: x_{+-alpha_i}, or
    all of g where these do not generate g mod p.  With V those columns of
    ad(x), ad(x)^p V is p - 1 products ad(x) V.  ad(x) on g is gathered
    from the u-rows of the bracket table alone (`ChevalleyBasis.ad_of`).
    The rows go in chunks whose (rows, dim, dim) ad stacks hold about
    `_AD_CHUNK` entries.  Each distinct row is tested once
    (`GF.distinct_rows`)."""
    gf = setting.field
    cols = setting.basis.lie_generators(gf.p)
    step = max(1, _AD_CHUNK // setting.basis.dim**2)
    rows_u, inverse = gf.distinct_rows(rows_u)
    out = np.zeros(len(rows_u), dtype=bool)
    for lo in range(0, len(rows_u), step):
        ad = setting.basis.ad_of(gf, rows_u[lo : lo + step], "g")
        V = ad[:, :, cols]
        for _ in range(gf.p - 1):
            V = gf.matmul(ad, V)
        out[lo : lo + step] = ~V.any(axis=(1, 2))
    return out[inverse]


# -- exhaustive enumeration -------------------------------------------------------


def _cell(setting: Setting, pos) -> tuple[list[int], list[list[int]]]:
    """The echelon cell of the pivots at ascending positions `pos` of `perm_desc`.

    Returns their storage indices, largest root first, and `below`,
    where `below[k]` holds the storage indices, ascending, of the non-pivot
    roots under pivot k in the order.  A point of the cell has one row per
    pivot: coefficient one at the pivot, its other entries in `below[k]`.
    """
    n = setting.n_pos
    perm = setting.perm_desc.tolist()
    taken = set(pos)
    below = [sorted(perm[j] for j in range(c + 1, n) if j not in taken) for c in pos]
    return [perm[c] for c in pos], below


def _pivot_sets(setting: Setting, r: int):
    """The r-sets of positions in `perm_desc` whose roots commute mod p, in
    `itertools.combinations` order (by the module docstring's lemma no other
    cell holds a point), grown largest root first while at least
    r - len(chosen) candidates commuting with every chosen pivot remain.
    """
    perm = setting.perm_desc
    clash = (setting.n_mod_p[np.ix_(perm, perm)] != 0).tolist()

    def grow(chosen, cands):
        if len(chosen) == r:
            yield chosen
            return
        for k, c in enumerate(cands[: len(cands) - (r - len(chosen)) + 1]):
            yield from grow(chosen + [c], [d for d in cands[k + 1 :] if not clash[c][d]])

    return grow([], list(range(setting.n_pos)))


def brute_force_Eu(setting: Setting, r: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Every r-dimensional elementary subalgebra of u over the field, as a
    `PointSet` of canonical rows sorted by key (`keys`).  It is closed under
    B(F_q), as `g_conjugacy_classes` needs.

    Echelon-cell traversal: for each set of r pivots that commute mod p
    (`_pivot_sets`) the rows of its `_cell` are filled from the smallest
    pivot up, one level at a time for all partial fillings of the cell.
    The bracket conditions against the rows already fixed are linear in the
    new row's entries below its pivot, so for a batch of at most
    `_FILL_BATCH` fillings one stacked `GF.solve_affine` gives each as an
    affine subspace.  The candidate rows of fillings with equal pivot sets
    are built in one `GF.span_points` broadcast, and all rows of the batch
    are filtered by p-nilpotency at once.  The budget counts candidate rows,
    q^k for each consistent system with k free entries, before they are
    built; a row repeated in the batch counts each time, although
    p-nilpotency tests it once.  The count C(n, r) of all pivot patterns is
    bounded up front.  Whatever the budget, one broadcast builds at most
    `DEFAULT_BUDGET` candidate rows, and the points and the partial
    fillings of the level in progress hold at most `DEFAULT_BUDGET` entries.
    """
    gf = setting.field
    n = setting.n_pos
    if r < 1:
        raise ValueError(f"dimension {r} is out of range: it must be at least 1")
    n_patterns = math.comb(n, r)
    if n_patterns > budget:
        raise BudgetExceeded(f"{n_patterns} pivot patterns exceed the budget of {budget}")
    processed = stored = 0  # candidate rows; entries of the points found
    found: list[np.ndarray] = []  # the points of each cell, (F, r, n)

    for pos in _pivot_sets(setting, r):
        pivots, below = _cell(setting, pos)
        # partial fillings (F, r - 1 - k, n): the rows of pivots k + 1, ..., r - 1
        fills = gf.zeros((1, 0, n))
        for k in range(r - 1, -1, -1):
            grown, held = [], stored
            for lo in range(0, len(fills), _FILL_BATCH):
                F = fills[lo : lo + _FILL_BATCH]
                ads = setting.basis.ad_of(gf, F, "u").reshape(len(F), F.shape[1] * n, n)
                ok, part, piv, kernel = gf.solve_affine(
                    ads[:, :, below[k]], gf.NEG[ads[:, :, pivots[k]]]
                )
                live = np.flatnonzero(ok)
                sets, group = gf.distinct_rows(piv[live])
                cands, parents = [], []
                for g, pivot_set in enumerate(sets):
                    items = live[group == g]
                    free = np.flatnonzero(~pivot_set)
                    # count the q^k candidate rows of each system before building them
                    rows = len(items) * gf.q ** len(free)
                    processed += rows
                    if processed > budget:
                        raise BudgetExceeded(f"candidate-row budget of {budget} exceeded")
                    if rows > DEFAULT_BUDGET:  # whatever the budget, bound one broadcast
                        raise BudgetExceeded(
                            f"{rows} candidate rows exceed the {DEFAULT_BUDGET} built at once"
                        )
                    pts = gf.span_points(kernel[items][:, free], part[items])
                    cand = gf.zeros(pts.shape[:2] + (n,))
                    cand[:, :, pivots[k]] = 1
                    cand[:, :, below[k]] = pts
                    cands.append(cand.reshape(-1, n))
                    parents.append(np.repeat(lo + items, pts.shape[1]))
                if not cands:
                    continue
                cand, parent = np.concatenate(cands), np.concatenate(parents)
                keep = _p_nilpotent_mask(setting, cand)
                grown.append(np.concatenate([cand[keep, None], fills[parent[keep]]], axis=1))
                held += grown[-1].size
                if held > DEFAULT_BUDGET:  # whatever the budget, bound what is stored
                    raise BudgetExceeded(
                        f"{held} entries of points and partial fillings exceed the "
                        f"{DEFAULT_BUDGET} held at once"
                    )
            fills = np.concatenate(grown) if grown else gf.zeros((0, r - k, n))
        found.append(fills)
        stored += fills.size
    points = np.concatenate(found) if found else gf.zeros((0, r, n))
    return PointSet(setting, points[np.argsort(_key_array(setting, points), kind="stable")])


# -- leading-term systems --------------------------------------------------------


@dataclass
class LeadingTermSystem:
    """Bracket-vanishing equations for echelon bases with prescribed pivots."""

    setting: Setting
    pivots: list[int]  # storage indices, decreasing in the order
    unknowns: list[tuple[int, int]]  # (row index, storage column)
    equations: list[dict[tuple, int]]  # monomial (sorted unknown ids) -> coeff

    def var_label(self, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        k, col = self.unknowns[v]
        sys = self.setting.system
        return (sys.root(self.pivots[k]).coeffs, sys.root(col).coeffs)


def build_leading_term_system(setting: Setting, target: CommutingSet) -> LeadingTermSystem:
    gf = setting.field
    n = setting.n_pos
    pos = [c for c, i in enumerate(setting.perm_desc.tolist()) if target.mask >> i & 1]
    pivots, below = _cell(setting, pos)
    unknowns = [(k, col) for k, cols in enumerate(below) for col in cols]
    var = count()  # unknown ids in the order of `unknowns`
    row_support = [  # (storage col, var or None): the pivot, then the roots below it
        [(p_i, None)] + [(col, next(var)) for col in cols] for p_i, cols in zip(pivots, below)
    ]
    sums = setting.system.sum_index[:n, :n].tolist()
    n_mod_p = setting.n_mod_p.tolist()
    equations = []
    for i in range(len(pivots)):
        for j in range(i + 1, len(pivots)):
            by_out: dict[int, dict[tuple, int]] = {}
            for (ca, va) in row_support[i]:
                for (cb, vb) in row_support[j]:
                    coeff = n_mod_p[ca][cb]
                    if coeff == 0:
                        continue
                    mono = tuple(sorted(v for v in (va, vb) if v is not None))
                    eq = by_out.setdefault(sums[ca][cb], {})
                    eq[mono] = (eq.get(mono, 0) + coeff) % gf.p
            for eq in by_out.values():
                eq = {m: c for m, c in eq.items() if c}
                if eq:
                    equations.append(eq)
    lts = LeadingTermSystem(setting, pivots, unknowns, equations)
    assert all(not any(len(m) == 0 for m in eq) or eq.get((), 0) == 0 for eq in lts.equations)
    return lts


@dataclass
class SolveReport:
    system: LeadingTermSystem
    solutions: list[tuple[int, ...]]
    unique_zero: bool
    free_vars: list[int] | None  # coordinate-subspace description if it applies

    @property
    def count(self) -> int:
        return len(self.solutions)

    def describe(self) -> str:
        if self.unique_zero:
            return "unique solution: all unknowns zero"
        if self.free_vars is not None:
            labels = [self.system.var_label(v) for v in self.free_vars]
            return (
                f"affine family: {len(self.free_vars)} free coordinates "
                f"{labels}, all other unknowns zero"
            )
        return f"{self.count} solutions (no coordinate-subspace description)"


def leading_term_solve(lts: LeadingTermSystem) -> SolveReport:
    """All solutions over F_q by backtracking with propagation, in the
    field's addition and multiplication tables."""
    gf = lts.setting.field
    q = gf.q
    ADD, MUL, NEG, INV = (t.tolist() for t in (gf.ADD, gf.MUL, gf.NEG, gf.INV))
    nvars = len(lts.unknowns)
    solutions: list[tuple[int, ...]] = []

    def substitute(eq: dict, assign: dict[int, int]) -> dict | None:
        out: dict[tuple, int] = {}
        for mono, c in eq.items():
            vs = []
            val = c
            for v in mono:
                if v in assign:
                    val = MUL[val][assign[v]]
                else:
                    vs.append(v)
            if val == 0:
                continue
            key = tuple(sorted(vs))
            out[key] = ADD[out.get(key, 0)][val]
            if out[key] == 0:
                del out[key]
        return out

    def propagate(eqs: list[dict], assign: dict[int, int]):
        """Unit-propagate equations linear in a single unknown; None on conflict."""
        assign = dict(assign)
        while True:
            forced = False
            new_eqs = []
            for eq in eqs:
                eq = substitute(eq, assign)
                if not eq:
                    continue
                if set(eq) == {()}:
                    return None, None
                vs = {v for mono in eq for v in mono}
                if len(vs) == 1:
                    (v,) = vs
                    lin = eq.get((v,), 0)
                    const = eq.get((), 0)
                    if lin:
                        # v is unassigned: substitute removed every assigned unknown
                        assign[v] = MUL[NEG[const]][INV[lin]]
                        forced = True
                        continue
                new_eqs.append(eq)
            if not forced:
                return new_eqs, assign
            eqs = new_eqs

    def branch(eqs: list[dict], assign: dict[int, int]):
        eqs, assign = propagate(eqs, assign)
        if eqs is None:
            return
        live = [eq for eq in eqs if eq]
        if not live:
            fill = [v for v in range(nvars) if v not in assign]
            base = [assign.get(v, 0) for v in range(nvars)]
            if len(solutions) + q ** len(fill) > _MAX_SOLUTIONS:
                raise BudgetExceeded("solution budget exceeded in leading_term_solve")
            for vals in product(range(q), repeat=len(fill)):
                sol = list(base)
                for v, val in zip(fill, vals):
                    sol[v] = val
                solutions.append(tuple(sol))
            return
        eq = min(live, key=lambda e: len({v for mono in e for v in mono}))
        v = min({v for mono in eq for v in mono})
        for val in range(q):
            a2 = dict(assign)
            a2[v] = val
            branch(eqs, a2)

    branch(lts.equations, {})
    solutions.sort()
    zero = tuple([0] * nvars)
    unique_zero = solutions == [zero]
    free_vars = None
    if not unique_zero and solutions:
        others = [v for v in range(nvars) if any(s[v] for s in solutions)]
        # the solutions are distinct, so q^k of them fill the k coordinates
        if len(solutions) == q ** len(others):
            free_vars = others
    return SolveReport(lts, solutions, unique_zero, free_vars)


def solution_subalgebra(
    lts: LeadingTermSystem, solution: tuple[int, ...]
) -> ElementarySubalgebra:
    gf = lts.setting.field
    rows = gf.zeros((len(lts.pivots), lts.setting.n_pos))
    for k, p_i in enumerate(lts.pivots):
        rows[k, p_i] = 1
    for v, val in enumerate(solution):
        k, col = lts.unknowns[v]
        rows[k, col] = val
    return subalgebra_from_rows(lts.setting, rows)


# -- normalizers -------------------------------------------------------------------


def normalizer_in_g(E: ElementarySubalgebra) -> tuple[np.ndarray, int]:
    """Basis rows and dimension of {y in g : [y, E] <= E}."""
    basis_rows = normalizer_basis(E.setting, E.as_g_rows())
    return basis_rows, len(basis_rows)


def normalizer_basis(setting: Setting, rows_g: np.ndarray) -> np.ndarray:
    """Basis rows of the normalizer in g of the span of the rows of g."""
    gf = setting.field
    Rg, pivots = gf.rref(rows_g)
    R = Rg[: len(pivots)]
    # y -> [y, e] = -ad_e y for each basis row e, reduced modulo the span by
    # clearing its pivot coordinates: M - R^T M[pivots] (R is reduced, so
    # clearing one pivot leaves the others' coordinates alone)
    M = gf.NEG[setting.basis.ad_of(gf, R, "g")]
    M = gf.SUB[M, gf.matmul(R.T, M[:, pivots, :])]
    return gf.nullspace(M.reshape(-1, M.shape[-1]))


# -- generator sets -----------------------------------------------------------------


def _generating_set(setting: Setting, roots) -> list[GroupGenerator]:
    """x_alpha(t^k) for alpha in roots and k < r/e_alpha, t^k in the F_p-basis
    1, ..., t^(r-1) of F_q, then alpha_j^vee(lam0) for each simple j and a
    primitive lam0 (none if q = 2).  With these torus elements T they
    generate every x_alpha(F_q):

    By Steinberg's relation h x_alpha(c) h^-1 = x_alpha(alpha(h) c), the
    conjugates of x_alpha(c) by T are x_alpha(lam c) for lam in H_alpha,
    the group generated by the entries lam0^<alpha, alpha_j^vee> of the
    alpha_j^vee(lam0) at x_alpha.  x_alpha is additive, so their products
    are x_alpha(c K) for K = F_p[H_alpha], the F_p-span of a multiplicative
    group, which is the subfield F_{p^e} generated by those entries: e_alpha
    is the least e with x^(p^e) = x for each.  t generates F_q over F_p,
    hence over K, so 1, ..., t^(r/e - 1) is a K-basis of F_q and the kept
    x_alpha(t^k) give x_alpha(F_q).  Over F_p, and when q = 2, e = r = 1."""
    gf, system = setting.field, setting.system
    additive, lam0 = gf.generators()
    torus = []
    if lam0 != 1:
        torus = [cocharacter_element(setting.basis, gf, j, lam0) for j in range(1, system.rank + 1)]
    gens = []
    for a in roots:
        i = system.signed_index(a)
        entries = [int(h.matrix[i, i]) for h in torus]
        e = next(e for e in count(1) if all(gf.power(x, gf.p**e) == x for x in entries))
        gens += [root_group_element(setting.basis, gf, a, t) for t in additive[: gf.degree // e]]
    return gens + torus


def borel_generators(setting: Setting) -> list[GroupGenerator]:
    """Generators of B(F_q): `_generating_set` of the positive roots alpha
    that are no sum beta + gamma of positive roots with N_{beta,gamma} != 0
    mod p.  By descending induction on height, [x_beta(t), x_gamma(1)] =
    x_alpha(+-N t) times higher root elements puts each dropped x_alpha in
    <kept> Phi(U), so by Burnside's basis theorem the x_alpha(t) of the kept
    alpha and every t in the F_p-basis of F_q generate the p-group U(F_q)
    (x_alpha is additive in t, alpha^vee multiplicative).  The generating
    set holds the torus T, and with it every x_alpha(F_q) of a kept alpha,
    so the group it generates contains U and T: it is B.  Over G2/F25 both
    simple roots keep x_alpha(1) alone, as H_alpha is all of F_25^x.
    In a finite group the components of a generator graph are the orbits.
    """
    made = set(setting.system.sum_index[np.nonzero(setting.n_mod_p)].tolist())
    roots = setting.system.positive_roots
    return _generating_set(setting, [a for k, a in enumerate(roots) if k not in made])


def check_weyl_order(system: RootSystem):
    """BudgetExceeded if |W| > `WEYL_FUSION_LIMIT`, decided from the degrees
    before any search."""
    if (order := math.prod(system.degrees())) > WEYL_FUSION_LIMIT:
        raise BudgetExceeded(
            f"the Weyl group of {system.name} has {order} elements, "
            f"more than the {WEYL_FUSION_LIMIT} that fusion enumerates"
        )


def weyl_words_all(system: RootSystem) -> list[tuple[int, ...]]:
    """Shortest words for every Weyl group element (small groups only)."""
    check_weyl_order(system)
    return list(system.weyl_words().values())


@lru_cache(maxsize=None)
def _moves(setting: Setting) -> tuple[list[GroupGenerator], list[list[tuple]]]:
    """The moves of Bruhat fusion, built once per setting: the generators of
    B(F_q), then the simple reflections (they suffice by
    `g_conjugacy_classes`), with the nonzero entries M[a, b] = c of the
    u-rows M = g.matrix.T[:n_pos] (the points lie in u) in layers (a, b, c):
    layer l holds the l-th entry of each column b.  A torus move's u-rows
    are diagonal: one layer, with a == b."""
    words = [w for w in weyl_words_all(setting.system) if len(w) == 1]
    gens = borel_generators(setting) + [
        weyl_word_element(setting.basis, setting.field, w) for w in words
    ]
    return gens, [GF.layers(g.matrix.T[: setting.n_pos]) for g in gens]


# -- Bruhat fusion: exact G(F_q)-conjugacy on points inside u ---------------------------


def _torus_forms(gf: GF, scale: np.ndarray, E: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Canonical forms of the images E D of a stack of reduced points E, with
    pivot columns `pivots`, under D = diag(scale) on u.  Row k of E D is
    zero at every pivot but its own, where it holds scale[pivots[k]], so E D
    divided row by row by those entries is reduced, with the pivots of E."""
    return gf.MUL[E, gf.MUL[scale, gf.INV[scale[pivots]][..., None]]]


@dataclass
class FusionClass:
    representative: ElementarySubalgebra
    point_indices: list[int]
    normalizer_dim: int
    edges: np.ndarray  # spanning tree, rows (i, k, j): move k of `_moves` maps E_i to E_j

    @property
    def size(self) -> int:
        return len(self.point_indices)


def g_conjugacy_classes(setting: Setting, points: PointSet) -> list[FusionClass]:
    """Partition of E(u)(F_q) into G(F_q)-conjugacy classes.

    Complete by the Bruhat decomposition: if gE = E' for E, E' in u, write
    g = b w b'; then E_1 = b'E and w E_1 lie in u.  For w = w' s_i with
    l(w') < l(w), w(alpha_i) < 0, so alpha_i is outside the support of E_1
    and s_i E_1 lies in u; by induction on l(w), B-moves and simple
    reflections that keep each point inside u join E to E'.  So the classes
    are the union-find components under `_moves`.  The points are read as
    `points.rows`, canonical rows in any order (`brute_force_Eu` sorts them
    by key); a point index is a row of that stack.  The set must be closed
    under B, as the output of `brute_force_Eu` is.
    Every union that merges two classes is kept as an edge of their tree.

    Each move takes a chunk of points at a time and acts through the nonzero
    entries of its u-rows (`GF.sparse_matmul`, table gathers; a Weyl move
    has one per row).  A point E_i that the move fixes is
    skipped: E_i is reduced, its rows are unit vectors at its pivot columns
    P_i, so an image row v lies in E_i exactly when v = v[P_i] E_i (r table
    terms, `GF.take_matmul`), and a fixed point only gives the edge (i, i),
    which merges nothing.  The other images inside u are reduced by
    `canonical`.  A move whose u-rows are diagonal (a torus element, told
    from its matrix) needs neither step: its image E_i D is reduced up to
    row scale (`_torus_forms`), and E_i is fixed exactly when that form is
    E_i.  The forms are found by `np.searchsorted` in the sorted key array
    of the points.  Of the pairs of one move, numpy drops those whose classes
    were already one when the move began and all but the first that join
    the same two classes; the union-find walks the rest in point order, in
    slices of `_UNION_SLICE` pairs, so the unions, and hence the trees (rows
    of one int array, at most len(points) - 1), are those of the plain loop
    over every (point, move) pair.
    """
    if not points:
        return []
    gf = setting.field
    n, d = setting.n_pos, setting.basis.dim
    rows_all = points.rows
    npts, r = rows_all.shape[:2]
    point_keys = _key_array(setting, rows_all)
    order = np.argsort(point_keys, kind="stable")
    sorted_keys = point_keys[order]
    pivots = _pivots(setting, rows_all)
    step = max(1, _FUSION_CHUNK // (r * d))
    root = np.arange(npts)  # the least point of each point's class so far
    tree = np.zeros((npts - 1, 3), dtype=np.intc)  # (i, k, j) per merging union
    n_edges = 0

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # the generators of B(F_q) keep u; a simple reflection counts on the
    # points it keeps inside u
    for k_move, (g, layers) in enumerate(zip(*_moves(setting))):
        a, b, c = layers[0]
        scale = None  # the diagonal of a torus move's u-rows
        if len(layers) == 1 and (a == b).all():
            scale = gf.zeros(n)
            scale[a] = c
        src, dst = [], []
        for lo in range(0, npts, step):
            E, piv = rows_all[lo : lo + step], pivots[lo : lo + step]
            if scale is None:
                imgs = gf.sparse_matmul(E, layers, d)
                inside = np.flatnonzero(~imgs[:, :, n:].any(axis=(1, 2)))
                imgs, E = imgs[inside, :, :n], E[inside]
                coeffs = np.take_along_axis(imgs, piv[inside, None, :], axis=2)
                moved = (gf.take_matmul(coeffs, E) != imgs).any(axis=(1, 2))
            else:
                inside = np.arange(len(E))
                imgs = _torus_forms(gf, scale, E, piv)
                moved = (imgs != E).any(axis=(1, 2))
            if not moved.any():
                continue
            imgs = imgs[moved]
            img_keys = _key_array(setting, imgs if scale is not None else canonical(setting, imgs))
            at = np.minimum(sorted_keys.searchsorted(img_keys), npts - 1)
            if (sorted_keys[at] != img_keys).any():
                raise ValueError(
                    "Weyl image inside u is missing from the point list" if g.kind == "weyl_word"
                    else "point list is not closed under the Borel action"
                )
            src.append(lo + inside[moved])
            dst.append(order[at])
        if not src:
            continue
        i, j = np.concatenate(src), np.concatenate(dst)
        # of the pairs joining the same two classes only the first can merge them
        ends = np.sort(np.stack([root[i], root[j]], axis=1), axis=1)
        _, first = np.unique(ends[:, 0] * npts + ends[:, 1], return_index=True)
        first = np.sort(first[ends[first, 0] != ends[first, 1]])
        parent = root.tolist()
        for lo in range(0, len(first), _UNION_SLICE):
            part = first[lo : lo + _UNION_SLICE]
            for a, b in zip(i[part].tolist(), j[part].tolist()):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
                    tree[n_edges] = a, k_move, b
                    n_edges += 1
        root = np.array(parent)
        while ((up := root[root]) != root).any():  # pointer jumping
            root = up

    tree = tree[:n_edges]
    # a class is represented by its point of least key, and the classes
    # follow their representatives' keys
    _, first = np.unique(root[order], return_index=True)
    classes = []
    for rep_i in order[np.sort(first)].tolist():
        nd = len(normalizer_basis(setting, points[rep_i].as_g_rows()))
        members = np.flatnonzero(root == root[rep_i]).tolist()
        own = root[tree[:, 0]] == root[rep_i]
        classes.append(FusionClass(points[rep_i], members, nd, tree[own]))
    return classes


# -- conjugation words ------------------------------------------------------------------


def _apply_word_u(setting: Setting, E: ElementarySubalgebra, word) -> ElementarySubalgebra:
    rows = E.as_g_rows()
    for g in word:
        rows = g.apply_rows(rows)
    if rows[:, setting.n_pos :].any():
        raise ValueError("conjugation word left u")
    return subalgebra_from_rows(setting, rows[:, : setting.n_pos])


def replay_verify(
    setting: Setting, E: ElementarySubalgebra, word, target: ElementarySubalgebra
) -> bool:
    return _apply_word_u(setting, E, word).pack() == target.pack()


@lru_cache(maxsize=None)
def _fusion_words(setting: Setting) -> dict[bytes, tuple[list, ElementarySubalgebra]]:
    """For every point of maximal dimension, by packing: a word onto the normal
    form of its class, and that form.  The words are the paths from the form
    in the class's fusion tree; an edge walked against its direction gives
    the inverse generator, from one row reduction of [M | I].  A class has
    its member of `g2_normal_forms` if it holds one (G_2 with m = 3), else
    its minimal point."""
    system, gf = setting.system, setting.field
    check_weyl_order(system)
    points = brute_force_Eu(setting, enumerate_max_commuting(system, p=gf.p).m)
    packs = keys(setting, points.rows)
    forms = set()
    if system.type_label == "G":
        forms = {F.pack() for F in g2_normal_forms(setting).values()}
    gens, inverses, out = _moves(setting)[0], {}, {}
    for c in g_conjugacy_classes(setting, points):
        steps = {i: [] for i in c.point_indices}  # (neighbour, its first letter)
        for i, k, j in c.edges.tolist():
            g = gens[k]
            if k not in inverses:
                d = len(g.matrix)
                R, _ = gf.rref(np.concatenate([g.matrix, gf.eye(d)], axis=1), ncols=d)
                inverses[k] = GroupGenerator("inverse", (g.kind, g.label), gf, R[:, d:])
            steps[j].append((i, g))
            steps[i].append((j, inverses[k]))
        start = min(c.point_indices, key=lambda i: (packs[i] not in forms, packs[i]))
        words, todo = {start: []}, [start]
        while todo:
            y = todo.pop()
            for x, g in steps[y]:
                if x not in words:
                    words[x] = [g] + words[y]
                    todo.append(x)
        form = points[start]
        out.update((packs[i], (w, form)) for i, w in words.items())
    return out


def conjugation_reduce(
    setting: Setting, E: ElementarySubalgebra
) -> tuple[list[GroupGenerator], ElementarySubalgebra]:
    """Reduce E to its normal form by an explicit word, verified by replay.

    E must have the maximal dimension m of its type and characteristic.  A
    point of a closed orbit G lie(I), I an abelian ideal, reduces to lie(I)
    by `_closed_orbit_word`; B_n's two families land on lie(S_1), and B_4's
    lie(phi_rad(1)) is its own normal form.  Any other point reads a path in
    the fusion forest (`_fusion_words`, not a shortest word); a G_2 point
    lands on lie(C_5) or lie(R_1) by the first route, otherwise on lie(C_3),
    L or, over F_5, N4 = span(x_{(0,1)} + x_{(3,1)}, x_{(1,1)} +
    2x_{(2,1)}, x_{(3,2)}), the minimal point of the fourth class.  Every
    word is replayed onto its form, so exactness does not rest on the
    clearing rule reaching every closed-orbit point.  A point neither route
    reduces raises only after its setting's fusion forest is consulted:
    that refuses a Weyl group past the fusion limit, and otherwise builds
    the forest (for B_5/F_5 a build that has not been timed).
    """
    sys, p = setting.system, setting.field.p
    m = enumerate_max_commuting(sys, p=p).m
    if E.dim != m:
        raise ValueError(
            f"dimension {E.dim} is not the maximal dimension {m} "
            f"for type {sys.name} at p = {p}"
        )
    found = _closed_orbit_word(setting, E) or _fusion_words(setting).get(E.pack())
    if found is None:
        raise ValueError("E is not an elementary subalgebra of u")
    word, out = list(found[0]), found[1]
    if not replay_verify(setting, E, word, out):
        raise AssertionError("conjugation word failed replay verification")
    return word, out


def _closed_orbit_word(setting: Setting, E: ElementarySubalgebra):
    """A word from E onto lie(I) for an abelian ideal I, and lie(I); None
    when the two steps below do not apply.

    By the Bruhat decomposition a point of the closed orbit G lie(I) is
    b w lie(I).  Clearing: while a row led by root a has a nonzero entry c
    at a non-pivot root b, take one of least height(b) - height(a) and apply
    x_gamma(-c/N) for gamma = b - a, N = N_{gamma,a} mod p, which clears it
    (None unless gamma is a positive root and N != 0; at most n_pos steps).
    As b lies below a, x_gamma lowers every root it moves in the additive
    order, so the pivot set X stays and E ends as lie(X).  Weyl walk: s_i
    with alpha_i not in X keeps X positive and maps lie(X) to lie(s_i X), so
    the shortest such path from X to the ideal of its component, which the
    p-catalog records (`MaxSetCatalog.to_ideal`) if the component holds one,
    ends at lie(I); it is read first, so a point off every closed orbit
    costs no clearing.
    """
    system, gf, n = setting.system, setting.field, setting.n_pos
    lead = _pivots(setting, E.rows)
    path = enumerate_max_commuting(system, p=gf.p).to_ideal.get(sum(1 << int(i) for i in lead))
    if path is None:
        return None
    letters, ideal = path
    height = np.array([system.root(i).height for i in range(n)])
    word = []
    for _ in range(n + 1):
        off = E.rows.copy()
        off[:, lead] = 0
        rows, cols = np.nonzero(off)
        if not len(rows):
            word += [weyl_rep_element(setting.basis, gf, i) for i in letters]
            return word, lie(setting, CommutingSet(system, ideal))
        k = np.argmin(height[cols] - height[lead[rows]])
        a, b = int(lead[rows[k]]), int(cols[k])
        gamma = int(system.sum_index[b, n + a])
        if not 0 <= gamma < n or not (N := int(setting.n_mod_p[gamma, a])):
            return None
        t = gf.MUL[gf.NEG[off[rows[k], b]], gf.INV[N]]
        word.append(root_group_element(setting.basis, gf, system.root(gamma), int(t)))
        E = _apply_word_u(setting, E, word[-1:])
    return None


@lru_cache(maxsize=None)
def g2_normal_forms(setting: Setting) -> dict[str, ElementarySubalgebra]:
    """The G_2 normal forms in good characteristic: lie(C3), lie(C5) and
    L = span(x_{(0,1)} + x_{(3,1)}, x_{(2,1)}, x_{(3,2)})."""
    sys, gf = setting.system, setting.field
    L = gf.zeros((3, setting.n_pos))
    for k, coeffs in enumerate([(0, 1), (2, 1), (3, 2)]):
        L[k, sys.index(Root(coeffs))] = 1
    L[0, sys.index(Root((3, 1)))] = 1
    return {
        "lie(C3)": lie(setting, [Root((0, 1)), Root((2, 1)), Root((3, 2))]),
        "lie(C5)": lie(setting, [Root((2, 1)), Root((3, 1)), Root((3, 2))]),
        "L": subalgebra_from_rows(setting, L),
    }
