"""Conjugacy classes of maximal elementary abelian p-subgroups of G(F_q).

Class counts are derived from the commuting-root catalogs: for a good prime,
the classes correspond to the components of the partial Weyl action that
contain an ideal, with two tabulated exceptions (rank-2 type A contributes a
third, non-Chevalley class for p >= 3; G2 is reported with a lower-bound
marker and the exact desk-scale count is available through the witness
below).  The subgroup order is q^m with m the maximal number of commuting
roots, and the spectrum report mirrors the class report with Krull dimension
p^(r*m - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .commuting import MaxSetCatalog, enumerate_max_commuting
from .rootsys import build_root_system


@dataclass
class ClassReport:
    type_label: str
    rank: int
    p: int
    r: int
    class_count: int | str  # integer, or ">=3" for G2
    order_exponent: int
    representatives: list

    @property
    def q(self) -> int:
        return self.p**self.r

    def to_json(self) -> dict:
        return {
            "type": self.type_label,
            "rank": self.rank,
            "p": self.p,
            "r": self.r,
            "class_count": self.class_count,
            "order_exponent": self.order_exponent,
            "order": f"q^{self.order_exponent}",
            "representatives": self.representatives,
        }


@dataclass
class SpectrumReport:
    type_label: str
    rank: int
    p: int
    r: int
    component_count: int | str
    dimension_exponent: int  # r * m - 1, the printed exponent
    rank_exponent: int  # r * m, the maximal elementary abelian rank

    def dimension_expression(self) -> str:
        return f"p^{self.dimension_exponent}"

    def to_json(self) -> dict:
        return {
            "type": self.type_label,
            "rank": self.rank,
            "p": self.p,
            "r": self.r,
            "component_count": self.component_count,
            "dimension": self.dimension_expression(),
            "dimension_exponent": self.dimension_exponent,
            "rank_exponent": self.rank_exponent,
        }


def _check_good(type_label: str, rank: int, p: int):
    profile = build_root_system(type_label, rank).prime_profile()
    if p in profile.bad_primes:
        raise ValueError(
            f"p = {p} is bad for {type_label}{rank}; class counts assume a good prime"
        )


def _ideal_class_data(catalog: MaxSetCatalog):
    reps = []
    for comp in catalog.orbit_components:
        ideals = [k for k in comp if catalog.ideals[k]]
        if ideals:
            reps.append(
                [list(r.coeffs) for r in catalog.sets[ideals[0]].members()]
            )
    return reps


def class_report(type_label: str, rank: int, p: int, r: int = 1) -> ClassReport:
    """Classes of maximal elementary abelian p-subgroups of G(F_{p^r})."""
    _check_good(type_label, rank, p)
    system = build_root_system(type_label, rank)
    catalog = enumerate_max_commuting(system)
    reps = _ideal_class_data(catalog)
    count: int | str = len(reps)
    if type_label == "A" and rank == 2 and p >= 3:
        # at p = 2 the span of x_a1 + x_a2 and x_{a1+a2} is not 2-nilpotent
        count = 3
        reps = reps + [["span(x_a1 + x_a2) with the highest root group"]]
    elif type_label == "G":
        count = ">=3"
        reps = []
    return ClassReport(type_label, rank, p, r, count, catalog.m, reps)


def spectrum_report(type_label: str, rank: int, p: int, r: int = 1) -> SpectrumReport:
    """Components and dimension of Spec H*(G(F_{p^r}), k)."""
    rep = class_report(type_label, rank, p, r)
    m = rep.order_exponent
    return SpectrumReport(
        type_label, rank, p, r, rep.class_count, r * m - 1, r * m
    )


# candidate rows of brute force: F25 takes 17,559; F29, F49 and F125 are refused
WITNESS_BUDGET = 20_000


def _g2_witness_classes(p: int, r: int):
    """Bruhat fusion classes of the 3-dimensional points of u for G2 over F_q."""
    if p < 5:
        raise ValueError(f"p = {p} is bad for G2: the maximal dimension is 4, not 3")
    from .elementary import brute_force_Eu, g_conjugacy_classes, get_setting

    setting = get_setting("G", 2, p, degree=r)
    return g_conjugacy_classes(setting, brute_force_Eu(setting, 3, budget=WITNESS_BUDGET))


def g2_class_count_witness(p: int, r: int) -> int:
    """Exact number of G(F_q)-classes of maximal elementary abelian subgroups
    for G2 by Bruhat fusion: 3 + gcd(3, q - 1) at q = 5, 7, 11, 13, 25 (LEDGER.md).

    Desk-scale only: p >= 5 with a field F_{p^r} (ValueError otherwise),
    within `WITNESS_BUDGET` (BudgetExceeded otherwise).
    """
    return len(_g2_witness_classes(p, r))


def g2_witness_normalizer_dims(p: int, r: int) -> list[int]:
    """Sorted normalizer dimensions across the witness classes."""
    return sorted(c.normalizer_dim for c in _g2_witness_classes(p, r))
