"""Conjugacy classes of maximal elementary abelian p-subgroups of G(F_q).

Class counts are derived from the commuting-root catalogs: for a good prime,
the classes correspond to the components of the partial Weyl action that
contain an ideal, with two tabulated exceptions (rank-2 type A contributes a
third, non-Chevalley class for p >= 3; G2 is reported with the lower-bound
marker ">=3", and the exact desk-scale count is the test oracle
`g2_witness_classes` in `tests/oracles.py`).  The subgroup order is q^m with
m the maximal number of commuting roots, and the spectrum row repeats the
class count with the tabulated p^(r*m - 1) and the Krull dimension r*m
(Quillen; LEDGER.md).  Each report is the row of its golden table
(`groups.json`, `spectrum.json`), a plain dict.
"""

from __future__ import annotations

from .commuting import MaxSetCatalog, enumerate_max_commuting
from .rootsys import build_root_system


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


def class_report(type_label: str, rank: int, p: int, r: int = 1) -> dict:
    """Classes of maximal elementary abelian p-subgroups of G(F_{p^r}), as the
    `groups.json` row: "class_count" is an integer or the marker ">=3" (G2),
    and the subgroup order is q^"order_exponent".  ValueError at a bad p."""
    _check_good(type_label, rank, p)
    catalog = enumerate_max_commuting(build_root_system(type_label, rank))
    reps = _ideal_class_data(catalog)
    count: int | str = len(reps)
    if type_label == "A" and rank == 2 and p >= 3:
        # at p = 2 the span of x_a1 + x_a2 and x_{a1+a2} is not 2-nilpotent
        count = 3
        reps = reps + [["span(x_a1 + x_a2) with the highest root group"]]
    elif type_label == "G":
        count = ">=3"
        reps = []
    return {
        "type": type_label,
        "rank": rank,
        "p": p,
        "r": r,
        "class_count": count,
        "order_exponent": catalog.m,
        "order": f"q^{catalog.m}",
        "representatives": reps,
    }


def spectrum_report(type_label: str, rank: int, p: int, r: int = 1) -> dict:
    """Components and dimension of Spec H*(G(F_{p^r}), k), as the
    `spectrum.json` row: one component per class of `class_report`, the
    tabulated p^(r*m - 1) and the p-rank r*m, the Krull dimension (Quillen;
    LEDGER.md)."""
    row = class_report(type_label, rank, p, r)
    rm = r * row["order_exponent"]
    return {
        "type": type_label,
        "rank": rank,
        "p": p,
        "r": r,
        "component_count": row["class_count"],
        "dimension": f"p^{rm - 1}",
        "dimension_exponent": rm - 1,
        "rank_exponent": rm,
    }

