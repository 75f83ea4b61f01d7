"""Computed table builders and golden-file handling.

The golden JSON files under chevlie/golden are generated artifacts: they are
written by `chevlie tables --which <name> --write-golden` and never edited by
hand.  The `--golden` flag recomputes each table and diffs it against the
checked-in file.
"""

from __future__ import annotations

import json
from pathlib import Path

from .commuting import enumerate_max_commuting, weyl_stabilizer_generators
from .chevgroups import class_report, spectrum_report
from .rootsys import build_root_system

GOLDEN_DIR = Path(__file__).parent / "golden"

TABLE1_RANKS = [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)] + [
    ("C", n) for n in range(2, 6)
] + [("D", n) for n in range(4, 7)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

TABLE2_RANKS = [("A", 4), ("A", 5)] + [("B", n) for n in range(2, 7)] + [
    ("C", 3), ("C", 4)
] + [("D", n) for n in range(4, 7)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

TABLE45_RANKS = [("A", n) for n in range(2, 7)] + [("B", n) for n in range(2, 7)] + [
    ("C", n) for n in range(2, 5)
] + [("D", n) for n in range(4, 7)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

# a good prime per type, for the q-symbolic group reports
GOOD_P = {"A": 5, "B": 5, "C": 5, "D": 5, "E": 7, "F": 5, "G": 5}


def build_primes() -> list[dict]:
    rows = []
    for t, n in TABLE1_RANKS:
        prof = build_root_system(t, n).prime_profile()
        rows.append(
            {
                "type": t,
                "rank": n,
                "bad": sorted(prof.bad_primes),
                "torsion": sorted(prof.torsion_primes),
                "fundamental_group_order": prof.fundamental_group_order,
                "longest_root_string": prof.longest_root_string,
            }
        )
    return rows


def build_maxsets() -> list[dict]:
    rows = []
    for t, n in TABLE2_RANKS:
        cat = enumerate_max_commuting(build_root_system(t, n))
        rows.append({"type": t, "rank": n, "m": cat.m, "count": cat.count})
    return rows


def build_stabilizers() -> list[dict]:
    rows = []
    for t, n in TABLE45_RANKS:
        cat = enumerate_max_commuting(build_root_system(t, n))
        for k, s in enumerate(cat.sets):
            if not cat.ideals[k]:
                continue
            gens, report = weyl_stabilizer_generators(s)
            rows.append(
                {
                    "type": t,
                    "rank": n,
                    "ideal": sorted([list(r.coeffs) for r in s.members()]),
                    "stabilizer_generators": sorted(gens),
                    "exhaustively_verified": bool(
                        report.get("stabilizer_equals_parabolic", False)
                    ),
                }
            )
    return rows


def build_groups() -> list[dict]:
    return [class_report(t, n, GOOD_P[t]) for t, n in TABLE45_RANKS]


def build_spectrum() -> list[dict]:
    return [spectrum_report(t, n, GOOD_P[t]) for t, n in TABLE45_RANKS]


BUILDERS = {
    "primes": build_primes,
    "maxsets": build_maxsets,
    "stabilizers": build_stabilizers,
    "groups": build_groups,
    "spectrum": build_spectrum,
}


def golden_path(which: str) -> Path:
    return GOLDEN_DIR / f"{which}.json"


def write_golden(which: str, rows: list[dict]) -> Path:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = golden_path(which)
    path.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return path


def load_golden(which: str, path: Path | str | None = None) -> list[dict]:
    rows = json.loads(Path(path or golden_path(which)).read_text())
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError("not a JSON list of table rows")
    return rows


def diff_golden(which: str, rows: list[dict], path: Path | str | None = None) -> list[str]:
    """Human-readable mismatches between computed rows and the golden file.

    A missing embedded file is a mismatch; a `path` that cannot be read, or
    does not hold a list of rows, raises OSError or ValueError."""
    try:
        expected = load_golden(which, path)
    except FileNotFoundError:
        if path is not None:
            raise
        return [f"golden file for {which} is missing"]
    out = []
    canon = lambda rs: json.dumps(rs, sort_keys=True)
    if canon(rows) != canon(expected):
        bykey = lambda rs: {
            (row.get("type"), row.get("rank"), json.dumps(row.get("ideal"))): row
            for row in rs
        }
        got, want = bykey(rows), bykey(expected)
        for key in sorted(set(got) | set(want), key=str):
            if canon([got.get(key)]) != canon([want.get(key)]):
                out.append(f"{key}: computed {got.get(key)} != golden {want.get(key)}")
        if not out:
            out.append("row ordering differs from the golden file")
    return out
