"""Workload definitions: the operations of each workload, the set-up each one
names, the seeded inputs, and the checks against the pinned answers.

Every CLI operation and its answer live in pinned.json, one entry per
operation.  The replay workload builds its inputs from the seed; its answers
(the packed normal form each input must reduce to) are pinned per family.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED_PATH = HERE / "pinned.json"

WORKLOADS = ("unipotent", "conjugation", "fusion", "tables")
# Runnable by name but not part of the measured set: these operations fail
# today (see pinned.json "fusion-classical" and README.md).
EXTRA_WORKLOADS = ("fusion-classical",)

# Set-up each workload names.  get_setting is lru-cached on its exact call
# form, so each entry repeats the form the operation itself uses: `verify`
# calls get_setting(t, n, p) and `enumerate` calls get_setting(t, n, p,
# degree=r).  Any other form would leave the real build inside the timed pass.
TABLE1_SYSTEMS = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
SETUP = {
    "tables": {"systems": TABLE1_SYSTEMS, "settings": []},
    "unipotent": {
        "systems": [],
        "settings": [(("B", 4, 3), {}), (("D", 4, 3), {}), (("G", 2, 5), {})],
    },
    "fusion": {
        "systems": [],
        "settings": [(("G", 2, 5), {"degree": 1}), (("G", 2, 5), {"degree": 2})],
    },
    "fusion-classical": {
        "systems": [],
        "settings": [
            ((t, n, 3), {"degree": 1})
            for t, n in [("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)]
        ],
    },
    "conjugation": {
        "systems": [],
        "settings": [(("B", 5, 5), {}), (("G", 2, 5), {}), (("G", 2, 3), {})],
    },
}

B5_SAMPLE = 10  # per family (B and twisted C), so 20 B5 replays per pass


def load_pinned(path: Path = PINNED_PATH) -> dict:
    return json.loads(path.read_text())


def setup(workload: str):
    """Build every root system and Setting the workload names."""
    from chevlie.elementary import get_setting
    from chevlie.rootsys import build_root_system

    spec = SETUP[workload]
    for t, n in spec["systems"]:
        build_root_system(t, n)
    for args, kwargs in spec["settings"]:
        get_setting(*args, **kwargs)


# -- operations -----------------------------------------------------------------


@dataclass
class Op:
    """One operation: a CLI call or one conjugation_reduce call."""

    name: str  # the pinned entry, also the span and metric name
    argv: list | None = None
    setting: object = None
    point: object = None  # ElementarySubalgebra, for replays

    def run(self):
        """Run the operation; return its raw output (checked later)."""
        if self.argv is not None:
            from chevlie import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(self.argv))
            return code, buf.getvalue()
        from chevlie.elementary import conjugation_reduce

        word, out = conjugation_reduce(self.setting, self.point)
        return len(word), out.pack()


def operations(workload: str, seed: int, pinned: dict) -> list[Op]:
    """The operations of one pass, in order.  Replay inputs come from `seed`."""
    if workload == "conjugation":
        return _replay_ops(seed)
    return [Op(name, argv=entry["argv"]) for name, entry in pinned[workload].items()]


def _replay_ops(seed: int) -> list[Op]:
    """A seeded sample of B5/F5 B-family and twisted C-family points (built as
    in acceptance criterion 7), all G2/F5 points and all G2/F3 points."""
    import numpy as np

    from chevlie.chevalley import root_group_element
    from chevlie.elementary import brute_force_Eu, get_setting, subalgebra_from_rows
    from chevlie.rootsys import EuclidModel

    rng = random.Random(seed)
    sb = get_setting("B", 5, 5)
    gf, system, n = sb.field, sb.system, 5
    em = EuclidModel(system)

    def idx(vec):
        return system.index(em.to_root(vec))

    def eps_sum(i, j, sign):
        return tuple(x + sign * y for x, y in zip(em.eps(i), em.eps(j)))

    eps = {i: idx(em.eps(i)) for i in range(1, n + 1)}
    plus = [idx(eps_sum(i, j, 1)) for i in range(1, n) for j in range(i + 1, n + 1)]
    c_fam = [idx(eps_sum(i, j, 1)) for i in range(1, n - 1) for j in range(i + 1, n)]
    c_fam += [idx(eps_sum(i, n, -1)) for i in range(1, n)]

    def point(cols, k):
        a = [rng.randrange(5) for _ in range(k)]
        if not any(a):
            a[rng.randrange(k)] = 1 + rng.randrange(4)
        M = gf.zeros((len(cols) + 1, sb.n_pos))
        for r, c in enumerate(cols):
            M[r, c] = 1
        for i, ai in enumerate(a, start=1):
            M[len(cols), eps[i]] = ai
        return subalgebra_from_rows(sb, M)

    ops = []
    for _ in range(B5_SAMPLE):
        ops.append(Op("replay-B5-F5", setting=sb, point=point(plus, n)))
        E = point(c_fam, n - 1)
        lam = rng.randrange(5)
        if lam:
            g = root_group_element(sb.basis, gf, system.simple_roots[n - 1], lam)
            rows = np.zeros((E.dim, sb.basis.dim), dtype=np.int16)
            rows[:, : sb.n_pos] = E.rows
            E = subalgebra_from_rows(sb, g.apply_rows(rows)[:, : sb.n_pos])
        ops.append(Op("replay-B5-F5", setting=sb, point=E))
    for (t, rank, p), r, name in [(("G", 2, 5), 3, "replay-G2-F5"), (("G", 2, 3), 4, "replay-G2-F3")]:
        s = get_setting(t, rank, p)
        ops += [Op(name, setting=s, point=E) for E in brute_force_Eu(s, r)]
    rng.shuffle(ops)
    return ops


# -- checks against the pinned answers -----------------------------------------------


def check(op: Op, output, pinned: dict, workload: str) -> str | None:
    """None if the output matches its pinned answer, else the reason."""
    if op.argv is None:
        return _check_replay(op, output, pinned["conjugation"][op.name])
    code, text = output
    entry = pinned[workload][op.name]
    if code != entry["exit"]:
        return f"exit code {code}, pinned {entry['exit']}"
    return {"tables": _check_table, "unipotent": _check_unipotent}.get(
        workload, _check_enumerate
    )(text, entry)


def _check_table(text: str, entry: dict) -> str | None:
    which = entry["argv"][2]
    want = f"{which}: {entry['rows']} rows match the golden table\n"
    if text != want:
        return f"golden diff not empty: {text[:200]!r}"
    golden = SRC / "chevlie" / "golden" / f"{which}.json"
    if hashlib.sha256(golden.read_bytes()).hexdigest() != entry["golden_sha256"]:
        return f"{golden.name} differs from its pinned bytes"
    return None


def _check_unipotent(text: str, entry: dict) -> str | None:
    if "[FAIL]" in text:
        return "verify printed a FAIL line"
    patterns = {
        "m": r"max commuting sets: m=(\d+) count=\d+",
        "count": r"max commuting sets: m=\d+ count=(\d+)",
        "points": r"\] (\d+) points; lt lands in max\(Phi\)",
        "solutions": r"solution total (\d+) vs brute force \d+",
    }
    for key, pat in patterns.items():
        m = re.search(pat, text)
        if m is None or int(m.group(1)) != entry[key]:
            return f"{key} = {m and m.group(1)}, pinned {entry[key]}"
    return None


def _check_enumerate(text: str, entry: dict) -> str | None:
    lines = [json.loads(line) for line in text.splitlines()]
    summary = lines[-1]
    got = {
        "points": summary["point_count"],
        "classes": summary["orbit_count"],
        "class_sizes": sorted([c["size"], c["normalizer_dim"]] for c in lines[:-1]),
    }
    for key, value in got.items():
        if key in entry and value != entry[key]:
            return f"{key} = {value}, pinned {entry[key]}"
    return None


def _check_replay(op: Op, output, entry: dict) -> str | None:
    _, packed = output
    if "normal_form" in entry:
        want = entry["normal_form"]
    else:
        k = entry["form_of_point"].get(op.point.pack().hex())
        if k is None:
            return "input point is not in the pinned point set"
        want = entry["normal_forms"][k]
    if packed.hex() != want:
        return f"reduced to {packed.hex()}, pinned {want}"
    return None


def check_inputs(workload: str, ops: list[Op], pinned: dict) -> str | None:
    """The replay inputs must cover the pinned G2 point sets exactly."""
    if workload != "conjugation":
        return None
    g2 = {op.point.pack().hex() for op in ops if op.name == "replay-G2-F5"}
    if g2 != set(pinned["conjugation"]["replay-G2-F5"]["form_of_point"]):
        return f"G2/F5 input set has {len(g2)} points, not the pinned set"
    f3 = sum(op.name == "replay-G2-F3" for op in ops)
    if f3 != pinned["conjugation"]["replay-G2-F3"]["points"]:
        return f"G2/F3 input set has {f3} points"
    return None
