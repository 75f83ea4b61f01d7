"""Batch command-line interface.

Exit codes: 0 pass, 1 mathematical mismatch, 2 invalid input, 3 budget
exhausted.  `enumerate` prints one JSON line per conjugacy class, then a
summary line; all of them are printed after fusion has finished.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import golden as goldmod
from .chevgroups import class_report
from .commuting import catalog_to_json, enumerate_max_commuting
from .elementary import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    brute_force_Eu,
    build_leading_term_system,
    check_weyl_order,
    g2_normal_forms,
    g_conjugacy_classes,
    get_setting,
    is_elementary,
    leading_term_solve,
    lie,
    lt,
    normal_form_tag,
    normalizer_in_g,
    solution_subalgebra,
    subalgebra_from_rows,
)
from .gf import GF
from .rootsys import Root, build_root_system

EXIT_PASS, EXIT_MISMATCH, EXIT_INVALID, EXIT_BUDGET = 0, 1, 2, 3


class CliError(Exception):
    pass


def _parse_type(label: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)", label or "")
    if not m:
        raise CliError(f"malformed type {label!r}; expected e.g. A2, B4, G2")
    t, n = m.group(1), int(m.group(2))
    try:
        build_root_system(t, n)
    except ValueError as e:
        raise CliError(str(e)) from None
    return t, n


def _budget(args) -> int:
    if args.budget < 1:
        raise CliError(f"--budget {args.budget} is out of range: it must be at least 1")
    return args.budget


def _emit_table(rows: list[dict], fmt: str, out):
    if fmt == "json":
        json.dump(rows, out, indent=1, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        cols = sorted({k for row in rows for k in row})
        out.write(",".join(cols) + "\n")
        for row in rows:
            out.write(
                ",".join(json.dumps(row.get(c), sort_keys=True).replace(",", ";") for c in cols)
                + "\n"
            )
    else:
        cols = sorted({k for row in rows for k in row})
        widths = {
            c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in cols
        }
        out.write("  ".join(c.ljust(widths[c]) for c in cols) + "\n")
        for row in rows:
            out.write(
                "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in cols) + "\n"
            )


def cmd_tables(args, out) -> int:
    which = args.which
    if args.golden_file == "":
        raise CliError("--golden-file needs a path")
    if args.write_golden and (args.golden or args.golden_file):
        raise CliError("--write-golden writes the embedded table; it takes no --golden or --golden-file")
    if args.type is not None:
        if which != "maxsets" or args.golden or args.golden_file or args.write_golden:
            raise CliError(
                "--type works only with --which maxsets and without "
                "--golden, --golden-file or --write-golden"
            )
        t, n = _parse_type(args.type)
        cat = enumerate_max_commuting(build_root_system(t, n))
        _emit_table([catalog_to_json(cat)] if args.format == "json" else [
            {"type": t, "rank": n, "m": cat.m, "count": cat.count}
        ], args.format, out)
        return EXIT_PASS
    rows = goldmod.BUILDERS[which]()
    if args.write_golden:
        path = goldmod.write_golden(which, rows)
        out.write(f"wrote {path}\n")
        return EXIT_PASS
    if args.golden or args.golden_file:
        path = args.golden_file
        try:
            mismatches = goldmod.diff_golden(which, rows, path)
        except (OSError, ValueError) as e:  # unreadable, not JSON, or not rows
            reason = getattr(e, "strerror", None) or e
            raise CliError(f"golden file {path or goldmod.golden_path(which)}: {reason}") from None
        if mismatches:
            for line in mismatches:
                out.write(f"MISMATCH {line}\n")
            return EXIT_MISMATCH
        out.write(f"{which}: {len(rows)} rows match the golden table\n")
        return EXIT_PASS
    _emit_table(rows, args.format, out)
    return EXIT_PASS


def _verify_unipotent(t, n, p, budget, out) -> int:
    system = build_root_system(t, n)
    GF.get(p)  # reject a bad p before any verdict is printed
    verdicts = []
    golden = {
        (row["type"], row["rank"]): (row["m"], row["count"])
        for row in goldmod.load_golden("maxsets")
    }
    if (t, n) in golden:
        cat0 = enumerate_max_commuting(system)  # the table is the characteristic-0 catalog
        ok = (cat0.m, cat0.count) == golden[(t, n)]
        verdicts.append(ok)
        out.write(f"[{'PASS' if ok else 'FAIL'}] max commuting sets: m={cat0.m} count={cat0.count}\n")
    # maximal p-commuting sets: at a bad prime m can exceed the good-prime value
    cat = enumerate_max_commuting(system, p=p)
    setting = get_setting(t, n, p)
    try:
        points = brute_force_Eu(setting, cat.m, budget=budget)
    except BudgetExceeded as e:
        out.write(f"[BUDGET] exhaustive enumeration rejected: {e}\n")
        return EXIT_BUDGET
    masks = {s.mask for s in cat.sets}
    ok = all(lt(E).mask in masks for E in points)
    verdicts.append(ok)
    out.write(f"[{'PASS' if ok else 'FAIL'}] {len(points)} points; lt lands in max(Phi)\n")
    total = 0
    for k, R in enumerate(cat.sets):
        lts = build_leading_term_system(setting, R)
        rep = leading_term_solve(lts)
        elem = [
            sol
            for sol in rep.solutions
            if is_elementary(setting, solution_subalgebra(lts, sol).rows)
        ]
        total += len(elem)
        out.write(
            f"  target #{k}: {len(lts.unknowns)} unknowns, "
            f"{rep.count} bracket solutions, {len(elem)} elementary; {rep.describe()}\n"
        )
    ok = total == len(points)
    verdicts.append(ok)
    out.write(f"[{'PASS' if ok else 'FAIL'}] solution total {total} vs brute force {len(points)}\n")
    return EXIT_PASS if all(verdicts) else EXIT_MISMATCH


def _check_fusion(setting, r, budget):
    """Refuse a Weyl group too large for fusion unless brute force refuses first."""
    if math.comb(setting.n_pos, r) <= budget:
        check_weyl_order(setting.system)


def _verify_orbits(t, n, p, budget, out) -> int:
    setting = get_setting(t, n, p)
    # maximal p-commuting sets: at a bad prime m can exceed the good-prime value
    cat = enumerate_max_commuting(setting.system, p=p)
    _check_fusion(setting, cat.m, budget)
    try:
        points = brute_force_Eu(setting, cat.m, budget=budget)
    except BudgetExceeded as e:
        out.write(f"[BUDGET] {e}\n")
        return EXIT_BUDGET
    classes = g_conjugacy_classes(setting, points)
    verdicts = []
    const = True
    for c in classes:
        dims = {normalizer_in_g(points[i])[1] for i in c.point_indices[: min(8, c.size)]}
        if len(dims) != 1:
            const = False
    verdicts.append(const)
    out.write(f"[{'PASS' if const else 'FAIL'}] normalizer dimension constant on sampled class members\n")
    out.write(
        f"classes: {len(classes)} with normalizer dims "
        f"{sorted(c.normalizer_dim for c in classes)}\n"
    )
    # the count the groups table carries, an integer or a lower bound ">=k";
    # the table covers good primes only
    if p not in setting.system.prime_profile().bad_primes:
        expected = class_report(t, n, p)["class_count"]
        if isinstance(expected, str):
            ok = len(classes) >= int(expected.removeprefix(">="))
        else:
            ok = len(classes) == expected
        verdicts.append(ok)
        out.write(f"[{'PASS' if ok else 'FAIL'}] class count {len(classes)} vs expected {expected}\n")
    return EXIT_PASS if all(verdicts) else EXIT_MISMATCH


def _verify_normalizers(t, n, p, budget, out) -> int:
    if (t, n) == ("G", 2) and p < 5:
        # lie(C3), lie(C5) and L have maximal dimension only at a good prime
        raise CliError(f"the G2 normalizer check needs a good prime p >= 5, not p = {p}")
    if (t, n) == ("A", 2) and p == 2:
        # x_a1 + x_a2 squares to x_{a1+a2} in gl_3, so L3 is no point at p = 2
        raise CliError("L3 is not 2-nilpotent, so it is no point at p = 2 (LEDGER.md, A2 over F2)")
    setting = get_setting(t, n, p)
    if (t, n) == ("G", 2):
        dims = tuple(normalizer_in_g(E)[1] for E in g2_normal_forms(setting).values())
        ok = dims == (7, 9, 6)
        out.write(f"[{'PASS' if ok else 'FAIL'}] N_g dims of (lie(C3), lie(C5), L) = {dims}, expected (7, 9, 6)\n")
        return EXIT_PASS if ok else EXIT_MISMATCH
    if (t, n) == ("A", 2):
        gf = setting.field
        sys_ = setting.system
        rows = gf.zeros((2, 3))
        rows[0, sys_.index(Root((1, 0)))] = 1
        rows[0, sys_.index(Root((0, 1)))] = 1
        rows[1, sys_.index(Root((1, 1)))] = 1
        _, d = normalizer_in_g(subalgebra_from_rows(setting, rows))
        out.write(
            f"dim N_g(L3) = {d}; orbit dimension dim(G) - d = {8 - d} "
            "(the printed orbit dimension 5 disagrees; see LEDGER.md)\n"
        )
        return EXIT_PASS
    # maximal p-commuting sets: at a bad prime m can exceed the good-prime value
    cat = enumerate_max_commuting(setting.system, p=p)
    for k, R in enumerate(cat.sets):
        if cat.ideals[k]:
            _, d = normalizer_in_g(lie(setting, R))
            out.write(f"ideal #{k}: dim N_g(lie(R)) = {d}\n")
    return EXIT_PASS


def cmd_verify(args, out) -> int:
    t, n = _parse_type(args.type)
    budget = _budget(args)
    stages = {
        "unipotent": _verify_unipotent,
        "orbits": _verify_orbits,
        "normalizers": _verify_normalizers,
    }
    return stages[args.stage](t, n, args.p, budget, out)


def cmd_enumerate(args, out) -> int:
    t, n = _parse_type(args.type)
    budget = _budget(args)
    setting = get_setting(t, n, args.p, degree=args.r_ext)
    if not 1 <= args.dim <= setting.n_pos:
        raise CliError(f"--dim {args.dim} is out of range 1..{setting.n_pos} for {t}{n}")
    _check_fusion(setting, args.dim, budget)
    try:
        points = brute_force_Eu(setting, args.dim, budget=budget)
    except BudgetExceeded as e:
        out.write(json.dumps({"error": "budget", "detail": str(e)}) + "\n")
        return EXIT_BUDGET
    classes = g_conjugacy_classes(setting, points)
    for c in classes:
        out.write(
            json.dumps(
                {
                    "representative_rows": c.representative.rows.tolist(),
                    "size": c.size,
                    "normalizer_dim": c.normalizer_dim,
                    "normal_form_tag": normal_form_tag(setting, c.representative.rows),
                },
                sort_keys=True,
            )
            + "\n"
        )
    out.write(
        json.dumps(
            {
                "type": t,
                "rank": n,
                "p": args.p,
                "field_degree": args.r_ext,
                "r": args.dim,
                "point_count": len(points),
                "orbit_count": len(classes),
            },
            sort_keys=True,
        )
        + "\n"
    )
    return EXIT_PASS


def _reject(message: str):
    """argparse's error hook: a bad argument is one line on stderr, as every
    other invalid input is, not a usage block."""
    raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chevlie")
    sub = ap.add_subparsers(dest="command", required=True)

    tp = sub.add_parser("tables", help="emit or check the computed tables")
    tp.add_argument("--which", required=True,
                    choices=["primes", "maxsets", "stabilizers", "groups", "spectrum"])
    tp.add_argument("--format", default="text", choices=["text", "json", "csv"])
    tp.add_argument("--golden", action="store_true", help="diff against the embedded golden table")
    tp.add_argument("--golden-file", type=str, default=None, help="diff against a custom golden file")
    tp.add_argument("--write-golden", action="store_true", help="regenerate the embedded golden table")
    tp.add_argument("--type", type=str, default=None)

    vp = sub.add_parser("verify", help="desk-scale verification of the classification claims")
    vp.add_argument("--stage", required=True, choices=["unipotent", "orbits", "normalizers"])
    vp.add_argument("--type", required=True)
    vp.add_argument("--p", required=True, type=int)
    vp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    ep = sub.add_parser("enumerate", help="enumerate E(u)(F_q) and its conjugacy classes")
    ep.add_argument("--type", required=True)
    ep.add_argument("--p", required=True, type=int)
    ep.add_argument("--dim", required=True, type=int)
    ep.add_argument("--r-ext", type=int, default=1, help="field extension degree")
    ep.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    for parser in (ap, tp, vp, ep):
        parser.error = _reject
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:  # --help wrote its text; a bad argument raises CliError
        return EXIT_PASS
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID
    out = sys.stdout
    commands = {"tables": cmd_tables, "verify": cmd_verify, "enumerate": cmd_enumerate}
    try:
        code = commands[args.command](args, out)
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID
    except BudgetExceeded as e:
        sys.stderr.write(f"budget: {e}\n")
        return EXIT_BUDGET
    except (ValueError, ArithmeticError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID
    finally:
        out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
