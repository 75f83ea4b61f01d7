"""Exit codes, golden diffs, and deterministic output of the CLI."""

import hashlib
import io
import json
import time

import numpy as np
import pytest

from chevlie import elementary, golden
from chevlie.cli import main
from chevlie.elementary import brute_force_Eu, g_conjugacy_classes, get_setting


def run(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_tables_golden_pass():
    code, out = run(["tables", "--which", "primes", "--golden"])
    assert code == 0
    assert "match the golden" in out


def test_tables_text_and_csv():
    code, out = run(["tables", "--which", "primes", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("bad,")
    code, out = run(["tables", "--which", "spectrum", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    g2 = [r for r in rows if r["type"] == "G"][0]
    assert g2["component_count"] == ">=3"


G2_MAXSETS = {
    "count": 5, "m": 3, "predicate": ["plain"], "rank": 2, "type": "G",
    "sets": [
        {"ideal": ideal, "orbit": orbit, "roots": roots, "stabilizer_generators": gens}
        for ideal, orbit, roots, gens in [
            (False, 0, [[0, 1], [1, 1], [3, 2]], []),
            (False, 1, [[0, 1], [2, 1], [3, 2]], []),
            (False, 1, [[1, 0], [3, 1], [3, 2]], []),
            (False, 1, [[1, 1], [3, 1], [3, 2]], []),
            (True, 0, [[2, 1], [3, 1], [3, 2]], [2]),
        ]
    ],
}


def test_tables_maxsets_one_type():
    # text: one padded column per key, sorted; json: the whole catalog
    code, out = run(["tables", "--which", "maxsets", "--type", "G2"])
    assert code == 0
    assert out == "count  m  rank  type\n5      3  2     G   \n"
    code, out = run(["tables", "--which", "maxsets", "--type", "G2", "--format", "json"])
    assert code == 0
    assert out == json.dumps([G2_MAXSETS], indent=1, sort_keys=True) + "\n"


def test_tables_mismatch_exit_code(tmp_path):
    bad = tmp_path / "primes.json"
    bad.write_text(json.dumps([{"type": "A", "rank": 1, "bad": [97]}]))
    code, out = run(["tables", "--which", "primes", "--golden-file", str(bad)])
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("which", list(golden.BUILDERS))
def test_write_golden_reproduces_the_checked_in_file(monkeypatch, tmp_path, which):
    # --write-golden writes the rows it built, byte for byte the checked-in file
    checked_in = golden.golden_path(which).read_bytes()
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    code, out = run(["tables", "--which", which, "--write-golden"])
    path = tmp_path / f"{which}.json"
    assert code == 0
    assert out == f"wrote {path}\n"
    assert path.read_bytes() == checked_in


@pytest.mark.parametrize("extra", [["--golden"], ["--golden-file", "primes.json"]],
                         ids=["golden", "golden-file"])
def test_write_golden_refuses_a_diff(monkeypatch, tmp_path, capsys, extra):
    # --write-golden with a diff flag is invalid input: nothing is written
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    code, out = run(["tables", "--which", "primes", "--write-golden"] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "--write-golden" in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content,reason",
    [
        (None, "No such file or directory"),
        ("dir", "Is a directory"),
        ('{"a": 1}', "not a JSON list of table rows"),
        ("[1, 2]", "not a JSON list of table rows"),
    ],
    ids=["missing", "directory", "object", "numbers"],
)
def test_tables_bad_golden_file(tmp_path, capsys, content, reason):
    # a golden file that cannot be read or holds no rows is invalid input,
    # not a mismatch
    path = tmp_path / "primes.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    code, out = run(["tables", "--which", "primes", "--golden-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "MISMATCH" not in out
    assert len(err.splitlines()) == 1 and str(path) in err and reason in err


def test_invalid_type_exit_code():
    code, _ = run(["tables", "--which", "maxsets", "--type", "Z9"])
    assert code == 2
    code, _ = run(["verify", "--stage", "unipotent", "--type", "E9", "--p", "3"])
    assert code == 2


def test_budget_exit_code():
    code, out = run(["verify", "--stage", "unipotent", "--type", "E8", "--p", "2"])
    assert code == 3
    assert "BUDGET" in out
    assert "m=36 count=134" in out  # clique-level checks still reported


@pytest.mark.parametrize("t,p,points", [("G2", 3, 7), ("G2", 2, 1), ("B3", 2, 1), ("B4", 2, 1)])
def test_verify_unipotent_at_bad_primes(t, p, points):
    # r and the leading-term targets come from the maximal p-commuting sets:
    # the characteristic-0 catalog gives a smaller r at these primes, so the
    # brute force listed non-maximal subalgebras (B4 at p = 2: r = 7 against 10)
    start = time.perf_counter()
    code, out = run(["verify", "--stage", "unipotent", "--type", t, "--p", str(p)])
    assert code == 0, out
    assert f"[PASS] {points} points; lt lands in max(Phi)" in out
    assert f"[PASS] solution total {points} vs brute force {points}" in out
    assert time.perf_counter() - start < 10


def test_budget_lines_are_short():
    # the pattern count and the budget only: the exact candidate count of E8
    # has about 1,000 digits
    for argv in (
        ["verify", "--stage", "unipotent", "--type", "E8", "--p", "2"],
        ["verify", "--stage", "orbits", "--type", "E8", "--p", "2"],
        ["verify", "--stage", "orbits", "--type", "E7", "--p", "3"],
        ["enumerate", "--type", "E7", "--p", "2", "--dim", "27", "--budget", "1000"],
    ):
        code, out = run(argv)
        assert code == 3, argv
        line = out.splitlines()[-1]
        assert "pivot patterns exceed the budget" in line
        assert len(line.encode()) < 200, (argv, line)


def test_verify_unipotent_b4():
    code, out = run(["verify", "--stage", "unipotent", "--type", "B4", "--p", "3"])
    assert code == 0
    assert "unique solution: all unknowns zero" in out


def test_verify_normalizers_g2():
    code, out = run(["verify", "--stage", "normalizers", "--type", "G2", "--p", "5"])
    assert code == 0
    assert out == "[PASS] N_g dims of (lie(C3), lie(C5), L) = (7, 9, 6), expected (7, 9, 6)\n"


def test_verify_normalizers_a2_d4():
    code, out = run(["verify", "--stage", "normalizers", "--type", "A2", "--p", "5"])
    assert code == 0
    assert out == (
        "dim N_g(L3) = 4; orbit dimension dim(G) - d = 4 "
        "(the printed orbit dimension 5 disagrees; see LEDGER.md)\n"
    )
    code, out = run(["verify", "--stage", "normalizers", "--type", "D4", "--p", "3"])
    assert code == 0
    assert out == "".join(f"ideal #{k}: dim N_g(lie(R)) = 22\n" for k in range(3))


@pytest.mark.parametrize(
    "type_,dims",
    [
        ("F4", {45: 34, 51: 36, 54: 32, 55: 32}),
        ("B4", {0: 26}),
        ("B3", {0: 15}),
        ("B2", {0: 7, 1: 7}),
    ],
)
def test_verify_normalizers_at_p2(type_, dims):
    # the B(F_2)-stable sets of the 2-catalog, whose m exceeds the
    # characteristic-0 one (F4: 11, not 9); F4's dims are the closed-orbit
    # dims that `verify --stage orbits --type F4 --p 2` prints
    code, out = run(["verify", "--stage", "normalizers", "--type", type_, "--p", "2"])
    assert code == 0
    assert out == "".join(f"ideal #{k}: dim N_g(lie(R)) = {d}\n" for k, d in dims.items())


def test_verify_orbits_exit_codes():
    code, out = run(["verify", "--stage", "orbits", "--type", "A2", "--p", "5"])
    assert code == 0
    assert "class count 3 vs expected 3" in out
    # at p = 2 the non-Chevalley A2 class does not exist (LEDGER.md, A2 over F2)
    code, out = run(["verify", "--stage", "orbits", "--type", "A2", "--p", "2"])
    assert code == 0
    assert "class count 2 vs expected 2" in out
    # G2 is checked against the tabulated lower bound; F5 has four classes
    code, out = run(["verify", "--stage", "orbits", "--type", "G2", "--p", "5"])
    assert code == 0
    assert "class count 4 vs expected >=3" in out
    # at the bad prime 3, G2 has maximal dimension 4 and one class (criterion 8);
    # the groups table covers good primes only, so no count is compared
    code, out = run(["verify", "--stage", "orbits", "--type", "G2", "--p", "3"])
    assert code == 0
    assert "classes: 1 " in out
    assert "class count" not in out
    # every other type at a good prime is compared with the groups table too
    for t, count in [("D4", 3), ("B4", 2)]:
        code, out = run(["verify", "--stage", "orbits", "--type", t, "--p", "3"])
        assert code == 0
        assert f"[PASS] class count {count} vs expected {count}\n" in out


def test_verify_orbits_a2_q_1_mod_3():
    # five classes at p = 7 against the tabulated three; the verdict stays red
    # (LEDGER.md, A2 over F_q with q = 1 mod 3)
    code, out = run(["verify", "--stage", "orbits", "--type", "A2", "--p", "7"])
    assert code == 1
    assert "[FAIL] class count 5 vs expected 3" in out


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["enumerate", "--type", "A2", "--p", "4", "--dim", "2"], "p = 4 is not a prime"),
        (["verify", "--stage", "orbits", "--type", "A2", "--p", "6"], "p = 6 is not a prime"),
        (["enumerate", "--type", "A2", "--p", "5", "--dim", "2", "--r-ext", "0"],
         "field degree 0 is not positive"),
        (["enumerate", "--type", "A2", "--p", "5", "--dim", "0"], "out of range 1..3"),
        (["enumerate", "--type", "A2", "--p", "5", "--dim", "4"], "out of range 1..3"),
        (["verify", "--stage", "unipotent", "--type", "G2", "--p", "4"], "p = 4 is not a prime"),
        # lie(C3), lie(C5) and L are points of maximal dimension only at p >= 5
        (["verify", "--stage", "normalizers", "--type", "G2", "--p", "3"], "good prime p >= 5"),
        (["verify", "--stage", "normalizers", "--type", "G2", "--p", "2"], "good prime p >= 5"),
        # --budget has no sentinel value: 0 and negative budgets are rejected
        (["verify", "--stage", "unipotent", "--type", "A2", "--p", "3", "--budget", "0"],
         "--budget 0 is out of range"),
        (["enumerate", "--type", "A2", "--p", "5", "--dim", "2", "--budget", "-1"],
         "--budget -1 is out of range"),
        # --type selects one row of the maxsets table, and is never diffed
        (["tables", "--which", "primes", "--type", "A2"], "--type works only with"),
        (["tables", "--which", "maxsets", "--type", "A2", "--golden"], "--type works only with"),
        (["tables", "--which", "primes", "--golden-file", ""], "--golden-file needs a path"),
        # L3 is abelian but not 2-nilpotent (LEDGER.md, A2 over F2)
        (["verify", "--stage", "normalizers", "--type", "A2", "--p", "2"], "not 2-nilpotent"),
        # argparse's own errors: one line, no usage block
        (["enumerate", "--type", "G2", "--dim", "3"], "the following arguments are required: --p"),
        (["tables", "--which", "bogus"], "argument --which: invalid choice: 'bogus'"),
        (["enumerate", "--type", "G2", "--p", "x", "--dim", "3"], "argument --p: invalid int value: 'x'"),
        # a field too large for its q x q tables is refused before any is built
        (["verify", "--stage", "unipotent", "--type", "G2", "--p", "100003"], "q = 100003 is too large"),
        # a composite p is named as such, whatever the degree
        (["enumerate", "--type", "A2", "--p", "4", "--dim", "2", "--r-ext", "2"], "p = 4 is not a prime"),
        (["enumerate", "--type", "A2", "--p", "6", "--dim", "2", "--r-ext", "3"], "p = 6 is not a prime"),
        # a huge p or degree is refused before p**degree is computed
        (["enumerate", "--type", "A2", "--p", str(10**18 + 3), "--dim", "2", "--r-ext", "2"],
         "no pinned irreducible polynomial"),
        (["enumerate", "--type", "A2", "--p", "2", "--dim", "2", "--r-ext", str(10**9)],
         "no pinned irreducible polynomial"),
    ],
)
def test_invalid_input_exit_code(argv, reason, capsys):
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and reason in err
    assert "[PASS]" not in out  # no verdict before the input is rejected


@pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"]], ids=["chevlie", "enumerate"])
def test_help_exits_0(argv, capsys):
    code, out = run(argv)
    assert code == 0
    assert out.startswith("usage: chevlie")
    assert capsys.readouterr().err == ""


def test_enumerate_classical_type():
    # B3's root order differs from its storage order
    code, out = run(["enumerate", "--type", "B3", "--p", "3", "--dim", "5"])
    assert code == 0
    assert json.loads(out.splitlines()[-1])["orbit_count"] == 1


def test_enumerate_stream():
    code, out = run(["enumerate", "--type", "A2", "--p", "5", "--dim", "2"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["point_count"] == 6
    assert lines[-1]["orbit_count"] == 3
    assert len(lines) == 4
    sizes = sorted(l["size"] for l in lines[:-1])
    assert sizes == [1, 1, 4]
    # q = 2: the brute-force count is 2 (see LEDGER.md, A2 over F2)
    code, out = run(["enumerate", "--type", "A2", "--p", "2", "--dim", "2"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["point_count"] == 2
    # above the maximal dimension there are no points, hence no classes
    code, out = run(["enumerate", "--type", "A2", "--p", "5", "--dim", "3"])
    assert code == 0
    assert json.loads(out) == {"field_degree": 1, "orbit_count": 0, "p": 5, "point_count": 0,
                               "r": 3, "rank": 2, "type": "A"}


@pytest.mark.parametrize(
    "argv,points,classes",
    [
        # p >= h: every x in u is p-nilpotent, so the points are the
        # (q^N - 1)/(q - 1) lines of u; in sl_3 they are the minimal and the
        # regular nilpotent lines
        (["--type", "A2", "--p", "3"], 13, 2),
        (["--type", "B2", "--p", "5"], 156, None),
        # a e12 + b e23 + c e13 in sl_3 over F_{2^r} is 2-nilpotent iff
        # ab = 0: 2q + 1 lines, all of rank-one matrices, one G(F_q)-orbit
        (["--type", "A2", "--p", "2"], 5, 1),
        (["--type", "A2", "--p", "2", "--r-ext", "2"], 9, 1),
    ],
)
def test_enumerate_lines(argv, points, classes):
    # one key row per point is a strided slice of the key stack
    code, out = run(["enumerate", *argv, "--dim", "1"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["point_count"] == points
    assert classes in (None, summary["orbit_count"])


def test_enumerate_over_f343_keys_two_bytes_per_entry():
    # q = 343 > 256: an entry is keyed by two bytes, so no two of the 344
    # points share a key; 2 + gcd(3, q - 1) classes (LEDGER.md, A2 over F_q
    # with q = 1 mod 3)
    code, out = run(["enumerate", "--type", "A2", "--p", "7", "--r-ext", "3", "--dim", "2"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["point_count"] == 344 and lines[-1]["orbit_count"] == 5
    assert sorted(l["size"] for l in lines[:-1]) == [1, 1, 114, 114, 114]


def test_enumerate_budget_exit():
    code, out = run(["enumerate", "--type", "E7", "--p", "2", "--dim", "27", "--budget", "1000"])
    assert code == 3
    # the first row alone has 5^24 candidates: rejected before they are built
    code, out = run(["enumerate", "--type", "B5", "--p", "5", "--dim", "1"])
    assert code == 3
    assert json.loads(out)["error"] == "budget"
    assert "candidate-row budget" in out


def test_large_budget_refuses_one_huge_system():
    # one F4/F5 system has 5^15 candidate rows: whatever --budget says, no
    # single broadcast builds more rows than the default budget allows
    start = time.perf_counter()
    code, out = run(["enumerate", "--type", "F4", "--p", "5", "--dim", "9",
                     "--budget", "1000000000000"])
    assert code == 3 and time.perf_counter() - start < 2
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "error": "budget",
        "detail": "30517578125 candidate rows exceed the 100000000 built at once",
    }


def test_stored_points_are_bounded(monkeypatch):
    # G2/F25 stores 16,901 x 3 x 6 = 304,218 entries of points, and no
    # broadcast builds more than 17,559 rows: with the default budget at
    # 100,000 only the stored entries are refused, whatever --budget says
    monkeypatch.setattr(elementary, "DEFAULT_BUDGET", 100_000)
    code, out = run(["enumerate", "--type", "G2", "--p", "5", "--r-ext", "2", "--dim", "3"])
    assert code == 3 and out.count("\n") == 1
    assert json.loads(out) == {
        "error": "budget",
        "detail": "126450 entries of points and partial fillings exceed the 100000 held at once",
    }


def test_d4_f3_lines_of_dimension_4_are_refused():
    # 8,889,961 points: listing them took 6.3 GB and, under a memory limit,
    # ended in a numpy traceback; the stored-entry bound refuses them in one line
    start = time.perf_counter()
    code, out = run(["enumerate", "--type", "D4", "--p", "3", "--dim", "4"])
    assert code == 3 and time.perf_counter() - start < 20
    assert out.count("\n") == 1
    assert "entries of points and partial fillings exceed the 100000000 held at once" in out


# SHA-256 of `enumerate` stdout and of the int32 little-endian bytes of the
# concatenated `FusionClass.edges`, recorded before the points became one stack
ENUMERATE_DIGESTS = {
    (5, 1): ("08f53b21bd2dc34b99fae1048a947c592db70b3f7b445cabcfa40e07dd93f294",
             "6a0cc75607bc0c2bd4d8482dfb76a9c5f3f650ef1e2fe603cbe43711dc8a8649"),
    (5, 2): ("2b0c99c7ad8fb19a6534ee0a31719e95189640de76ba669eecdee595c499bc6f",
             "d6666e01eaec5ebcc82e225cfbb612210d964f5c97ff0870ccc807b6ed7e251f"),
}


@pytest.mark.parametrize("p,degree", list(ENUMERATE_DIGESTS), ids=["G2-F5", "G2-F25"])
def test_enumerate_g2_pinned(p, degree):
    code, out = run(["enumerate", "--type", "G2", "--p", str(p), "--r-ext", str(degree), "--dim", "3"])
    setting = get_setting("G", 2, p, degree)
    edges = np.concatenate([c.edges for c in g_conjugacy_classes(setting, brute_force_Eu(setting, 3))])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest(),
        hashlib.sha256(edges.astype("<i4").tobytes()).hexdigest(),
    ) == ENUMERATE_DIGESTS[p, degree]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--type", "A6", "--p", "2", "--dim", "12"],
        ["verify", "--stage", "orbits", "--type", "A6", "--p", "2"],
    ],
)
def test_weyl_group_too_large_for_fusion(argv, capsys):
    # |W(A6)| = 5040: refused from the group order before any brute force
    start = time.perf_counter()
    code, out = run(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 1.0
    assert len(err.splitlines()) == 1 and "Weyl group of A6 has 5040 elements" in err
    assert "Traceback" not in err + out


def test_output_is_deterministic():
    _, out1 = run(["enumerate", "--type", "G2", "--p", "5", "--dim", "3"])
    _, out2 = run(["enumerate", "--type", "G2", "--p", "5", "--dim", "3"])
    assert out1 == out2
    _, t1 = run(["tables", "--which", "groups", "--format", "json"])
    _, t2 = run(["tables", "--which", "groups", "--format", "json"])
    assert t1 == t2
