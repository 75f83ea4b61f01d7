"""Exit codes, golden diffs, and deterministic output of the CLI."""

import io
import json

import pytest

from chevlie.cli import main


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


def test_tables_mismatch_exit_code(tmp_path):
    bad = tmp_path / "primes.json"
    bad.write_text(json.dumps([{"type": "A", "rank": 1, "bad": [97]}]))
    code, out = run(["tables", "--which", "primes", "--golden-file", str(bad)])
    assert code == 1
    assert "MISMATCH" in out


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


def test_verify_unipotent_b4():
    code, out = run(["verify", "--stage", "unipotent", "--type", "B4", "--p", "3"])
    assert code == 0
    assert "unique solution: all unknowns zero" in out


def test_verify_normalizers_g2():
    code, out = run(["verify", "--stage", "normalizers", "--type", "G2", "--p", "5"])
    assert code == 0
    assert out == "[PASS] N_g dims of (lie(C3), lie(C5), L) = (7, 9, 6), expected (7, 9, 6)\n"


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
    # at the bad prime 3, G2 has maximal dimension 4 and one class (criterion 8)
    code, out = run(["verify", "--stage", "orbits", "--type", "G2", "--p", "3"])
    assert code == 0
    assert "classes: 1 " in out


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
    ],
)
def test_invalid_input_exit_code(argv, reason, capsys):
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and reason in err
    assert "[PASS]" not in out  # no verdict before the input is rejected


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


def test_enumerate_budget_exit():
    code, out = run(["enumerate", "--type", "E7", "--p", "2", "--dim", "27", "--budget", "1000"])
    assert code == 3
    # the first row alone has 5^24 candidates: rejected before they are built
    code, out = run(["enumerate", "--type", "B5", "--p", "5", "--dim", "1"])
    assert code == 3
    assert json.loads(out)["error"] == "budget"
    assert "candidate-row budget" in out


def test_output_is_deterministic():
    _, out1 = run(["enumerate", "--type", "G2", "--p", "5", "--dim", "3"])
    _, out2 = run(["enumerate", "--type", "G2", "--p", "5", "--dim", "3"])
    assert out1 == out2
    _, t1 = run(["tables", "--which", "groups", "--format", "json"])
    _, t2 = run(["tables", "--which", "groups", "--format", "json"])
    assert t1 == t2
