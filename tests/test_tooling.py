"""The benchmark still runs against chevlie: the names its tracer wraps
resolve, its seeded inputs build and check, and no module is large enough
to move its peak memory.  No module imports a name it never uses, every
def, class, method and field in src/ has a caller in src/ or the benchmark,
and every test oracle has a reader in the tests."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
import time
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# CPython's parser doubles its token array when a module reaches this many tokens
PARSER_TOKEN_STEP = 8192


def _traced_names() -> list[tuple[str, str]]:
    """(layer, path) of every `Fn` in the `TRACED` list, read from the source."""
    tree = ast.parse(TRACING.read_text())
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    ]
    return [(ast.literal_eval(fn.args[0]), ast.literal_eval(fn.args[1])) for fn in traced.elts]


def test_traced_names_resolve():
    # `tracing.install` looks up every name with getattr, so a deleted or
    # renamed function would make every traced run fail
    names = _traced_names()
    assert len(names) > 30
    for layer, path in names:
        obj = importlib.import_module(f"chevlie.{layer}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"chevlie.{layer}.{path} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"chevlie.{layer}.{path} is not callable"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    return workloads


def test_conjugation_inputs_build_and_check(monkeypatch):
    # every seed-1 replay reaches its pinned normal form; the B5/F5 inputs
    # call EuclidModel and GroupGenerator.apply_rows, which an API change
    # would otherwise break only in a benchmark run
    workloads = _load_workloads(monkeypatch)
    pinned = workloads.load_pinned()
    ops = workloads.operations("conjugation", 1, pinned)
    assert workloads.check_inputs("conjugation", ops, pinned) is None
    assert len(ops) == 208
    for op in ops:
        assert workloads.check(op, op.run(), pinned, "conjugation") is None, op.name


# operations per pass of each CLI workload
CLI_WORKLOADS = {"tables": 5, "unipotent": 3, "fusion": 2}


@pytest.mark.parametrize("workload", list(CLI_WORKLOADS))
def test_cli_operations_check(monkeypatch, workload):
    # each `tables --golden` run prints an empty diff and each golden file
    # still has the SHA-256 the benchmark pins; each `verify --stage
    # unipotent` and `enumerate` run prints the pinned counts and class sizes
    workloads = _load_workloads(monkeypatch)
    pinned = workloads.load_pinned()
    ops = workloads.operations(workload, 1, pinned)
    assert len(ops) == CLI_WORKLOADS[workload]
    for op in ops:
        assert workloads.check(op, op.run(), pinned, workload) is None, op.name


@pytest.mark.parametrize("workload", ["unipotent", "conjugation", "fusion", "tables"])
def test_traced_session_misses_no_call(workload):
    # a traced benchmark run counts one more failed operation when a traced
    # function listed for the workload in `entered_on` records no call, so a
    # refactor that stops calling one shows here, not only in that run
    cmd = [sys.executable, str(PERFBENCH / "session.py"), "--workload", workload,
           "--seed", "1", "--spawned-at", str(time.time()), "--trace"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert [op["name"] for op in result["ops"] if op["failed"]] == []
    assert result["input_problem"] is None
    assert result["trace_missed"] == []


def test_modules_stay_below_the_parser_token_step():
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted((ROOT / "src" / "chevlie").glob("*.py")):
        with path.open("rb") as f:
            n = sum(tok.type not in skipped for tok in tokenize.tokenize(f.readline))
        assert n < PARSER_TOKEN_STEP, (
            f"{path.name} has {n} tokens: at {PARSER_TOKEN_STEP} CPython's parser doubles its "
            "token array, which raised peak_rss_mb by about 0.6 MiB (CHANGES.md, FOUND on the "
            "parser's token array); move code out of the module"
        )


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a name that appears only in a
    docstring or comment is unused."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "chevlie").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []


# src/ members without a product caller, kept as the reference API the tests
# check the index tables and the constants against
REFERENCE_API = {
    "RootSystem.root_string": "the alpha-string through beta, read off `string_down`",
    "RootSystem.phi_rad": "Phi_rad of a parabolic, cited in LEDGER.md",
    "RootSystem.apply_weyl": "a Weyl word acting on a root by `reflect`",
    "ChevalleyBasis.extraspecial": "the pairs with N_{a1,b1} = r + 1 the chevalley docstring defines",
}


def _reads(node, bare: bool = True) -> Counter:
    """Names a syntax tree reads, with multiplicity: attribute names in
    `Load` context and imported names, and with `bare` also `Name`s in
    `Load` context."""
    out = Counter()
    for sub in ast.walk(node):
        if bare and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
    return out


def _members(cls: ast.ClassDef):
    """(name, body) of each method and property of a class, dunders aside,
    and of each field, whose body is empty: a class-body annotation (a
    dataclass field) or a `self.<name> = ...` assignment."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node
    fields = {
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    } | {
        sub.attr
        for sub in ast.walk(cls)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
    }
    for name in sorted(fields):
        yield name, None


def test_src_names_have_a_product_caller():
    # a def, class, method or field that only tests reach is a test oracle
    # and belongs in tests/oracles.py; reads inside its own body do not count.
    # A member is read only as an attribute (`x.name`) or an import, so a
    # local variable of the same name does not hide it; attributes are still
    # matched by name, whatever the class of `x`.
    src = sorted((ROOT / "src" / "chevlie").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in src + sorted(PERFBENCH.glob("*.py"))]
    read = sum((_reads(tree) for tree in trees), Counter())
    attr_read = sum((_reads(tree, bare=False) for tree in trees), Counter())
    unread = set()
    for tree in trees[: len(src)]:
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if read[top.name] == _reads(top)[top.name]:
                unread.add(top.name)
            if isinstance(top, ast.ClassDef):
                for name, body in _members(top):
                    if attr_read[name] == (_reads(body, bare=False)[name] if body else 0):
                        unread.add(f"{top.name}.{name}")
    assert unread - {"main"} == set(REFERENCE_API)


def test_oracles_have_a_test_reader():
    # every top-level def and class of tests/oracles.py is read by a test
    # module or by another oracle, so an oracle no test needs does not stay
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    tests = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("test_*.py"))]
    read = sum((_reads(tree) for tree in tests + [oracles]), Counter())
    defined = [top for top in oracles.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))]
    assert [top.name for top in defined if read[top.name] == _reads(top)[top.name]] == []
