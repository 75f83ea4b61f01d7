"""Self-test of the benchmark itself; not part of the repository's test suite.

    python3 perfbench/selftest.py               # all checks, about four minutes
    python3 -m pytest -q perfbench/selftest.py  # the same under pytest

Checks that a corrupted pinned answer or a non-empty golden diff is reported
as a failed operation, that two traced passes give identical counts on every
workload, that a binding left unpatched by the tracing is reported, that
BENCHMARK.json names exactly the metrics the code prints, and
that a directory without the chevlie sources makes the benchmark fail.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def test_benchmark_json_matches_the_code():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.metric_table()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}


def _first(workload: str, name: str, pinned: dict) -> workloads.Op:
    return next(op for op in workloads.operations(workload, 7, pinned) if op.name == name)


def test_corrupted_pin_is_a_failure():
    pinned = workloads.load_pinned()
    cases = [
        ("unipotent", "unipotent-G2-F5", ["points"], 182),
        ("fusion", "enumerate-G2-F5", ["classes"], 3),
        ("tables", "tables-primes", ["rows"], 22),
        ("conjugation", "replay-G2-F3", ["normal_form"], "00" * 24),
    ]
    workloads.setup("conjugation")
    for workload, name, keys, bad in cases:
        op = _first(workload, name, pinned)
        out = op.run()
        assert workloads.check(op, out, pinned, workload) is None, name
        broken = copy.deepcopy(pinned)
        entry = broken["conjugation" if op.argv is None else workload][name]
        entry[keys[0]] = bad
        assert workloads.check(op, out, broken, workload) is not None, name


def test_golden_diff_is_a_failure():
    pinned = workloads.load_pinned()
    op = workloads.Op("tables-maxsets", argv=pinned["tables"]["tables-maxsets"]["argv"])
    mismatch = (1, "MISMATCH ('E', 8, 'null'): computed {} != golden {}\n")
    assert workloads.check(op, mismatch, pinned, "tables") is not None
    # a diff that still exits 0 must not pass either
    assert workloads.check(op, (0, mismatch[1]), pinned, "tables") is not None


def _counts(layers: dict) -> dict:
    units = {row["name"]: row["unit"] for row in tracing.metric_table()}
    return {k: v for k, v in layers.items() if units.get(k) == "count"}


def test_traced_counts_repeat():
    for workload in workloads.WORKLOADS:
        deadline = time.monotonic() + 600
        a, b = (run._session(workload, 3, deadline, "--trace") for _ in range(2))
        assert _counts(a["layers"]) == _counts(b["layers"]), workload
        assert not any(op["failed"] for op in a["ops"] + b["ops"]), workload
        assert a["trace_missed"] == b["trace_missed"] == [], workload


def test_unpatched_binding_is_reported():
    """Undo one binding install() patched (golden.BUILDERS["primes"], the
    one `tables --which primes` goes through): `missed` must then name it."""
    from chevlie import golden

    pinned = workloads.load_pinned()
    op = workloads.Op("tables-primes", argv=pinned["tables"]["tables-primes"]["argv"])
    rec = tracing.Recorder()
    tracing.install(rec)

    def missed_by_one_run() -> list[str]:
        lo = len(rec.start)
        assert workloads.check(op, op.run(), pinned, "tables") is None
        return tracing.missed(rec.aggregate(lo), "tables")

    rec.on = True
    try:
        assert "golden.build_primes" not in missed_by_one_run()
        golden.BUILDERS["primes"] = golden.BUILDERS["primes"].__wrapped__
        assert "golden.build_primes" in missed_by_one_run()
    finally:
        rec.on = False


def test_without_sources_the_benchmark_fails():
    bare = workloads.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "unipotent", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        t = time.monotonic()
        fn()
        print(f"ok  {name}  ({time.monotonic() - t:.1f} s)", flush=True)
