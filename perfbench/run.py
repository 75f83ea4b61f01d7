"""chevlie benchmark: one workload per invocation, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A run is a closed loop with one caller.  It starts one session
(perfbench/session.py) at a time: each imports chevlie from src/, builds the
root systems and Settings the workload names, runs every operation of the
workload once and checks each answer against perfbench/pinned.json.  Sessions
repeat while another fits in --seconds; at least one always runs.  Set-up is
sampled at least SETUP_SAMPLES times (extra sessions that stop after set-up).

--trace 0 prints the end-to-end metrics (medians over the sessions):
  run_s        wall time of one pass, first operation start to last operation end
  setup_s      interpreter start to the first operation (import + builds)
  peak_rss_mb  ru_maxrss of a pass session, MiB
--trace 1 runs one traced pass and prints the per-layer metrics (see
tracing.py), including the estimated tracing overhead.  A traced run is
incorrect when a traced function that the workload calls recorded no call.

The last line of standard output is the JSON result.  Exit code 0 when every
answer is correct, 1 when one is not, 2 on bad usage or a checkout without
src/chevlie, 3 when a session crashes or the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
SPANS_DIR = workloads.ROOT / ".perfbench"


class RunError(Exception):
    pass


def _session(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), *flags, "--spawned-at", repr(time.time())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time limit reached before a session could start")
    try:
        proc = subprocess.run(cmd, cwd=workloads.ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"session exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise RunError(f"session exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(sessions: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons = []
    for s in sessions:
        attempted += len(s["ops"])
        for op in s["ops"]:
            if op["failed"]:
                failed += 1
                reasons.append(f"{op['name']}: {op['failed']}")
        if s["input_problem"]:  # counts as one more failed operation
            attempted += 1
            failed += 1
            reasons.append(f"inputs: {s['input_problem']}")
        if s.get("trace_missed"):  # so does tracing that missed a call path
            attempted += 1
            failed += 1
            reasons.append(f"tracing recorded no call of {', '.join(s['trace_missed'])}")
    return attempted, failed, reasons


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
        sessions = [_session(workload, seed, deadline, "--trace", "--spans-out", str(spans))]
        metrics = {row["name"]: {"value": sessions[0]["layers"][row["name"]], "unit": row["unit"]}
                   for row in tracing.metric_table()}
        setups = []
    else:
        sessions = []
        while True:
            t = time.monotonic()
            sessions.append(_session(workload, seed, deadline))
            last = time.monotonic() - t
            if time.monotonic() - start + last > seconds:
                break
        setups = [s["setup_s"] for s in sessions]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_session(workload, seed, deadline, "--setup-only")["setup_s"])
        metrics = {
            "run_s": {"value": statistics.median(s["run_s"] for s in sessions), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["rss_mb"] for s in sessions),
                            "unit": "MiB"},
        }
    attempted, failed, reasons = _failures(sessions)
    env = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cpu_count": os.cpu_count(), "python": sessions[0]["python"],
        "numpy": sessions[0]["numpy"], "commit": _commit(),
        "passes": len(sessions), "setup_samples": len(setups),
        "fresh_interpreter_per_pass": len({s["pid"] for s in sessions}) == len(sessions),
        "op_seconds": _op_seconds(sessions),
    }
    return {"env": env, "reasons": reasons, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics}}


def _op_seconds(sessions: list[dict]) -> dict:
    """Median seconds per pass spent in each operation family."""
    per = []
    for s in sessions:
        acc: dict[str, float] = {}
        for op in s["ops"]:
            acc[op["name"]] = acc.get(op["name"], 0.0) + op["s"]
        per.append(acc)
    return {name: statistics.median(p[name] for p in per) for name in per[0]}


def _commit() -> str:
    """The checked-out commit, read from .git without running git (which could
    find a repository above the checkout)."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_all(seed: int, seconds: float) -> int:
    print(f"{'workload':<12} {'run_s [s]':>10} {'setup_s [s]':>12} "
          f"{'peak_rss_mb [MiB]':>18} {'ops_failed_frac':>16}")
    ok = True
    for w in workloads.WORKLOADS:
        out = measure(w, seed, seconds, trace=False)
        r, m = out["result"], out["result"]["metrics"]
        print(f"{w:<12} {m['run_s']['value']:>10.3f} {m['setup_s']['value']:>12.3f} "
              f"{m['peak_rss_mb']['value']:>18.1f} "
              f"{r['failed']:>6}/{r['attempted']:<4} = {r['failed'] / r['attempted']:.3f}",
              flush=True)
        for reason in out["reasons"]:
            print(f"    FAILED {reason}")
        ok &= r["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (workloads.SRC / "chevlie" / "cli.py").is_file():
        print(f"error: no chevlie sources under {workloads.SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return _print_all(args.seed, args.seconds)
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    for reason in out["reasons"]:
        print(f"FAILED {reason}")
    if args.trace:
        for name, m in out["result"]["metrics"].items():
            print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"env": out["env"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
