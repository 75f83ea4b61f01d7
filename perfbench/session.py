"""One measured pass of a workload in a fresh interpreter.

    python3 perfbench/session.py --workload W --seed N --spawned-at T
        [--trace] [--setup-only] [--spans-out FILE]

`--spawned-at` is the parent's time.time() just before it started this
interpreter, so set-up time counts interpreter start-up too.  Prints one JSON
line: set-up and pass times, peak RSS, each operation's time and verdict, and
with --trace the per-layer metrics and the traced functions that recorded no
call although the workload calls them.  run.py starts one session per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(workloads.SRC))
    import numpy
    import chevlie.cli  # noqa: F401  (loads every chevlie module the CLI uses)

    if not Path(chevlie.cli.__file__).resolve().is_relative_to(workloads.SRC):
        raise SystemExit(f"chevlie imported from {chevlie.cli.__file__}, not {workloads.SRC}")

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
        rec.on = True
        with rec.span("setup", "op"):
            t = time.perf_counter()
            workloads.setup(args.workload)
            traced_setup_s = time.perf_counter() - t
    else:
        workloads.setup(args.workload)
    setup_s = time.time() - args.spawned_at
    result = {"pid": os.getpid(), "setup_s": setup_s,
              "python": platform.python_version(), "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    pinned = workloads.load_pinned()
    if rec is not None:
        rec.on = False  # input construction is not part of the pass
    ops = workloads.operations(args.workload, args.seed, pinned)
    input_problem = workloads.check_inputs(args.workload, ops, pinned)
    outputs = []
    times = []
    if rec is not None:
        rec.on = True
        pass_lo = len(rec.start)
    clock = time.perf_counter
    t_first = clock()
    for op in ops:
        t = clock()
        try:
            if rec is not None:
                with rec.span(f"op.{op.name}", "op"):
                    out = op.run()
            else:
                out = op.run()
        except Exception as e:  # an operation that raises is a failed operation
            out = e
        times.append(clock() - t)
        outputs.append(out)
    run_s = clock() - t_first
    if rec is not None:
        rec.on = False

    results = []
    for op, out, s in zip(ops, outputs, times):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = workloads.check(op, out, pinned, args.workload)
            except (ValueError, KeyError, IndexError, AttributeError) as e:
                reason = f"unreadable output ({type(e).__name__}: {e})"
        results.append({"name": op.name, "s": s, "failed": reason})
    result.update(
        run_s=run_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=results,
        input_problem=input_problem,
    )
    if rec is not None:
        stats = rec.aggregate()
        result["layers"] = tracing.layer_metrics(rec, stats, traced_setup_s, run_s, pass_lo)
        result["trace_missed"] = tracing.missed(stats, args.workload)
        if args.spans_out:
            rec.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
