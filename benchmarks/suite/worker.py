"""One set-up and the timed repetitions of one workload, in a fresh process.

``run.py`` starts this file once per set-up; it is not meant to be run by
hand.  The process imports the stack, builds the workload's inputs from
``--seed``, runs one discarded warm-up repetition, then repeats the op
list for ``--seconds`` and prints one JSON record as its last line.

The process pins itself to one CPU first (``pin_to_one_cpu``), so the
serve pool worker it starts is pinned there too.

With ``--trace 1`` the same process then runs one more repetition under
``cProfile`` and the layer probes, and writes ``trace.json`` (see
``tracing.py``); the timings of that repetition are never reported as
end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def pin_to_one_cpu() -> int:
    """Keep this process, its threads and its children on one CPU.

    A closed loop with one request in flight never has two things to run at
    once, but left alone the scheduler spreads client thread, server thread
    and pool worker over the cores, and each hand-over then waits for an
    idle virtual CPU to be woken: ``serve-hot`` read 0.47, 0.57 or 0.9 s per
    repetition depending on where its two threads happened to sit.  Returns
    the CPU, or -1 where the platform cannot pin."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return -1


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the serve pool worker); Linux reports kilobytes."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() in the parent just before it started this process")
    ap.add_argument("--golden", required=True)
    ap.add_argument("--record-outputs", type=int, default=0,
                    help="return the outputs instead of checking them (--regen-golden)")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    cpu = pin_to_one_cpu()

    import measure
    import workloads

    with open(args.golden) as fh:
        golden = json.load(fh).get(args.workload, {})
    wl = workloads.build(args.workload, args.seed, bool(args.smoke), bool(args.trace))
    judge = measure.Judge(wl, golden, bool(args.record_outputs))
    try:
        measure.repetition(wl, judge)               # warm-up: checked, not timed
        setup_s = time.time() - args.t0
        reps = measure.timed_repetitions(wl, judge, args.seconds)
        record: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
            "cpu": cpu,
            "ranks": wl.ranks, "ops": len(wl.ops),
            "reps": [measure.rep_summary(wall, spans) for wall, spans in reps],
            **wl.record,
        }
        if args.trace:
            import tracing
            record["per_layer"] = tracing.traced_repetition(
                args.workload, wl, judge, reps, bool(args.smoke),
                os.path.join(args.out_dir, f"trace-{args.workload}.json"))
    finally:
        wl.close()
    record["peak_rss_mb"] = peak_rss_mb()           # after close: the pool worker is reaped
    record.update(attempted=judge.attempted, failed=judge.failed,
                  failures=judge.failures)
    if judge.outputs is not None:
        record["outputs"] = judge.outputs
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
