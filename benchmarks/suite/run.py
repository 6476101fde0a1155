#!/usr/bin/env python3
"""One benchmark for the whole stack (see README.md in this directory).

    python3 benchmarks/suite/run.py                       # every workload once
    python3 benchmarks/suite/run.py --runs 10 --out A.json  # a set for compare.py
    python3 benchmarks/suite/run.py --traced --workloads init-1k,msg-mix
    python3 benchmarks/suite/run.py --smoke               # toy sizes, < 30 s
    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

The last form is what ``BENCHMARK.json`` names; its last output line is one
JSON object.  ``BENCHMARK.json`` lists the four workloads its driver gates;
``UNGATED`` below names three more that run and are checked the same way.
Every workload runs in fresh ``worker.py`` processes, one per set-up, each
pinned to one CPU, so no interpreter, server or cache state is shared
between them.
End-to-end numbers come from untraced runs only; ``--traced`` is a separate
run that yields the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

#: Set-ups (fresh processes) per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Pinned for every worker, so dict and set order cannot differ between runs.
HASHSEED = "0"
#: A worker that has not finished by then is killed with its children.
WORKER_TIMEOUT_S = 150.0

#: Workloads of the suite that ``BENCHMARK.json`` does not list: its driver
#: makes 22 runs per listed workload inside a fixed time, and seven workloads
#: left each run too short to be steady on a shared host (README,
#: "Steadiness").  They run from here like the others.
UNGATED = [
    {"name": "init-small",
     "why": "20 Fig-3 job pairs at 64 ranks: fixed per-job cost (make_world, "
            "launch, instance bring-up), flat layer profile; the denominator "
            "of the init scaling ratio."},
    {"name": "dup-pgcid",
     "why": "Fig 4 Sessions line: steady-state PMIx group construct and PRRTE "
            "grpcomm per MPI_Comm_dup, the init layers as a hot loop; pml "
            "barely used."},
    {"name": "soak-50",
     "why": "50 recovery soak runs with injected faults: reliable RML "
            "retransmit timers, tree healing, ULFM shrink; the 50 digests are "
            "the strongest output check."},
]


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_fingerprint() -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count() or 1, "cpu": model or platform.machine(),
            "python": platform.python_version(), "load_1min": os.getloadavg()[0]}


def start_worker(args: List[str]) -> Dict[str, Any]:
    """Run one ``worker.py`` to completion; returns the record it printed."""
    env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--t0", repr(time.time())] + args
    # Own session: on a timeout the whole group goes, pool workers included.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"worker timed out after {WORKER_TIMEOUT_S:.0f} s: {args}")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}: {args}")
    return json.loads(out.strip().splitlines()[-1])


def summarize(values: List[float], unit: str, pick: str) -> Dict[str, Any]:
    """One metric's samples as median, quartiles and count; ``value`` is
    the one of the three that ``pick`` names."""
    q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    stats = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return {"value": stats[pick], "unit": unit, **stats, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
                 golden: str, meta: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """One run: its set-ups, each in a fresh process, folded into one record."""
    setups = 1 if (traced or smoke) else SETUPS
    common = ["--workload", name, "--seed", str(seed), "--smoke", str(int(smoke)),
              "--golden", golden, "--out-dir", OUT_DIR,
              "--seconds", repr(seconds / setups)]
    if traced:
        # A short untraced stretch in the same process is the reference
        # for trace.overhead_ratio; its timings are not reported.
        common[-1] = repr(min(seconds, 1.0))
        common += ["--trace", "1"]
    children = [start_worker(common) for _ in range(setups)]
    first = children[0]
    run: Dict[str, Any] = {
        "seed": seed,
        "setups": setups,
        "repetitions": sum(len(c["reps"]) for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "failures": [msg for c in children for msg in c["failures"]][:5],
    }
    for key in ("cpu", "loop", "clients", "workers"):
        if key in first:
            run[key] = first[key]
    run["fail_ratio"] = run["failed"] / run["attempted"]
    if traced:
        run["metrics"] = {k: {"value": v, "unit": meta[k]["unit"]}
                          for k, v in first["per_layer"].items()}
        return run
    reps = [rep for c in children for rep in c["reps"]]
    per_setup = {"setup_s": [c["setup_s"] for c in children],
                 "peak_rss_mb": [c["peak_rss_mb"] for c in children]}
    per_rep = {"wall_s": [r["wall_s"] for r in reps],
               "us_per_rank": [r["wall_s"] / first["ranks"] * 1e6 for r in reps],
               "req_per_s": [r["req_per_s"] for r in reps],
               "req_p50_ms": [r["req_p50_ms"] for r in reps],
               "req_p99_ms": [r["req_p99_ms"] for r in reps]}   # reported, not bounded
    # Noise on a shared host only ever adds time, in bursts of seconds that
    # can cover most of a run, so a repetition metric reads as the quartile
    # on its better side: it holds while a quarter of the repetitions ran
    # undisturbed, where the median needs half (README, "Steadiness").
    run["metrics"] = {k: summarize(v, meta[k]["unit"], "median")
                      for k, v in per_setup.items()}
    run["metrics"].update(
        (k, summarize(v, meta[k]["unit"],
                      "q3" if meta[k]["better"] == "higher" else "q1"))
        for k, v in per_rep.items())
    return run


def print_run(name: str, run: Dict[str, Any]) -> None:
    print(f"== {name}  seed {run['seed']}  {run['setups']} set-up(s), "
          f"{run['repetitions']} repetition(s), {run['attempted']} ops, "
          f"fail_ratio {run['fail_ratio']:.6g}")
    for metric, m in run["metrics"].items():
        spread = (f"  median {m['median']:.6g} [{m['q1']:.6g} .. {m['q3']:.6g}]"
                  f"  n={m['n']}" if "n" in m else "")
        print(f"  {metric:26s} {m['value']:>14.6g} {m['unit']:6s}{spread}")
    for message in run["failures"]:
        print(f"  FAILED {message}")


def driver_line(run: Dict[str, Any], declared: List[Dict[str, Any]]) -> str:
    """The one-line result ``BENCHMARK.json``'s contract asks for: every
    declared metric by name.  A per-layer metric this workload does not
    produce reads 0 here and is absent everywhere else."""
    metrics = {}
    for m in declared:
        value = run["metrics"].get(m["name"], {"value": 0.0})["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": run["failed"] == 0,
                       "attempted": run["attempted"], "failed": run["failed"],
                       "metrics": metrics})


def regen_golden(names: List[str], path: str) -> None:
    """Rewrite golden.json from what the stack returns at seed 0, at the
    measured and the smoke sizes.  The one deliberate way to change it."""
    with open(path) as fh:
        golden: Dict[str, Dict[str, Any]] = json.load(fh)   # keep the workloads not selected
    for name in names:
        golden[name] = {}
        for smoke in (0, 1):
            record = start_worker([
                "--workload", name, "--seed", "0", "--smoke", str(smoke),
                "--golden", path, "--out-dir", OUT_DIR, "--seconds", "0",
                "--record-outputs", "1"])
            golden[name].update(record["outputs"])
        print(f"{name}: {len(golden[name])} outputs")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    suite = bench["workloads"] + UNGATED
    names = [w["name"] for w in suite]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="run this workload only")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default {bench['run_seconds']})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds SEED, SEED+1, ...")
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, same code path and golden checks")
    ap.add_argument("--out", help="write the result record to this file")
    ap.add_argument("--golden", default=GOLDEN, help=argparse.SUPPRESS)
    ap.add_argument("--regen-golden", action="store_true",
                    help="rewrite golden.json from the current outputs at seed 0")
    args = ap.parse_args(argv)

    if args.workload:
        selected = [args.workload]
    elif args.workloads:
        selected = args.workloads.split(",")
        unknown = sorted(set(selected) - set(names))
        if unknown:
            ap.error(f"unknown workload(s) {unknown}; have: {', '.join(names)}")
    else:
        selected = names
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Measure the checkout this file sits in, never an installed copy.
        raise SystemExit(f"nothing to measure: {ROOT}/src/repro is missing")
    if args.regen_golden:
        regen_golden(selected, args.golden)
        return 0

    traced = bool(args.trace or args.traced)
    declared = bench["per_layer" if traced else "end_to_end"]
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds if args.seconds is not None else (
        0.2 if args.smoke else float(bench["run_seconds"]))
    host = host_fingerprint()
    noisy = host["load_1min"] > host["cores"]
    if noisy:
        print(f"warning: 1-min load {host['load_1min']:.2f} exceeds "
              f"{host['cores']} core(s); this set is marked noisy", file=sys.stderr)

    record: Dict[str, Any] = {
        "suite": 1, "host": host, "noisy": noisy, "seed": args.seed,
        "runs": args.runs, "seconds": seconds, "smoke": args.smoke,
        "traced": traced, "pythonhashseed": HASHSEED,
        "workloads": {w["name"]: {"why": w["why"], "runs": []}
                      for w in suite if w["name"] in selected},
    }
    run: Dict[str, Any] = {}
    failed = 0
    for index in range(args.runs):
        for name in selected:
            run = run_workload(name, args.seed + index, seconds, traced,
                               args.smoke, args.golden, meta)
            record["workloads"][name]["runs"].append(run)
            failed += run["failed"]
            print_run(name, run)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if args.workload and args.runs == 1:
        print(driver_line(run, declared))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
