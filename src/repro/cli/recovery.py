"""Chaos-soak the fault-recovery layer from the shell (docs/recovery.md).

Usage::

    python -m repro recovery                      # 50 seeds, summary
    python -m repro recovery --seeds 200 --json
    python -m repro recovery --seed 7 --verbose   # one seed, full record
    python -m repro recovery --seeds 20 --verify-determinism
    python -m repro recovery --jobs 4             # fan seeds across cores
    python -m repro recovery --cache-dir .soakcache   # memoize per-seed runs

Each seed boots a recovery-enabled cluster (reliable RML + tree healing
+ ULFM-lite), installs a survivable fault plan — lossy RML links plus
one guaranteed node kill — and drives every rank through

    compute -> revoke -> agree -> shrink -> allreduce(shrunk)

A seed *passes* when the run stays inside the simulated-time bound,
every survivor lands on the same freshly-CID'd shrunk communicator, and
the final allreduce is correct.  Same seed, same digest — add
``--verify-determinism`` to re-run each seed and compare byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import cli
from repro.recovery import SIM_BOUND, soak_run
from repro.sweep import SweepPoint, run_sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=cli.positive_int, default=50,
                    help="number of seeds to sweep (default: 50)")
    ap.add_argument("--first-seed", type=int, default=0)
    cli.add_seed(ap, default=None,
                 help="run exactly one seed (overrides --seeds)")
    ap.add_argument("--nodes", type=cli.positive_int, default=4)
    ap.add_argument("--ranks", type=cli.positive_int, default=8)
    ap.add_argument("--no-node-kill", action="store_true",
                    help="drop the guaranteed node kill from each plan")
    ap.add_argument("--no-lossy", action="store_true",
                    help="drop the guaranteed lossy RML link from each plan")
    ap.add_argument("--verify-determinism", action="store_true",
                    help="run every seed twice and compare digests")
    cli.add_json_flag(ap, help="emit one JSON record per seed (ndjson)")
    ap.add_argument("--verbose", action="store_true")
    cli.add_jobs(ap, help="fan seeds across N worker processes "
                          "(per-seed output and digests are identical to "
                          "a serial run)")
    cli.add_cache_dir(ap)
    args = ap.parse_args(argv)

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    kw = dict(num_nodes=args.nodes, num_ranks=args.ranks,
              with_node_kill=not args.no_node_kill, lossy=not args.no_lossy)
    points = [SweepPoint("recovery-soak", soak_run, {"seed": s, **kw})
              for s in seeds]
    cache = cli.cache_from_args(args)
    records = run_sweep(points, jobs=args.jobs, cache=cache)
    if args.verify_determinism:
        # Recompute every seed uncached: a hit is then verified against a
        # fresh run, not against itself.
        rerun = run_sweep(points, jobs=args.jobs)

    failures = []
    nondet = []
    totals = {"retransmits": 0, "dup_suppressed": 0, "fence_retries": 0,
              "reparents": 0, "grpcomm_restarts": 0, "revokes": 0,
              "shrinks": 0, "dead": 0}
    for i, seed in enumerate(seeds):
        rec = records[i]
        if args.verify_determinism:
            if rerun[i]["digest"] != rec["digest"]:
                nondet.append(seed)
        if not rec["ok"]:
            failures.append(seed)
        for k in totals:
            totals[k] += len(rec["dead_ranks"]) if k == "dead" else rec[k]
        if args.json:
            print(json.dumps(rec, sort_keys=True))
        elif args.verbose:
            for k in sorted(rec):
                print(f"  {k}: {rec[k]}")
        else:
            status = "ok  " if rec["ok"] else "FAIL"
            print(f"seed {seed:4d}  {status} dead={rec['dead_ranks']} "
                  f"t={rec['t_end']:.3f}s retx={rec['retransmits']} "
                  f"fence_retries={rec['fence_retries']} "
                  f"heals={rec['reparents']}")

    n = len(seeds)
    cli.report_cache(cache)
    print(f"\n{n - len(failures)}/{n} seeds survived "
          f"(bound {SIM_BOUND}s simulated)", file=sys.stderr)
    print("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(totals.items())),
          file=sys.stderr)
    if failures:
        print(f"FAILED seeds: {failures}", file=sys.stderr)
    if nondet:
        print(f"NON-DETERMINISTIC seeds: {nondet}", file=sys.stderr)
    return 1 if (failures or nondet) else 0


if __name__ == "__main__":
    sys.exit(main())
