"""Chaos-soak the operational serve/sweep/cache stack (docs/robustness.md).

Usage::

    python -m repro chaos                        # 50 seeds, summary
    python -m repro chaos --seeds 200 --json
    python -m repro chaos --seed 7 --verbose     # one seed, full record
    python -m repro chaos --seeds 20 --verify-determinism

Each seed derives a survivable :func:`repro.chaos.chaos_plan` and runs
two legs (``repro.chaos.soak_run``):

* **serve** — a job server plus client under injected worker kills,
  pipe breaks, worker hangs, and mid-line/post-send connection drops;
  the retried/resubmitted results must be byte-identical to a clean
  server's.
* **sweep** — a parallel sweep writing through a cache under injected
  torn writes and corruption; both the damaged pass and a re-read pass
  (which must quarantine every damaged entry) must be byte-identical
  to a cache-less run.

A seed *passes* when both legs hold byte parity.  ``--verify-
determinism`` runs every seed twice and compares the full records —
injection schedules included — byte-for-byte.  Unless ``--skip-
degraded``, one extra corrupt-cache + dead-worker scenario
(``repro.chaos.degraded_run``) must complete in cache-only degraded
mode instead of crashing.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import cli
from repro.chaos import degraded_run, soak_run
from repro.sweep import SweepPoint, run_sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=cli.positive_int, default=50,
                    help="number of seeds to soak (default: %(default)s)")
    ap.add_argument("--first-seed", type=int, default=0)
    cli.add_seed(ap, default=None,
                 help="run exactly one seed (overrides --seeds)")
    ap.add_argument("--requests", type=int, default=4, metavar="N",
                    help="serve requests per seed (default: %(default)s)")
    ap.add_argument("--points", type=int, default=6, metavar="N",
                    help="sweep points per seed (default: %(default)s)")
    ap.add_argument("--nprocs", type=cli.positive_int, default=4, metavar="N",
                    help="ranks per served sim request (default: %(default)s)")
    ap.add_argument("--verify-determinism", action="store_true",
                    help="run every seed twice and compare record digests")
    ap.add_argument("--skip-degraded", action="store_true",
                    help="skip the corrupt-cache + dead-worker degraded-mode "
                         "scenario")
    cli.add_json_flag(ap, help="emit one JSON record per seed (ndjson)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    kw = dict(requests=args.requests, points_n=args.points,
              nprocs=args.nprocs)
    # Always serial: each soak point spawns its own server worker pools,
    # which a daemonic sweep-pool worker is not allowed to do.
    points = [SweepPoint("chaos-soak-run", soak_run, {"seed": s, **kw})
              for s in seeds]
    records = run_sweep(points)
    rerun = run_sweep(points) if args.verify_determinism else None

    failures, nondet = [], []
    injected = 0
    for i, seed in enumerate(seeds):
        rec = records[i]
        if not rec["ok"]:
            failures.append(seed)
        if rerun is not None and rerun[i]["digest"] != rec["digest"]:
            nondet.append(seed)
        injected += sum(rec["serve"]["injected"].values())
        injected += sum(rec["sweep"]["injected"].values())
        if args.json:
            print(json.dumps(rec, sort_keys=True))
        elif args.verbose:
            print(json.dumps(rec, sort_keys=True, indent=2))
        else:
            status = "ok  " if rec["ok"] else "FAIL"
            inj = {**rec["serve"]["injected"], **rec["sweep"]["injected"]}
            print(f"seed {seed:4d}  {status} "
                  f"deaths={rec['serve']['worker_deaths']} "
                  f"reconnects={rec['serve']['client_reconnects']} "
                  f"quarantined={rec['sweep']['quarantined']} "
                  f"injected=[{', '.join(f'{k}={v}' for k, v in sorted(inj.items()))}]")

    degraded_ok = True
    if not args.skip_degraded:
        deg = degraded_run()
        degraded_ok = deg["ok"]
        verdict = "ok" if degraded_ok else "FAIL"
        print(f"degraded-mode scenario: {verdict} "
              f"(reject reason: {deg['reject_reason']!r}, "
              f"quarantined={deg['quarantined']}, "
              f"breaker_trips={deg['breaker_trips']})", file=sys.stderr)

    n = len(seeds)
    print(f"\n{n - len(failures)}/{n} seeds byte-identical under chaos "
          f"({injected} faults injected)", file=sys.stderr)
    if failures:
        print(f"FAILED seeds: {failures}", file=sys.stderr)
    if nondet:
        print(f"NON-DETERMINISTIC seeds: {nondet}", file=sys.stderr)
    return 1 if (failures or nondet or not degraded_ok) else 0


if __name__ == "__main__":
    sys.exit(main())
