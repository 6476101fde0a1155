"""Operate the ``repro.serve`` simulation-serving layer from the shell.

Usage::

    python -m repro serve start --jobs 4 --capacity 32 --addr :7077
    python -m repro serve start --telemetry obs/ --addr :7077
    python -m repro serve submit sim --param seed=3 --param 'spec={"nprocs":4}'
    python -m repro serve submit recovery-soak --param seed=7 --json
    python -m repro serve stats --addr 127.0.0.1:7077 [--json]
    python -m repro serve health --addr :7077 [--json]
    python -m repro serve metrics --addr :7077
    python -m repro serve drain --addr :7077
    python -m repro serve resize 8 --addr :7077
    python -m repro serve shutdown --addr :7077
    python -m repro serve loadgen --clients 4 --requests 32 --out load.json

Every subcommand names its endpoint the same way: ``--addr host:port``
(or ``--addr unix:/path``; default ``127.0.0.1:7077``).

``start --telemetry DIR`` switches on the live-telemetry stack
(docs/observability.md): wall-clock spans to ``DIR/serve-trace.json``
(written at shutdown, per-request sim traces next to it) and the run
ledger to ``DIR/ledger.sqlite`` (query with ``python -m repro obs
--runs``).  CLI submits carry no trace id of their own; the server
mints ``s-<n>`` ids for them.
``metrics`` prints the server's registry as Prometheus text.

``start`` runs a server in the foreground until interrupted.  The
other subcommands are thin wrappers over one wire op each.  ``loadgen``
self-hosts an in-process server (unless ``--addr`` points at a running
one), drives the closed-loop load generator at it and prints
throughput and latency percentiles (``--out FILE`` keeps the full
report); it exits 1 when any request went unanswered.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro import cli
from repro.serve import ServeClient, ServeConnectionError, ServerThread, \
    scenario_names
from repro.serve.loadgen import run_loadgen, sim_workload


def _fmt(value) -> str:
    """Human-readable scalar: floats rounded, everything else as-is."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _param(text: str):
    """``key=value`` with a JSON-parsed value (bare words stay strings)."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key, json.loads(raw)
    except ValueError:
        return key, raw


def _client(args) -> ServeClient:
    try:
        return ServeClient(args.addr)
    except OSError as err:
        print(f"cannot reach server at {args.addr}: {err}", file=sys.stderr)
        raise SystemExit(1) from None


async def _serve_forever(args) -> None:
    from repro.serve import SimServer
    server = await SimServer(
        workers=args.jobs, capacity=args.capacity, cache_dir=args.cache_dir,
        address=args.addr, retry_seed=args.seed,
        retry_limit=args.retry_limit,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown, trace_dir=args.telemetry,
    ).start()
    print(f"serving on {server.address} "
          f"(workers={args.jobs}, capacity={args.capacity}, "
          f"scenarios: {', '.join(scenario_names())})", file=sys.stderr)
    if args.telemetry:
        print(f"telemetry -> {args.telemetry} (ledger.sqlite, "
              f"serve-trace.json at shutdown)", file=sys.stderr)
    try:
        await server.stopped.wait()         # until SIGINT or a shutdown op
    finally:
        await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("start", help="run a server in the foreground")
    cli.add_addr(p)
    cli.add_jobs(p, default=2, help="worker processes in the pool "
                                    "(default: %(default)s)")
    p.add_argument("--capacity", type=cli.positive_int, default=16,
                   metavar="N", help="bounded-queue depth; submits beyond it "
                                     "are rejected (default: %(default)s)")
    cli.add_cache_dir(p)
    cli.add_seed(p, help="retry-backoff jitter seed (default: %(default)s)")
    p.add_argument("--retry-limit", type=int, default=2, metavar="N",
                   help="worker-death retries per request (default: %(default)s)")
    p.add_argument("--breaker-threshold", type=cli.positive_int, default=5,
                   metavar="N", help="consecutive worker deaths that trip the "
                   "cache-only circuit breaker (default: %(default)s)")
    p.add_argument("--breaker-cooldown", type=float, default=30.0,
                   metavar="SECONDS", help="degraded-mode cooldown before the "
                   "breaker half-opens (default: %(default)s)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="enable live telemetry: wall-clock traces and "
                        "run ledger under DIR")

    p = sub.add_parser("submit", help="submit one request and print the result")
    p.add_argument("scenario", help=f"one of: {', '.join(scenario_names())}")
    p.add_argument("--param", type=_param, action="append", default=[],
                   metavar="KEY=VALUE", help="scenario parameter "
                   "(JSON value; repeatable)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="per-request deadline from admission")
    cli.add_partitions(p, help="run the simulation across N worker processes "
                               "(repro.dsim) — sim and recovery-soak only; "
                               "results and digests are unchanged")
    cli.add_addr(p)
    cli.add_json_flag(p, help="print the full JSON response")

    for name, help_text in [("stats", "print serving statistics"),
                            ("health", "print a liveness summary")]:
        p = sub.add_parser(name, help=help_text)
        cli.add_addr(p)
        cli.add_json_flag(p, help="print the full JSON response")

    for name, help_text in [("metrics", "print Prometheus text exposition"),
                            ("drain", "stop admitting, wait for quiescence"),
                            ("shutdown", "stop the server")]:
        p = sub.add_parser(name, help=help_text)
        cli.add_addr(p)

    p = sub.add_parser("resize", help="resize the worker pool")
    p.add_argument("workers", type=cli.positive_int)
    cli.add_addr(p)

    p = sub.add_parser("loadgen", help="closed-loop load test")
    p.add_argument("--clients", type=cli.positive_int, default=4, metavar="N",
                   help="concurrent closed-loop clients (default: %(default)s)")
    p.add_argument("--requests", type=cli.positive_int, default=32, metavar="N",
                   help="total requests across clients (default: %(default)s)")
    cli.add_jobs(p, default=2, help="worker processes in the self-hosted "
                                    "server (default: %(default)s)")
    p.add_argument("--capacity", type=cli.positive_int, default=16, metavar="N")
    p.add_argument("--nprocs", type=cli.positive_int, default=4, metavar="N",
                   help="ranks per sim request (default: %(default)s)")
    cli.add_cache_dir(p, help="serve through an on-disk result cache")
    cli.add_seed(p, help="workload seed (default: %(default)s)")
    p.add_argument("--out", metavar="FILE",
                   help="write the full report as JSON to FILE")
    cli.add_addr(p, default=None,
                 help="drive an already-running server at host:port or "
                      "unix:/path instead of self-hosting one")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ServeConnectionError as err:
        # The connection died mid-conversation (server shut down or
        # crashed under us): one line, nonzero exit, no traceback.
        print(f"lost connection to server at {args.addr}: {err}",
              file=sys.stderr)
        return 1


def _run(args) -> int:
    if args.cmd == "start":
        import asyncio          # a client subcommand never loads it
        try:
            asyncio.run(_serve_forever(args))
        except KeyboardInterrupt:
            print("\nstopped", file=sys.stderr)
        return 0

    if args.cmd == "submit":
        params = dict(args.param)
        if args.partitions > 1:
            if args.scenario == "sim":
                spec = dict(params.get("spec") or {})
                spec["partitions"] = args.partitions
                params["spec"] = spec
            elif args.scenario == "recovery-soak":
                params["partitions"] = args.partitions
            else:
                print(f"scenario {args.scenario!r} does not support "
                      f"--partitions", file=sys.stderr)
                return 2
        with _client(args) as client:
            response = client.submit(args.scenario, params,
                                     deadline_s=args.deadline)
        if args.json:
            print(json.dumps(response, sort_keys=True, indent=2))
        else:
            status = response.get("status")
            print(f"status: {status}")
            for key in ("reason", "error"):
                if key in response:
                    print(f"{key}: {response[key]}")
            if "result" in response:
                print(json.dumps(response["result"], sort_keys=True, indent=2))
            if "latency_s" in response:
                print(f"latency: {response['latency_s'] * 1e3:.1f} ms "
                      f"(cached: {response.get('cached', False)})")
        return 0 if response.get("status") == "ok" else 1

    if args.cmd in ("stats", "health"):
        with _client(args) as client:
            response = (client.stats if args.cmd == "stats"
                        else client.health)()
        if args.json:
            print(json.dumps(response, sort_keys=True, indent=2))
        else:
            body = response.get("stats", response) if args.cmd == "stats" \
                else response
            for key in sorted(body):
                if key in ("status", "id"):
                    continue
                value = body[key]
                if isinstance(value, dict):
                    rendered = "  ".join(
                        f"{k}={_fmt(value[k])}" for k in sorted(value))
                elif isinstance(value, list):
                    rendered = ", ".join(str(v) for v in value)
                else:
                    rendered = _fmt(value)
                print(f"{key}: {rendered}")
        return 0 if response.get("status") == "ok" else 1

    if args.cmd == "metrics":
        with _client(args) as client:
            response = client.metrics()
        if response.get("status") != "ok":
            print(json.dumps(response, sort_keys=True, indent=2))
            return 1
        sys.stdout.write(response.get("prometheus", ""))
        return 0

    if args.cmd in ("drain", "shutdown", "resize"):
        with _client(args) as client:
            response = {
                "drain": client.drain, "shutdown": client.shutdown,
                "resize": lambda: client.resize(args.workers),
            }[args.cmd]()
        print(json.dumps(response, sort_keys=True, indent=2))
        return 0 if response.get("status") == "ok" else 1

    if args.cmd == "loadgen":
        workload = sim_workload(args.requests, seed=args.seed,
                                nprocs=args.nprocs)
        if args.addr:                   # target an already-running endpoint
            host = contextlib.nullcontext()
            report = {"bench": "serve-loadgen", "target": str(args.addr)}
        else:                           # self-host a server
            host = ServerThread(workers=args.jobs, capacity=args.capacity,
                                cache_dir=args.cache_dir)
            report = {"bench": "serve-loadgen"}
        with host as hosted:
            lg = report["loadgen"] = run_loadgen(
                args.addr or hosted.address, workload, clients=args.clients)
        lat = lg["latency_s"]
        print(f"{lg['completed']} requests, {lg['clients']} clients: "
              f"{lg['throughput_rps']:.1f} req/s  "
              f"p50 {lat.get('p50', 0) * 1e3:.1f} ms  "
              f"p99 {lat.get('p99', 0) * 1e3:.1f} ms")
        if args.out:
            rc = cli.write_json(args.out, report)
            if rc:
                return rc
        if lg["client_errors"] or lg["completed"] < lg["requests"]:
            print(f"only {lg['completed']} of {lg['requests']} requests "
                  f"answered", *lg["client_errors"][:1], sep=": ",
                  file=sys.stderr)
            return 1
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
