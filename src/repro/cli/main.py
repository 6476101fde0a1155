"""The ``python -m repro`` dispatcher: one entry point, six subcommands.

Usage::

    python -m repro <subcommand> [args...]
    python -m repro figure fig3b
    python -m repro serve loadgen --requests 16

Each subcommand lives in its own ``repro.cli.<module>`` and is imported
lazily, so ``python -m repro figure`` never pays for the serve layer's
imports (and vice versa).
"""

from __future__ import annotations

import importlib
import sys

# subcommand -> (module, one-line help). Order is the help-text order.
COMMANDS = {
    "figure": ("repro.cli.figure", "run paper figures / ablations"),
    "recovery": ("repro.cli.recovery",
                 "chaos-soak the fault-recovery layer"),
    "chaos": ("repro.cli.chaos", "chaos-soak the serve/sweep/cache stack"),
    "faults": ("repro.cli.faults", "run one fault-injection scenario"),
    "obs": ("repro.cli.obs",
            "observability reports and run-ledger queries"),
    "serve": ("repro.cli.serve", "operate the simulation-serving layer"),
}


def _usage(stream) -> None:
    print("usage: python -m repro <subcommand> [args...]\n", file=stream)
    print("subcommands:", file=stream)
    for name, (_, help_text) in COMMANDS.items():
        print(f"  {name:10s} {help_text}", file=stream)
    print("\n`python -m repro <subcommand> --help` for per-command flags.",
          file=stream)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _usage(sys.stdout)
        return 0
    name, rest = argv[0], argv[1:]
    if name not in COMMANDS:
        print(f"unknown subcommand {name!r}", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    module = importlib.import_module(COMMANDS[name][0])
    return module.main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
