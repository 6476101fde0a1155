"""The paper's claims as one table: each row of :data:`CLAIMS` holds the
section, the claim in the paper's words, its tolerance, the
:mod:`repro.bench.figures` entry points it reads and a check over them.
Tier-1 asserts every row; :func:`report` prints EXPERIMENTS.md from the
same figures, each computed once per process and scale."""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, List, NamedTuple, Tuple

from repro.bench import figures
from repro.bench.harness import BenchResult

#: ``get(name, **kwargs)``: the figure ``name`` at the scale under check.
Getter = Callable[..., BenchResult]
Points = List[Tuple[Any, float]]
Verdict = Tuple[bool, str]                         # (holds, what was measured)


class Claim(NamedTuple):
    id: str
    section: str
    text: str
    tolerance: str
    reads: Tuple[str, ...]
    check: Callable[[Getter], Verdict]


class Outcome(NamedTuple):
    holds: bool
    measured: str
    figures: Tuple[str, ...]                       # each figure read, rendered


@functools.lru_cache(maxsize=None)
def _figure(name: str, quick: bool, kwargs: Tuple) -> BenchResult:
    fn = figures.entry_points()[name]
    if "quick" in inspect.signature(fn).parameters:
        kwargs += (("quick", quick),)
    return fn(**dict(kwargs))


def check(claim: Claim, quick: bool = True) -> Outcome:
    """Check one row over its figures at CI (``quick``) or paper scale."""
    read: List[BenchResult] = []

    def get(name: str, **kwargs) -> BenchResult:
        if name not in claim.reads:
            raise KeyError(f"claim {claim.id} reads {name!r}, not in {claim.reads}")
        read.append(_figure(name, quick, tuple(sorted(kwargs.items()))))
        return read[-1]

    holds, measured = claim.check(get)
    return Outcome(holds, measured, tuple(dict.fromkeys(f.render() for f in read)))


def report(quick: bool = True) -> str:
    """EXPERIMENTS.md: every claim with its verdict, then every figure read."""
    outcomes = [check(c, quick) for c in CLAIMS]
    lines = [
        "# EXPERIMENTS — paper vs. measured", "",
        f"Printed by `python -m repro figure --report{'' if quick else ' --full'}` "
        f"from {'CI' if quick else 'paper'}-scale sweeps.",
        "Tier-1 asserts every row and that this file equals that output.  Times",
        "are **simulated seconds** (DESIGN.md §1): only the *shapes* — who wins,",
        "by what factor, where crossovers fall — reproduce the paper.", "",
        "| Section | Claim | Tolerance | Measured | Holds |", "|---|---|---|---|---|",
    ]
    lines += [f"| {c.section} | {c.text} | {c.tolerance} | {o.measured} | "
              f"{'yes' if o.holds else '**NO**'} |" for c, o in zip(CLAIMS, outcomes)]
    for text in dict.fromkeys(f for o in outcomes for f in o.figures):
        lines += ["", "```", text, "```"]
    return "\n".join(lines) + "\n"


def _pts(points: Points) -> str:
    if len(points) > 4:
        ys = [y for _x, y in points]
        return f"{len(ys)} points, {min(ys):.4g} .. {max(ys):.4g}"
    return ", ".join(f"{x}: {y:.4g}" for x, y in points)


def _inside(points: Points, lo: float = -float("inf"),
            hi: float = float("inf")) -> Verdict:
    return all(lo < y < hi for _x, y in points), _pts(points)


def _equal(points: Points, want: List[float]) -> Verdict:
    return [y for _x, y in points] == want, _pts(points)


def _grows(points: Points) -> Verdict:
    return points[-1][1] > points[0][1], _pts([points[0], points[-1]])


def _both(a: Verdict, b: Verdict) -> Verdict:
    return a[0] and b[0], f"{a[1]}; {b[1]}"


def _series(get: Getter, name: str, label: str) -> Points:
    return get(name).series[label].points


def _every(get: Getter, name: str, **kwargs) -> Points:
    """Every point of every series of one figure."""
    return [p for s in get(name, **kwargs).series.values() for p in s.points]


def _vs(get: Getter, name: str, label: str, num: str, den: str) -> Points:
    """``num``/``den`` of one series of categorical points."""
    s = get(name).series[label]
    return [(f"{num}/{den}", s.y_at(num) / s.y_at(den))]


def _table1(get: Getter, key: str) -> Points:
    """Table I's ``key`` row as (system, number) points."""
    rows = dict(note.strip().split("  ", 1) for note in get("table1").notes)
    cells = [cell.split(": ", 1) for cell in rows[key].split(" | ")]
    return [(system.split()[0], float(value.split()[0])) for system, value in cells]


_SESSIONS = ("the Sessions sequence (MPI_Session_init + MPI_Group_from_session_pset "
             "+ MPI_Comm_create_from_group) costs ~20% more than MPI_Init")
_VS = ("Sessions", "MPI_Init")
_RATE = "Sessions/MPI_Init message-rate ratio"
_DUP = "per-iteration dup time"
_EAGER = ("eager_limit=256", "eager_limit=65536")
_COLL = "supplementary_collectives"

CLAIMS: Tuple[Claim, ...] = (
    Claim("table1-systems", "Table I", "the study runs on two systems, Trinity "
          "(Cray XC40) and Jupiter (Cray XC30)", "both names appear", ("table1",),
          lambda get: _equal([(name, name in get("table1").render()) for name
                              in ("Trinity", "Jupiter")], [True, True])),
    Claim("table1-cores", "Table I", "Trinity nodes are 2 x 16 cores, Jupiter nodes "
          "2 x 14 (28 ppn fills a node)", "exactly 32 and 28 cores per node",
          ("table1",), lambda get: _equal(_table1(get, "Cores/node"), [32, 28])),
    Claim("table1-aries", "Table I", "both systems use the Cray Aries interconnect",
          "inter-node latency < 3 us and bandwidth > 5 GB/s on both", ("table1",),
          lambda get: _both(_inside(_table1(get, "Inter latency"), hi=3),
                            _inside(_table1(get, "Inter bandwidth"), lo=5))),
    Claim("fig3a-overhead", "§IV-C1, Fig 3a", _SESSIONS + ", at 1 ppn",
          "every Sessions/MPI_Init ratio inside (1.02, 1.6)", ("fig3a",),
          lambda get: _inside(get("fig3a").ratio(*_VS), 1.02, 1.6)),
    Claim("fig3b-overhead", "§IV-C1, Fig 3b", _SESSIONS + ", at 28 ppn",
          "every Sessions/MPI_Init ratio inside (1.05, 1.6)", ("fig3b",),
          lambda get: _inside(get("fig3b").ratio(*_VS), 1.05, 1.6)),
    Claim("fig3b-handle-share", "§IV-C1, Fig 3b", "at 28 ppn ~30% of the "
          "Sessions-specific time is session-handle initialization, the remainder "
          "communicator construction", "every share inside (0.2, 0.45)", ("fig3b",),
          lambda get: _inside(_series(get, "fig3b", "session-handle share"), 0.2, 0.45)),
    Claim("fig3a-handle-dominates", "§IV-C1, Fig 3a", "at 1 ppn startup is dominated "
          "by the initialization of MPI resources", "every session-handle share > 0.6",
          ("fig3a",), lambda get: _inside(_series(get, "fig3a", "session-handle share"),
                                          lo=0.6)),
    Claim("fig3a-init-grows", "Fig 3a", "MPI_Init time grows with the node count",
          "largest node count > smallest", ("fig3a",),
          lambda get: _grows(_series(get, "fig3a", "MPI_Init"))),
    Claim("fig4-dup-slower", "§IV-C2, Fig 4", "the prototype's MPI_Comm_dup is clearly "
          "slower than the baseline's consensus dup, which takes microseconds",
          "every Sessions/MPI_Init ratio > 3; MPI_Init inside (1e-6, 1e-3) s, "
          "Sessions inside (1e-5, 1e-2) s", ("fig4",),
          lambda get: _both(_inside(get("fig4").ratio(*_VS), lo=3), _both(
              _inside(_series(get, "fig4", "MPI_Init"), 1e-6, 1e-3),
              _inside(_series(get, "fig4", "Sessions"), 1e-5, 1e-2)))),
    Claim("fig4-consensus-grows", "Fig 4", "the consensus allreduce cost grows with "
          "the communicator size", "largest node count > smallest", ("fig4",),
          lambda get: _grows(_series(get, "fig4", "MPI_Init"))),
    Claim("fig4-one-pgcid", "§IV-C2, Fig 4", 'the gap is "accounted for by the '
          'overhead of acquiring a PMIx group context identifier"',
          "exactly 0 PGCIDs per MPI_Init dup, 1 per Sessions dup", ("fig4",),
          lambda get: _equal(_series(get, "fig4", "PGCIDs per dup"), [0, 1])),
    Claim("fig5a-latency", "§IV-C3, Fig 5a", 'Sessions has "a small effect on '
          'latency — in some cases showing an improvement"',
          "every ratio inside (0.9, 1.1), at least one <= 1", ("fig5a",),
          lambda get: _both(_inside(_every(get, "fig5a"), 0.9, 1.1), _equal(
              [("some <= 1", min(y for _x, y in _every(get, "fig5a")) <= 1)], [True]))),
    Claim("fig5b-one-pair", "§IV-C3, Fig 5b", "with 2 processes the pre-loop barrier "
          "completes the exCID -> local-CID switch: rates are identical",
          "every ratio inside (0.95, 1.05)", ("fig5b",),
          lambda get: _inside(_every(get, "fig5b"), 0.95, 1.05)),
    Claim("fig5c-handshake", "§IV-C3, Fig 5c", "with 16 processes the barrier does "
          "not pre-switch the pairs: Sessions lags at small sizes only",
          "message rate < 0.95 at the smallest size, inside (0.95, 1.05) at the "
          "largest", ("fig5c",),
          lambda get: _both(_inside(_series(get, "fig5c", _RATE)[:1], hi=0.95),
                            _inside(_series(get, "fig5c", _RATE)[-1:], 0.95, 1.05))),
    Claim("fig5c-presync", "§IV-C3, Fig 5c", "with an MPI_Sendrecv pre-sync the "
          'rates are "essentially identical"', "every ratio inside (0.95, 1.05)",
          ("fig5c",), lambda get: _inside(_every(get, "fig5c", presync=True), 0.95, 1.05)),
    Claim("fig6a-identical", "§IV-D, Fig 6a", '"the latencies obtained using '
          'sessions are practically identical", random ring ordering',
          "every Sessions/MPI_Init ratio inside (0.95, 1.05)", ("fig6a",),
          lambda get: _inside(get("fig6a").ratio(*_VS), 0.95, 1.05)),
    Claim("fig6b-identical", "§IV-D, Fig 6b", '"the latencies obtained using '
          'sessions are practically identical", natural ring ordering',
          "every Sessions/MPI_Init ratio inside (0.95, 1.05)", ("fig6b",),
          lambda get: _inside(get("fig6b").ratio(*_VS), 0.95, 1.05)),
    Claim("fig6-random-slower", "§IV-D, Fig 6", "a random ring crosses nodes on "
          "almost every hop, a natural one only at node boundaries",
          "random > 1.3 x natural (MPI_Init)", ("fig6a", "fig6b"),
          lambda get: _inside([(x, y / get("fig6b").series["MPI_Init"].y_at(x))
                               for x, y in _series(get, "fig6a", "MPI_Init")], lo=1.3)),
    Claim("fig7-quiescence", "§IV-E, Fig 7", '"our prototype imposes minimal '
          '(<= 3%) overhead over the baseline"',
          "every Sessions/Baseline inside (1.0, 1.035)", ("fig7",),
          lambda get: _inside(_series(get, "fig7", "Sessions/Baseline"), 1.0, 1.035)),
    Claim("ablation-dup-policy", "§III-B3, ablation", "subfield derivation creates "
          "more communicators before requesting a new PGCID",
          "subfield < 0.5 x PGCID-per-dup", ("ablation_dup_policy",),
          lambda get: _inside(_vs(get, "ablation_dup_policy", _DUP, "subfield",
                                  "pgcid-per-dup"), hi=0.5)),
    Claim("ablation-fragmentation", "§IV-C2, ablation", "CID-space fragmentation "
          "hurts the consensus algorithm, not the exCID generator",
          "consensus > 1.5 x clean; exCID inside (0.9, 1.1) x clean",
          ("ablation_fragmentation",),
          lambda get: _both(_inside(_vs(get, "ablation_fragmentation", _DUP,
                                        "consensus/fragmented", "consensus/clean"), lo=1.5),
                            _inside(_vs(get, "ablation_fragmentation", _DUP,
                                        "excid/fragmented", "excid/clean"), 0.9, 1.1))),
    Claim("ablation-grpcomm", "§III-A, ablation", "the hierarchical exchange scales "
          "better than a flat all-to-all", "flat > tree at the largest node count",
          ("ablation_grpcomm",), lambda get: _inside(get("ablation_grpcomm").ratio(
              "flat all-to-all", "tree (hierarchical)")[-1:], lo=1)),
    Claim("ablation-handshake", "§III-B4, ablation", "forced extended headers cost "
          "message rate at small sizes; the local-CID switch avoids it",
          "forced/normal < 0.9 at the smallest size", ("ablation_handshake",),
          lambda get: _inside(_series(get, "ablation_handshake",
                                      "forced-extended / normal message rate")[:1], hi=0.9)),
    Claim("ablation-eager-limit", "model validation, ablation", "rendezvous hurts "
          "mid-size messages; large ones ignore the eager limit",
          "limit 256 / limit 65536 < 1 at 4 KiB, exactly 1 at 1 MiB",
          ("ablation_eager_limit",), lambda get: _both(
              _inside(get("ablation_eager_limit").ratio(*_EAGER)[1:2], hi=1),
              _equal(get("ablation_eager_limit").ratio(*_EAGER)[-1:], [1]))),
    Claim("collectives-match", "supplementary", "after the exCID switch collectives "
          "on Sessions-derived communicators run at baseline latency",
          "every Sessions/MPI_Init ratio inside (0.9, 1.1)", (_COLL,),
          lambda get: _inside([p for op in ("allreduce", "bcast", "barrier", "allgather",
                                            "alltoall") for p in _series(get, _COLL, op)],
                              0.9, 1.1)),
    Claim("collectives-grow", "supplementary", "collective latency grows with the "
          "payload and with the rank count", "MPI_Init allreduce: largest size > "
          "smallest; MPI_Init barrier: 8x4 ranks > 2x4", (_COLL,),
          lambda get: _both(_grows(_series(get, _COLL, "MPI_Init allreduce latency")),
                            _grows(_series(get, _COLL, "MPI_Init barrier latency")))),
)
