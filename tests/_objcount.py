"""What one simulated rank keeps alive: GC-tracked objects and bytes.

Twin of ``tests/_callcount.py``.  Wall clock and RSS are noisy; the
number of objects the collector has to walk and the bytes ``tracemalloc``
sees allocated repeat exactly.  A Fig-3 job (the Sessions sequence or
``MPI_Init``) is run to the point where every rank is fully initialised —
rank 0 samples right after the barrier that follows init — and the sample
is taken at two world sizes: the *marginal* cost per rank between them
leaves out everything that is paid once per process or per world
(imports, the engine, the DVM), so what remains is what a rank costs.

Shared by ``tests/ompi/test_rank_footprint.py`` (the tier-1 gate and its
``slow`` recording twin) and ``tests/ompi/test_world_lifetime.py`` (what
is left of a rank once its world is dropped: :func:`survivors`).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from tests._callcount import SRC    # allocation sites are reported relative to it

PPN = 16


def sessions_main(mpi, probe):
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "footprint")
    yield from comm.barrier()
    if comm.rank == 0:
        probe()
    comm.free()
    yield from session.finalize()


def world_main(mpi, probe):
    comm = yield from mpi.mpi_init()
    yield from comm.barrier()
    if comm.rank == 0:
        probe()
    yield from mpi.mpi_finalize()


JOBS: Dict[str, Tuple[Callable, Callable[[], MpiConfig]]] = {
    "sessions": (sessions_main, MpiConfig.sessions_prototype),
    "mpi_init": (world_main, MpiConfig.baseline),
}


def _run(job: str, nodes: int, probe: Callable[[], None]) -> None:
    main, config = JOBS[job]
    world = make_world(SimSpec(nprocs=nodes * PPN, machine=jupiter(nodes),
                               ppn=PPN, config=config()))
    procs = world.spawn_ranks(main, args=(probe,))
    world.run()
    for proc in procs:
        if proc.exception is not None:
            raise proc.exception


def _site(path: str) -> str:
    return path[len(SRC):] if path.startswith(SRC) else path


def _owner(fn) -> str:
    return _site(fn.__code__.co_filename)


@dataclass
class Sample:
    """One world, sampled by rank 0 once every rank is initialised."""

    ranks: int
    objects: Counter    # type name -> live GC-tracked objects
    closures: Counter   # ("function" | "cell", defining file) -> count
    sites: Dict[Tuple[str, int], Tuple[int, int]]   # file:line -> (bytes, blocks)


def sample(job: str, nodes: int) -> Sample:
    """Run ``job`` on ``nodes`` x 16 ranks under ``tracemalloc`` and
    count what is alive at the post-init barrier."""
    taken: List[Sample] = []

    def probe() -> None:
        for _ in range(3):      # cyclic garbage is not footprint; nested
            gc.collect()        # atomic tuples untrack one level per pass
        # Census before snapshot: a snapshot is itself ~1e5 tracked tuples.
        objects: Counter = Counter()
        closures: Counter = Counter()
        for obj in gc.get_objects():
            kind = type(obj).__name__
            objects[kind] += 1
            if kind == "function":
                closures["function", _owner(obj)] += 1
                closures["cell", _owner(obj)] += len(obj.__closure__ or ())
        snapshot = tracemalloc.take_snapshot()
        sites = {(_site(stat.traceback[0].filename), stat.traceback[0].lineno):
                 (stat.size, stat.count)
                 for stat in snapshot.statistics("lineno")}
        taken.append(Sample(nodes * PPN, objects, closures, sites))

    _run(job, 1, lambda: None)      # lazy imports and caches are not footprint
    gc.collect()
    tracemalloc.start()
    try:
        _run(job, nodes, probe)
    finally:
        tracemalloc.stop()
    (result,) = taken
    return result


@dataclass
class Marginal:
    """Per-rank difference between a small and a large world."""

    objects: Dict[str, float]           # type name -> objects per rank
    closures: Dict[Tuple[str, str], float]
    sites: Dict[Tuple[str, int], Tuple[float, float]]   # bytes, blocks per rank

    @property
    def objects_per_rank(self) -> float:
        return sum(self.objects.values())

    @property
    def kb_per_rank(self) -> float:
        return sum(size for size, _ in self.sites.values()) / 1024

    def owned_by(self, *prefixes: str) -> float:
        """Per-rank functions + closure cells defined under ``prefixes``
        (paths relative to ``src/repro``)."""
        return sum(n for (_, path), n in self.closures.items()
                   if path.startswith(prefixes))

    def top(self, n: int = 10) -> str:
        """The ``n`` heaviest allocation sites and object types, per rank."""
        rows = sorted(self.sites.items(), key=lambda kv: -kv[1][0])[:n]
        lines = [f"  {size:8.0f} B {blocks:6.2f} blocks  {path}:{line}"
                 for (path, line), (size, blocks) in rows]
        kinds = sorted(self.objects.items(), key=lambda kv: -kv[1])[:n]
        lines += [f"  {count:8.2f} x {kind}" for kind, count in kinds if count]
        return "\n".join(lines)


def marginal(small: Sample, large: Sample) -> Marginal:
    dr = large.ranks - small.ranks

    def per_rank(big: Counter, little: Counter) -> Dict:
        return {key: (big[key] - little[key]) / dr
                for key in set(big) | set(little) if big[key] != little[key]}

    sites = {}
    for key in set(large.sites) | set(small.sites):
        b1, n1 = large.sites.get(key, (0, 0))
        b0, n0 = small.sites.get(key, (0, 0))
        if b1 != b0 or n1 != n0:
            sites[key] = ((b1 - b0) / dr, (n1 - n0) / dr)
    return Marginal(per_rank(large.objects, small.objects),
                    per_rank(large.closures, small.closures), sites)


def survivors(job: str, nodes: int) -> Counter:
    """What outlives a finished, dropped world when nobody collects: type
    name -> GC-tracked objects alive after the job that were not there
    before it, with the collector disabled throughout.  Whatever is
    counted here is a reference cycle (or a registration nobody undid):
    reference counting alone did not free it."""
    _run(job, 1, lambda: None)      # lazy imports and caches are not survivors

    def census() -> Counter:
        return Counter(type(obj).__name__ for obj in gc.get_objects())

    census()                        # nor are the ABC caches a first census fills
    gc.collect()
    gc.disable()
    try:
        before = census()
        _run(job, nodes, lambda: None)
        after = census()
    finally:
        gc.enable()
    after.subtract(before)
    return +after


def gc_passes(job: str, nodes: int) -> Tuple[int, int, int]:
    """Collector passes per generation over one whole job, world
    construction to quiescence, untraced and unsampled."""
    before = [gen["collections"] for gen in gc.get_stats()]
    _run(job, nodes, lambda: None)
    return tuple(gen["collections"] - b
                 for gen, b in zip(gc.get_stats(), before))


_PAIR = """
import gc, os, sys, time
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
from tests._objcount import JOBS, _run
nodes = int(sys.argv[1])
for job in sorted(JOBS):
    _run(job, 1, lambda: None)
wall = 0.0
for job in sorted(JOBS):
    gc.collect()
    t0 = time.perf_counter()
    _run(job, nodes, lambda: None)
    wall += time.perf_counter() - t0
print(wall / (2 * nodes * 16) * 1e6)
"""


def fresh_pair_us_per_rank(nodes: int) -> float:
    """Wall microseconds per rank of one ``MPI_Init`` + one Sessions job
    on ``nodes`` x 16 ranks, collector on, in a fresh interpreter pinned
    to one CPU (``gc.collect()`` before each job, a 16-rank warm-up of
    each first): the protocol of docs/performance.md, "Footprint of one
    rank"."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.path.dirname(SRC.rstrip(os.sep)), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PAIR, str(nodes)], env=env,
                         capture_output=True, text=True, timeout=600, check=True)
    return float(out.stdout.strip())
