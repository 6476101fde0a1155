"""Shared fixtures and helpers for the test suite.

Marker map (registered in pyproject.toml ``[tool.pytest.ini_options]``):

* ``faults``      — fault-injection matrix tests.
* ``obs``         — observability/tracing tests.
* ``recovery``    — fault-recovery tests incl. the chaos soak.
* (no marker)     — the deterministic performance gates are tier-1:
  the call-count gates ``tests/ompi/test_init_scaling.py`` (calls per
  simulated rank), ``tests/ompi/test_message_path_cost.py`` (calls per
  ob1 packet) and ``tests/serve/test_submit_path_cost.py`` (calls per
  cache-hit submit — the deterministic stand-in for the benchmark's
  ``serve-hot`` row; it carries the ``serve`` marker), all three on the
  shared ``sys.setprofile`` counter in ``tests/_callcount.py``; the
  footprint gate
  ``tests/ompi/test_rank_footprint.py`` (GC-tracked objects and
  ``tracemalloc`` KB per simulated rank) and the lifetime gate
  ``tests/ompi/test_world_lifetime.py`` (objects per rank that outlive
  a dropped world with the collector off: ``survivors``), both on
  ``tests/_objcount.py`` (helper modules, not test files); the
  import-path checks ``tests/test_numpy_lazy.py`` and
  ``tests/test_import_footprint.py`` (fresh interpreters: no import and
  no plain job pulls in numpy, ``hashlib`` or ``sqlite3``); and the
  paper's claims, ``tests/bench/test_claims.py``: one test per row of
  ``repro.bench.claims.CLAIMS``, in simulated time at CI scale (its
  ``slow`` twin runs the paper-scale sweeps).
* ``serve``       — serving-layer tests incl. the loadgen smoke
  (tests/serve/, and ``TestServeCLI`` in tests/test_cli.py, which
  drives ``python -m repro serve`` as a subprocess like the rest of
  that file drives the other subcommands).
* ``chaos``       — operational fault injection (tests/chaos/): the
  ``repro.chaos`` plan model, cache corruption/quarantine, client
  reconnect-and-resubmit, the circuit breaker, and sweep crash
  isolation.  The default-sized subset runs in tier-1 as the chaos
  smoke; ``python -m repro chaos`` is the full soak.
* ``dsim``        — the partitioned-simulation suite (tests/dsim/):
  running one world across N forked worker partitions (``repro.dsim``)
  must be bit-equivalent to one process — results, traces (canonically
  normalized), metrics, soak digests — including under partition-safe
  fault plans.  The small-scale subset runs in tier-1 as the dsim
  smoke; the 4-partition and multi-seed sweeps are ``slow``.
* ``stackparity`` — the frozen-bytes corpus (tests/stackparity/):
  ``identity.txt`` is ``python -m repro obs --identity --seeds 0:50``
  (every scenario at 2x2/4x4/8x8, scaled and per-seed chaos soaks) and
  ``test_corpus.py`` regenerates all of it in tier-1 and requires every
  line unchanged.  Regenerating the file is a reviewed act.
* ``slow``        — large-scale runs (1k+ simulated ranks, bigger parity
  sweeps; the 64 -> 4096 twin of the call-count gate and the 1024/4096
  recording twins of the footprint gate, which print objects, KB,
  gen-0/1/2 collector passes, survivors of a dropped world and the
  4096-vs-64-rank wall per rank instead of gating them).
  Excluded from tier-1 by ``addopts = -m "not slow"``; opt in with
  ``pytest -m slow`` (or ``-m ""`` to run the whole matrix).
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.machine.presets import laptop


def run_procs(cluster: Cluster, *gens, names=None):
    """Spawn generators as simulated processes, run to quiescence, and
    return their results in spawn order."""
    procs = []
    for i, gen in enumerate(gens):
        name = names[i] if names else f"proc{i}"
        procs.append(cluster.spawn(gen, name))
    for p in procs:
        p.defuse()
    cluster.run()
    for p in procs:
        if p.exception is not None:
            raise p.exception
    return [p.result for p in procs]


@pytest.fixture
def small_cluster():
    """4-node laptop-class cluster (fast startup constants)."""
    return Cluster(machine=laptop(num_nodes=4))


@pytest.fixture
def one_node_cluster():
    return Cluster(machine=laptop(num_nodes=1))
