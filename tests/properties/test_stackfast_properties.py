"""Property tests for the PR-6 stack fast paths.

Three surfaces the optimized protocol code rewired, each checked
against either an algebraic model or the ``Engine(compat=True)``
reference:

* ob1 match headers — a packet costs the same wire bytes whether it
  carries the compat dataclasses or the default engine's tuples;
* RML/grpcomm fan-out — random same-instant send bursts deliver in
  identical order, at identical times, on both engines, and never
  overtake within a (src, dst) pair;
* PMIx KVS put/commit/fence/get bookkeeping — random put sets agree
  with a dict model after the fence, identically on both engines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.machine.presets import laptop
from repro.ompi.pml.headers import (
    EXTENDED_HEADER_BYTES,
    MATCH_HEADER_BYTES,
    ExtendedHeader,
    MatchHeader,
)
from repro.ompi.pml.ob1 import Packet
from repro.pmix.types import PMIX_ERR_NOT_FOUND, PmixError
from tests.conftest import run_procs

pytestmark = pytest.mark.stackparity


# ---------------------------------------------------------------------------
# ob1 headers
# ---------------------------------------------------------------------------
# Full field ranges of the modeled wire format: 16-bit ctx, 24-bit src,
# signed 33-bit tag window (covers negative internal collective tags),
# unbounded seq.
ctxs = st.integers(0, 2**16 - 1)
srcs = st.integers(0, 2**24 - 1)
tags = st.integers(-(2**32), 2**32 - 1)
seqs = st.integers(0, 2**48)


@given(ctx=ctxs, src=srcs, tag=tags, seq=seqs,
       nbytes=st.integers(0, 1 << 20),
       extended=st.booleans(), eager=st.booleans())
@settings(max_examples=100, deadline=None)
def test_wire_size_invariant_under_header_form(ctx, src, tag, seq, nbytes,
                                               extended, eager):
    """A packet costs the same wire bytes whether it carries the compat
    dataclass headers or the default engine's tuples."""
    hdr_obj = MatchHeader(ctx=ctx, src=src, tag=tag, seq=seq)
    hdr_tup = (ctx, src, tag, seq)
    ext_obj = ExtendedHeader(excid=("job", 1, 7), sender_cid=3) if extended else None
    ext_tup = (("job", 1, 7), 3) if extended else None
    protocol = "eager" if eager else "rendezvous"
    compat_pkt = Packet(kind="user", src_proc=None, hdr=hdr_obj, ext=ext_obj,
                        nbytes=nbytes, protocol=protocol)
    fast_pkt = Packet(kind="user", src_proc=None, hdr=hdr_tup, ext=ext_tup,
                      nbytes=nbytes, protocol=protocol)
    assert compat_pkt.wire == fast_pkt.wire
    expected = MATCH_HEADER_BYTES
    if extended:
        expected += EXTENDED_HEADER_BYTES
    if eager:
        expected += nbytes
    assert fast_pkt.wire == expected


# ---------------------------------------------------------------------------
# RML / grpcomm fan-out delivery order
# ---------------------------------------------------------------------------
NODES = 4

# A burst: every send is issued at t=0 (the same-instant fan-out shape
# grpcomm's _forward_down produces), src/dst drawn over all daemons.
bursts = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    min_size=1, max_size=16,
)


def _run_fanout(burst, engine_compat):
    cluster = Cluster(machine=laptop(num_nodes=NODES),
                      engine_compat=engine_compat)
    log = []
    for d in cluster.dvm.daemons:
        d.add_handler(
            "prop_burst",
            lambda msg, node=d.node: log.append(
                (cluster.engine.now, msg.src, node, msg.payload["i"])
            ),
        )
    for i, (src, dst) in enumerate(burst):
        cluster.dvm.daemons[src].send(dst, "prop_burst", {"i": i})
    cluster.run()
    return log, cluster.engine.events_executed


@given(bursts)
@settings(max_examples=30, deadline=None)
def test_fanout_delivery_order_matches_compat(burst):
    fast_log, fast_events = _run_fanout(burst, engine_compat=False)
    compat_log, compat_events = _run_fanout(burst, engine_compat=True)
    # Identical delivery sequence: same order, same timestamps, same
    # logical event count.
    assert fast_log == compat_log
    assert fast_events == compat_events
    # Everything sent was delivered exactly once.
    assert sorted(entry[3] for entry in fast_log) == list(range(len(burst)))


@given(bursts)
@settings(max_examples=30, deadline=None)
def test_fanout_never_overtakes_within_pair(burst):
    log, _ = _run_fanout(burst, engine_compat=False)
    # RML is FIFO per (src, dst): send order == delivery order per pair.
    per_pair = {}
    for _, src, dst, i in log:
        per_pair.setdefault((src, dst), []).append(i)
    for (src, dst), seen in per_pair.items():
        expected = [i for i, (s, d) in enumerate(burst) if (s, d) == (src, dst)]
        assert seen == expected


# ---------------------------------------------------------------------------
# PMIx KVS put / commit / fence / get bookkeeping
# ---------------------------------------------------------------------------
KEY_POOL = ["k0", "k1", "k2", "k3"]

# Per rank: a sequence of (key, value) puts (later puts overwrite).
put_scripts = st.lists(
    st.lists(st.tuples(st.sampled_from(KEY_POOL), st.integers(-99, 99)),
             max_size=5),
    min_size=2, max_size=4,
)


@given(put_scripts)
@settings(max_examples=15, deadline=None)
def test_kvs_fence_visibility_matches_model(scripts):
    nranks = len(scripts)
    # Dict model of what each rank committed.
    model = [dict(script) for script in scripts]

    def run(engine_compat):
        cluster = Cluster(machine=laptop(num_nodes=2),
                          engine_compat=engine_compat)
        job = cluster.launch(nranks, ppn=(nranks + 1) // 2)

        def rank_proc(rank):
            client = job.client(rank)
            yield from client.init()
            for key, value in scripts[rank]:
                client.put(key, value)
            yield from client.commit()
            yield from client.fence()
            seen = {}
            for peer in range(nranks):
                for key in KEY_POOL:
                    try:
                        value = yield from client.get(job.proc(peer), key)
                    except PmixError as err:
                        assert err.status == PMIX_ERR_NOT_FOUND
                        value = None
                    seen[(peer, key)] = value
            return seen

        results = run_procs(cluster, *(rank_proc(r) for r in range(nranks)))
        return results, cluster.now, cluster.engine.events_executed

    fast_results, fast_now, fast_events = run(engine_compat=False)
    compat_results, compat_now, compat_events = run(engine_compat=True)

    # Model agreement: after the fence, every rank sees exactly what each
    # peer committed, and nothing else.
    for seen in fast_results:
        for peer in range(nranks):
            for key in KEY_POOL:
                assert seen[(peer, key)] == model[peer].get(key)
    # Engine parity: identical answers, end time, and event bookkeeping.
    assert fast_results == compat_results
    assert fast_now == compat_now
    assert fast_events == compat_events
