"""Property test: RMA epochs against a numpy reference model.

Random sequences of puts across ranks; after every fence the window
memory on each rank must equal the model applied in the same per-origin
order (MPI leaves conflicting-origin order undefined, so the generated
sequences never write overlapping ranges from two origins in one
epoch)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimSpec, run_mpi
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.win import Window

WIN = 8
NRANKS = 3

# One epoch = a list of puts; put = (origin, target, slot, value).
# Offsets are partitioned by origin (origin o may write [o*2, o*2+2))
# so concurrent writes never conflict.
puts = st.tuples(
    st.integers(0, NRANKS - 1),           # origin
    st.integers(0, NRANKS - 1),           # target
    st.integers(0, 1),                    # slot within the origin's range
    st.integers(-5, 5),                   # value
)
epochs = st.lists(st.lists(puts, max_size=6), min_size=1, max_size=4)


@given(epochs)
@settings(max_examples=25, deadline=None)
def test_window_matches_numpy_model(script):
    def main(mpi):
        comm = yield from mpi.mpi_init()
        win = yield from Window.allocate(comm, WIN)
        yield from win.fence()
        snapshots = []
        for epoch in script:
            for origin, target, slot, value in epoch:
                if origin != comm.rank:
                    continue
                offset = origin * 2 + slot
                yield from win.put(np.array([float(value)]), target, offset)
            yield from win.fence()
            snapshots.append(win.memory.copy())
        yield from comm.barrier()
        win.free()
        yield from mpi.mpi_finalize()
        return [s.tolist() for s in snapshots]

    results = run_mpi(SimSpec(nprocs=NRANKS, machine=laptop(num_nodes=1),
                              ppn=NRANKS, config=MpiConfig.baseline()), main)

    # Reference model.
    model = [np.zeros(WIN) for _ in range(NRANKS)]
    expected_snapshots = []
    for epoch in script:
        for origin, target, slot, value in epoch:
            model[target][origin * 2 + slot] = value
        expected_snapshots.append([m.copy() for m in model])

    for rank in range(NRANKS):
        for i, _epoch in enumerate(script):
            assert results[rank][i] == expected_snapshots[i][rank].tolist(), (
                rank, i, script
            )
