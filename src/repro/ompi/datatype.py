"""Payload sizing for the cost model.

The simulator moves Python objects, not typed buffers, so a message's
wire size is estimated from the object itself; a caller that knows the
size passes ``nbytes=`` instead.

An ndarray is sized by ``nbytes`` without importing numpy: a process
that never imported it cannot hold one, and most simulated programs
move Python ints.
"""

from __future__ import annotations

import sys


def sizeof_payload(payload) -> int:
    """Best-effort wire size of a python payload.

    Priority: numpy nbytes > bytes len > rough pickle-free structural
    estimate.
    """
    # An ndarray cannot exist in a process that never imported numpy.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if payload is None:
        return 0
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (list, tuple, set)):
        return 8 + sum(sizeof_payload(v) for v in payload)
    if isinstance(payload, dict):
        return 8 + sum(sizeof_payload(k) + sizeof_payload(v) for k, v in payload.items())
    return 64
