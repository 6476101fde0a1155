"""BTL interface."""

from __future__ import annotations

from typing import Tuple

from repro.machine.model import MachineModel


class BTL:
    """A transport with an injection cost and a wire cost, answered
    together by :meth:`times` (one call per packet):

    * *injection*: how long the sending process's CPU/NIC is busy
      pushing the message out (serializes consecutive sends — this is
      what bounds message rate).
    * *flight*: additional in-flight time before the first byte can
      be matched at the receiver (does not occupy the sender).
    """

    name = "base"

    def __init__(self, machine: MachineModel) -> None:
        self.machine = machine

    def times(self, nbytes: int) -> Tuple[float, float]:
        """``(injection, flight)`` seconds for ``nbytes`` on the wire."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BTL {self.name}>"
