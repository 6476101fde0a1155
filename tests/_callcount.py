"""Count Python-level calls made inside ``src/repro`` (``sys.setprofile``).

Wall clock is noisy; the number of interpreted calls a run makes is not —
it repeats exactly, so a gate on it is deterministic and a regression
arrives attributed to the functions that grew.  Shared by the cost gates
``tests/ompi/test_init_scaling.py`` (calls per simulated rank),
``tests/ompi/test_message_path_cost.py`` (calls per ob1 packet) and
``tests/serve/test_submit_path_cost.py`` (calls per cache-hit submit).
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import repro

#: Only frames whose code lives under this prefix are counted.
SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class CallTally(Counter):
    """Calls per ``(path relative to SRC, function name)``."""

    @property
    def total(self) -> int:
        return sum(self.values())

    def top(self, n: int = 10, per: float = 1.0) -> str:
        """The ``n`` functions with the most calls, one per line, each
        count divided by ``per`` (e.g. the packets the run moved)."""
        return "\n".join(
            f"  {calls / per:10.2f}  {path}:{name}"
            for (path, name), calls in self.most_common(n)
        )


@contextmanager
def counting_calls() -> Iterator[CallTally]:
    """Tally every Python call into ``src/repro`` made inside the block
    (generator resumptions count, C functions do not)."""
    tally = CallTally()
    skip = len(SRC)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC):
                tally[code.co_filename[skip:], code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield tally
    finally:
        sys.setprofile(previous)
