"""MPI_Info objects.

Usable *before* MPI (or any session) is initialized — paper §III-B5:
"calls related to MPI_Info objects including object creation,
duplication, destruction, and the insertion and deletion of key/value
pairs" must work pre-init and be thread-safe.  In the prototype this
meant always-enabled locks; simulated processes are cooperatively
scheduled, so no lock is needed, but the *lifecycle* rules
(use-after-free detection, key and value limits) are enforced.

The object carries what a session reads: the hints passed to
``session_init`` (``Session.get_info`` copies them through ``items``)
and the ``mpi_size`` of ``Session.get_pset_info``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.ompi.errors import MPIErrArg

MAX_INFO_KEY = 255
MAX_INFO_VAL = 1024


class Info:
    """Ordered string key/value dictionary with MPI semantics."""

    def __init__(self, initial: Optional[Dict[str, str]] = None) -> None:
        self._data: Dict[str, str] = {}
        self.freed = False
        if initial:
            for key, value in initial.items():
                self.set(key, value)

    # -- helpers ---------------------------------------------------------
    def _check(self) -> None:
        if self.freed:
            raise MPIErrArg("MPI_Info used after MPI_Info_free")

    @staticmethod
    def _check_key(key: str) -> None:
        if not isinstance(key, str) or not key:
            raise MPIErrArg("info key must be a non-empty string")
        if len(key) > MAX_INFO_KEY:
            raise MPIErrArg(f"info key longer than MPI_MAX_INFO_KEY ({MAX_INFO_KEY})")

    # -- MPI operations -----------------------------------------------------
    def set(self, key: str, value: str) -> None:
        self._check()
        self._check_key(key)
        if not isinstance(value, str):
            raise MPIErrArg("info value must be a string")
        if len(value) > MAX_INFO_VAL:
            raise MPIErrArg(f"info value longer than MPI_MAX_INFO_VAL ({MAX_INFO_VAL})")
        self._data[key] = value

    def get(self, key: str) -> Optional[str]:
        self._check()
        self._check_key(key)
        return self._data.get(key)

    def free(self) -> None:
        self._check()
        self.freed = True
        self._data.clear()

    def items(self) -> Iterator:
        self._check()
        return iter(self._data.items())

