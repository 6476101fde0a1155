"""Attribute keyvals and caching (comm/session attributes).

Paper §III-B5 requires "calls related to session attributes creation,
destruction, and value caching" to work before initialization, so
keyvals live outside any library instance.  Copy/delete callbacks
follow the MPI model: the copy callback decides whether an attribute
propagates through ``dup``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.ompi.errors import MPIErrArg

CopyFn = Callable[[int, Any], Tuple[bool, Any]]   # (keyval, value) -> (copy?, newvalue)
DeleteFn = Callable[[int, Any], None]


def _null_copy(keyval: int, value: Any) -> Tuple[bool, Any]:
    """MPI_NULL_COPY_FN: attribute does not propagate on dup."""
    return False, None


def _dup_copy(keyval: int, value: Any) -> Tuple[bool, Any]:
    """MPI_COMM_DUP_FN: attribute propagates by reference."""
    return True, value


class KeyvalRegistry:
    """Process-global registry of attribute keys (pre-init callable)."""

    __slots__ = ("_next", "_keyvals")

    def __init__(self) -> None:
        self._next = itertools.count(100)
        self._keyvals: Dict[int, Tuple[CopyFn, DeleteFn, Any]] = {}

    def create(
        self,
        copy_fn: Optional[CopyFn] = None,
        delete_fn: Optional[DeleteFn] = None,
        extra_state: Any = None,
    ) -> int:
        keyval = next(self._next)
        self._keyvals[keyval] = (
            copy_fn or _null_copy,
            delete_fn or (lambda kv, v: None),
            extra_state,
        )
        return keyval

    def free(self, keyval: int) -> None:
        if keyval not in self._keyvals:
            raise MPIErrArg(f"unknown keyval {keyval}")
        del self._keyvals[keyval]

    def known(self, keyval: int) -> bool:
        return keyval in self._keyvals

    def callbacks(self, keyval: int) -> Tuple[CopyFn, DeleteFn, Any]:
        if keyval not in self._keyvals:
            raise MPIErrArg(f"unknown keyval {keyval}")
        return self._keyvals[keyval]


class AttributeCache:
    """Per-object attribute storage (hangs off comms and sessions)."""

    __slots__ = ("_registry", "_attrs")

    def __init__(self, registry: KeyvalRegistry) -> None:
        self._registry = registry
        self._attrs: Dict[int, Any] = {}

    def set(self, keyval: int, value: Any) -> None:
        if not self._registry.known(keyval):
            raise MPIErrArg(f"unknown keyval {keyval}")
        if keyval in self._attrs:
            # Setting over an existing attribute invokes its delete fn.
            _, delete_fn, _ = self._registry.callbacks(keyval)
            delete_fn(keyval, self._attrs[keyval])
        self._attrs[keyval] = value

    def get(self, keyval: int) -> Tuple[bool, Any]:
        if not self._registry.known(keyval):
            raise MPIErrArg(f"unknown keyval {keyval}")
        if keyval in self._attrs:
            return True, self._attrs[keyval]
        return False, None

    def delete(self, keyval: int) -> None:
        if keyval not in self._attrs:
            raise MPIErrArg(f"attribute {keyval} not set")
        _, delete_fn, _ = self._registry.callbacks(keyval)
        delete_fn(keyval, self._attrs.pop(keyval))

    def copy_for_dup(self) -> "AttributeCache":
        """Apply copy callbacks to build the dup'd object's cache."""
        out = AttributeCache(self._registry)
        for keyval, value in self._attrs.items():
            copy_fn, _, _ = self._registry.callbacks(keyval)
            do_copy, new_value = copy_fn(keyval, value)
            if do_copy:
                out._attrs[keyval] = new_value
        return out

    def clear(self) -> None:
        """Run delete callbacks for everything (object free)."""
        for keyval in list(self._attrs):
            _, delete_fn, _ = self._registry.callbacks(keyval)
            delete_fn(keyval, self._attrs.pop(keyval))

    def __len__(self) -> int:
        return len(self._attrs)


NULL_COPY_FN = _null_copy
DUP_FN = _dup_copy
