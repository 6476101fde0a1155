"""Per-namespace key-value storage.

Each PMIx server keeps one :class:`Datastore`: job-level data (rank
``PMIX_RANK_WILDCARD``) plus per-rank data published via put/commit and
propagated by fence or direct-modex requests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.pmix.types import PMIX_RANK_WILDCARD, PmixProc
from repro.pmix.wire import wire_size


class Datastore:
    """Nested mapping nspace -> rank -> key -> value.

    One rank's ``key -> value`` dict is a value: a writer replaces it
    with a new dict and never updates it in place.  That is what lets a
    collected fence leave every server of the world holding the *same*
    blob object per peer (:meth:`merge_blobs`) instead of ranks x
    servers copies of it.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Dict[int, Dict[str, Any]]] = {}

    def put(self, proc: PmixProc, key: str, value: Any) -> None:
        by_rank = self._data.setdefault(proc.nspace, {})
        by_rank[proc.rank] = {**by_rank.get(proc.rank, {}), key: value}

    def put_job(self, nspace: str, key: str, value: Any) -> None:
        """Store job-level data (visible via the wildcard rank)."""
        self.put(PmixProc(nspace, PMIX_RANK_WILDCARD), key, value)

    def get(self, proc: PmixProc, key: str) -> Tuple[bool, Any]:
        """Return (found, value); falls back to job-level data."""
        by_rank = self._data.get(proc.nspace)
        if by_rank is None:
            return False, None
        rank_data = by_rank.get(proc.rank)
        if rank_data is not None and key in rank_data:
            return True, rank_data[key]
        if proc.rank != PMIX_RANK_WILDCARD:
            job = by_rank.get(PMIX_RANK_WILDCARD)
            if job is not None and key in job:
                return True, job[key]
        return False, None

    def has(self, proc: PmixProc, key: str) -> bool:
        return self.get(proc, key)[0]

    def rank_blob(self, proc: PmixProc) -> Dict[str, Any]:
        """All committed data for one rank (what fence exchanges)."""
        return dict(self._data.get(proc.nspace, {}).get(proc.rank, {}))

    def merge_blob(self, proc: PmixProc, blob: Dict[str, Any]) -> None:
        if not blob:
            return
        by_rank = self._data.setdefault(proc.nspace, {})
        by_rank[proc.rank] = {**by_rank.get(proc.rank, {}), **blob}

    def merge_blobs(self, blobs: Dict[PmixProc, Any]) -> None:
        """Merge one fence's collected result in a single pass: every
        entry whose value is a non-empty blob (aborted markers are not
        blobs), with the namespace level resolved once per run of
        same-namespace peers instead of once per peer.  A peer this
        store knows nothing about yet is recorded as the blob object
        itself — the callers hand it over, as fence results do."""
        nspace = by_rank = None
        for proc, blob in blobs.items():
            if not blob or not isinstance(blob, dict):
                continue
            if proc.nspace != nspace:
                nspace = proc.nspace
                by_rank = self._data.setdefault(nspace, {})
            rank = proc.rank
            by_rank[rank] = {**by_rank[rank], **blob} if rank in by_rank else blob

    def namespaces(self) -> Iterable[str]:
        return self._data.keys()

    def drop_namespace(self, nspace: str) -> None:
        self._data.pop(nspace, None)

    def size_estimate(self, nspace: Optional[str] = None) -> int:
        """Rough byte size of stored blobs (drives exchange message sizes)."""
        spaces = [nspace] if nspace else list(self._data)
        total = 0
        for ns in spaces:
            for rank_data in self._data.get(ns, {}).values():
                for key, value in rank_data.items():
                    total += len(key) + wire_size(value)
        return total

