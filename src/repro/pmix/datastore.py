"""Server-side key-value store for PMIx.

Holds job-level data (installed by the launcher when a namespace is
registered) and per-rank data committed by clients via put/commit and
propagated by fence or direct-modex requests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.pmix.types import PMIX_RANK_WILDCARD, PmixProc
from repro.pmix.wire import wire_size


class Datastore:
    """What one server knows: (nspace, rank) -> key -> value.

    Two layers hold it.  ``_collected`` are the fence results this
    server took part in — ``proc -> blob`` tables **adopted by
    reference**, so the servers of a world all hold the one table the
    exchange produced instead of a copy of its N entries each.  They are
    never written.  ``_local`` is this server's own small overlay (its
    clients' puts, direct-modex answers, job info) and is consulted
    first; a rank's ``key -> value`` blob in it is a value too: a writer
    replaces it with a new dict and never updates it in place.

    A later write wins per key, whichever layer it went to: adopting a
    table folds it into the overlay blobs that are already there (a
    handful — the local ranks), so "overlay, then tables newest first"
    is the order of writing.
    """

    def __init__(self) -> None:
        self._local: Dict[PmixProc, Dict[str, Any]] = {}
        self._collected: List[Dict[PmixProc, Any]] = []     # oldest first

    def put(self, proc: PmixProc, key: str, value: Any) -> None:
        self._local[proc] = {**self._local.get(proc, _EMPTY), key: value}

    def put_job(self, nspace: str, key: str, value: Any) -> None:
        """Store job-level data (visible via the wildcard rank)."""
        self.put(PmixProc(nspace, PMIX_RANK_WILDCARD), key, value)

    def _find(self, proc: PmixProc, key: str) -> Tuple[bool, Any]:
        blob = self._local.get(proc)
        if blob is not None and key in blob:
            return True, blob[key]
        for table in reversed(self._collected):
            blob = table.get(proc)
            if isinstance(blob, dict) and key in blob:
                return True, blob[key]
        return False, None

    def get(self, proc: PmixProc, key: str) -> Tuple[bool, Any]:
        """Return (found, value); falls back to job-level data."""
        found = self._find(proc, key)
        if not found[0] and proc.rank != PMIX_RANK_WILDCARD:
            found = self._find(PmixProc(proc.nspace, PMIX_RANK_WILDCARD), key)
        return found

    def has(self, proc: PmixProc, key: str) -> bool:
        return self.get(proc, key)[0]

    def rank_blob(self, proc: PmixProc) -> Dict[str, Any]:
        """All committed data for one rank (what fence exchanges)."""
        out: Dict[str, Any] = {}
        for table in self._collected:
            blob = table.get(proc)
            if isinstance(blob, dict):
                out.update(blob)
        out.update(self._local.get(proc, _EMPTY))
        return out

    def merge_blob(self, proc: PmixProc, blob: Dict[str, Any]) -> None:
        if blob:
            self._local[proc] = {**self._local.get(proc, _EMPTY), **blob}

    def merge_blobs(self, blobs: Dict[PmixProc, Any]) -> None:
        """Adopt one fence's collected result, ``proc -> blob`` (aborted
        markers are not blobs and are never looked at), by reference.
        An older table is let go once this one repeats every key of every
        blob in it — as a later fence over the same processes does, a
        rank's contribution being all it ever committed — so fencing in a
        loop keeps one table, not one per fence."""
        if not blobs:
            return
        self._collected = [table for table in self._collected
                           if not _shadowed(table, blobs)]
        self._collected.append(blobs)
        for proc, mine in self._local.items():
            blob = blobs.get(proc)
            if blob and isinstance(blob, dict):
                self._local[proc] = {**mine, **blob}

    def _blobs(self) -> Dict[PmixProc, Dict[str, Any]]:
        """Both layers written out as one proc -> blob dict."""
        procs = dict.fromkeys(self._local)
        for table in self._collected:
            procs.update(dict.fromkeys(table))
        blobs = ((proc, self.rank_blob(proc)) for proc in procs)
        return {proc: blob for proc, blob in blobs if blob}

    def namespaces(self) -> Iterable[str]:
        return {proc.nspace for proc in self._blobs()}

    def drop_namespace(self, nspace: str, cut: Optional[Dict[int, tuple]] = None) -> None:
        """Forget every rank of ``nspace``.  Servers hold collected tables
        in common, so they can share the work of cutting a namespace out
        of one too: ``cut`` (one dict for a whole sweep over the servers)
        remembers, per table already met, the table and what is left of
        it."""
        if cut is None:
            cut = {}
        self._local = {proc: blob for proc, blob in self._local.items()
                       if proc.nspace != nspace}
        kept = []
        for table in self._collected:
            if id(table) not in cut:
                rest = {proc: blob for proc, blob in table.items()
                        if proc.nspace != nspace}
                cut[id(table)] = (table, rest if len(rest) < len(table) else table)
            rest = cut[id(table)][1]
            if rest:
                kept.append(rest)
        self._collected = kept

    def size_estimate(self, nspace: Optional[str] = None) -> int:
        """Rough byte size of stored blobs."""
        return sum(len(key) + wire_size(value)
                   for proc, blob in self._blobs().items()
                   if not nspace or proc.nspace == nspace
                   for key, value in blob.items())


_EMPTY: Dict = {}


def _shadowed(old: Dict[PmixProc, Any], new: Dict[PmixProc, Any]) -> bool:
    """Does ``new`` hold every key of every blob of ``old``?  Then no
    lookup gets as far as ``old`` any more."""
    for proc, blob in old.items():
        if blob and isinstance(blob, dict):
            newer = new.get(proc)
            if not isinstance(newer, dict) or not blob.keys() <= newer.keys():
                return False
    return True
