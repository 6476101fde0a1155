"""Parallel sweep executor with an on-disk result cache.

Every figure/soak sweep in this repo is a list of *independent* points:
``(scenario name, parameter dict)`` pairs evaluated by a deterministic,
module-level function.  :func:`run_sweep` fans those points across
worker processes (``--jobs N`` on the CLIs) and memoizes results on disk
so a re-run of an already-computed point is a file read.

Cache key (docs/performance.md):

    sha256(scenario name, canonical-JSON params, source digest)

where the *source digest* is a content hash over every ``.py`` file
under ``src/repro`` — any change to the simulator invalidates every
cached point, so a stale cache can never masquerade as a fresh result.
The digest is content-based (not mtime-based): re-checkouts and clock
skew do not thrash the cache.  Parameters must be JSON-serializable;
two parameter dicts that differ only in key order hash identically
(canonical ``sort_keys`` dump).

Determinism contract: because every sweep point is a pure function of
its parameters (the simulator's central promise), results are identical
whether points run serially, in parallel, or arrive from the cache —
``tests/test_sweep.py`` and the ``run_recovery.py --jobs`` digest tests
hold this to byte equality.

Robustness (docs/robustness.md):

* Cache entries are **checksummed**: :meth:`SweepCache.put` writes a
  ``{"__sweep_cache__": 1, "sha256": ..., "result": ...}`` envelope and
  :meth:`SweepCache.get` verifies it.  A torn, tampered or unparseable
  file is *quarantined* (renamed to ``<key>.json.corrupt``) instead of
  being re-read — and re-failed — every run, counted in
  :attr:`SweepCache.corrupt` and as a ``sweep.cache.corrupt`` metric
  when a registry is attached.
* Each completed point is written to the cache *as it finishes*, so an
  interrupted sweep resumes by being rerun with the same ``cache=``.
  A raising point aborts the sweep; what had landed stays cached.
* A :class:`repro.chaos.ChaosPlan` can be injected into the cache
  (``SweepCache(chaos=)``) to tear or corrupt writes deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_SRC_ROOT = os.path.dirname(os.path.abspath(__file__))

#: Canonical JSON (sorted keys, compact separators): cache keys, result
#: digests, the serve wire format and trace export.  One encoder for all
#: of them, as ``json.dumps`` with these options builds a new one per call.
CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_source_digest_cache: Optional[str] = None


def source_digest() -> str:
    """Content hash of the simulator source tree (cached per process)."""
    global _source_digest_cache
    if _source_digest_cache is None:
        import hashlib

        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(_SRC_ROOT)):
            dirnames.sort()
            if "__pycache__" in dirpath:
                continue
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, _SRC_ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        _source_digest_cache = h.hexdigest()
    return _source_digest_cache


def cache_key(scenario: str, params: Dict[str, Any]) -> str:
    """Stable key for one sweep point: (scenario, params, source digest)."""
    import hashlib     # kept off the import path of a plain simulation

    blob = CANONICAL.encode(
        {"scenario": scenario, "params": params, "source": source_digest()})
    return hashlib.sha256(blob.encode()).hexdigest()


#: Envelope marker + format version for checksummed cache entries.
ENVELOPE_KEY = "__sweep_cache__"
ENVELOPE_VERSION = 1


def result_digest(result: Any) -> str:
    """sha256 over the canonical JSON of ``result``: the one digest of
    cached results, served ``sim`` runs, soak records and the identity
    corpus."""
    import hashlib

    blob = CANONICAL.encode(result)
    return hashlib.sha256(blob.encode()).hexdigest()


class SweepCache:
    """Directory of checksummed JSON result files keyed by :func:`cache_key`.

    Writes are atomic (tmp file + rename), so a parallel sweep racing on
    the same point at worst writes the identical bytes twice.  Every
    entry is a checksum envelope (``{"__sweep_cache__": 1, "sha256":
    ..., "result": ...}``); a read that fails to parse, lacks the
    envelope, or fails checksum verification is quarantined — renamed to
    ``<key>.json.corrupt`` — and counted as a miss, so a damaged entry
    fails exactly once instead of every run.

    ``metrics`` (optional) counts quarantines as ``sweep.cache.corrupt``;
    ``chaos`` is a
    :class:`repro.chaos.ChaosPlan` whose ``cache.put`` site can corrupt
    or tear writes for fault-injection tests.
    """

    def __init__(self, cache_dir: str, *, metrics: Any = None,
                 chaos: Any = None) -> None:
        self.dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.metrics = metrics
        self.chaos = chaos

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, key + ".json")

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except OSError:                       # absent/unreadable: plain miss
            self.misses += 1
            return None
        except ValueError:                    # torn or garbage bytes
            entry = None
        if (isinstance(entry, dict)
                and entry.get(ENVELOPE_KEY) == ENVELOPE_VERSION
                and "sha256" in entry and "result" in entry
                and result_digest(entry["result"]) == entry["sha256"]):
            self.hits += 1
            return entry["result"]
        self._quarantine(path)  # unparseable, no envelope, or bad checksum
        self.misses += 1
        return None

    def put(self, key: str, result: Any) -> None:
        path = self._path(key)
        data = json.dumps({ENVELOPE_KEY: ENVELOPE_VERSION,
                           "sha256": result_digest(result),
                           "result": result}, sort_keys=True)
        if self.chaos is not None:
            for act in self.chaos.on("cache.put"):
                if act.kind == "torn_write":
                    data = data[:max(1, len(data) // 2)]
                elif act.kind == "corrupt_cache":
                    mid = len(data) // 2
                    blot = "\x00chaos\x00"
                    data = data[:mid] + blot + data[mid + len(blot):]
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def _quarantine(self, path: str) -> None:
        """Move a damaged entry aside so it cannot fail again."""
        self.corrupt += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass                              # racing reader beat us to it
        if self.metrics is not None:
            self.metrics.inc("sweep.cache.corrupt")

    def report(self) -> str:
        line = f"cache: {self.hits} hit(s), {self.misses} miss(es)"
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) quarantined"
        return line + f" in {self.dir}"


@dataclass
class SweepPoint:
    """One unit of work: ``fn(**params)`` with a cache identity.

    ``fn`` must be picklable (a module-level callable) and ``params``
    JSON-serializable when a cache is in use.  ``scenario`` namespaces
    the cache so two sweeps with coincidentally equal params never
    collide.
    """

    scenario: str
    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        return cache_key(self.scenario, self.params)


def default_mp_context() -> str:
    """Warm ``fork`` where POSIX allows (it keeps the imported
    simulator); ``spawn`` is the portable fallback."""
    import multiprocessing
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _invoke(payload: Tuple[Callable[..., Any], Dict[str, Any]]) -> Any:
    fn, params = payload
    return fn(**params)


def run_sweep(points: Sequence[SweepPoint], *, jobs: int = 1,
              cache: Optional[SweepCache] = None) -> List[Any]:
    """Evaluate all points; returns results in input order.

    ``jobs <= 1`` runs serially in-process (no pickling requirements).
    With ``jobs > 1`` the uncached points are fanned across a
    ``multiprocessing`` pool; results are byte-identical to the serial
    run because every point is deterministic and order is restored by
    index.  A cache, when given, is consulted first and fed with each
    point *as it finishes* (atomic, checksummed writes): rerunning an
    interrupted sweep with the same ``cache=`` recomputes only what had
    not landed.  A point that raises aborts the sweep with its error.
    """
    results: List[Any] = [None] * len(points)
    keys: Dict[int, str] = {}
    todo: List[int] = []
    for i, pt in enumerate(points):
        if cache is not None:
            keys[i] = pt.key()
            hit = cache.get(keys[i])
            if hit is not None:
                results[i] = hit
                continue
        todo.append(i)

    def persist(i: int, result: Any) -> None:
        results[i] = result
        if cache is not None:
            cache.put(keys[i], result)

    if jobs <= 1 or len(todo) <= 1:
        for i in todo:
            persist(i, points[i].fn(**points[i].params))
        return results
    import multiprocessing      # only a pool pays for it (serial CLIs don't)
    ctx = multiprocessing.get_context(default_mp_context())
    with ctx.Pool(processes=min(jobs, len(todo))) as pool:
        done = pool.imap(_invoke, [(points[i].fn, points[i].params)
                                   for i in todo], chunksize=1)
        # imap streams in input order, so each completed point is
        # cached as soon as it lands.
        for i, result in zip(todo, done):
            persist(i, result)
    return results
