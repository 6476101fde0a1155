"""Persistent run ledger: an append-only sqlite store of every run.

The ROADMAP's campaign-manager item calls for "a persistent results
database (sqlite) that indexes every run by spec digest, scenario,
seed, and metrics"; :class:`RunLedger` is that substrate.  Its one
producer is :class:`repro.serve.server.SimServer`: one row per
completed request (``kind="serve"``), carrying the request's cache-key
digest, wall-clock latency, cache status, trace id and sim-trace
pointer.  ``kind`` stays a column, so older ``kind="sweep"`` rows
still read back.

``python -m repro obs --runs LEDGER`` queries it (filter by scenario /
digest / time window, per-scenario trend summary).  The schema is
append-only: rows are never updated, so the ledger is a faithful
history, and every perf claim is traceable to a recorded run (the
Hunold & Carpen-Amarie measurement discipline).

The connection is opened lazily and guarded by a lock so one ledger
can be written from the serve loop thread and read from the CLI.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # the first connection imports it, not a plain simulation
    import sqlite3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    ts         REAL    NOT NULL,
    kind       TEXT    NOT NULL,
    scenario   TEXT    NOT NULL,
    digest     TEXT    NOT NULL DEFAULT '',
    seed       INTEGER,
    status     TEXT    NOT NULL DEFAULT 'ok',
    wall_s     REAL,
    cached     INTEGER NOT NULL DEFAULT 0,
    trace      TEXT    NOT NULL DEFAULT '',
    trace_path TEXT    NOT NULL DEFAULT '',
    detail     TEXT    NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_scenario ON runs (scenario);
CREATE INDEX IF NOT EXISTS runs_digest   ON runs (digest);
CREATE INDEX IF NOT EXISTS runs_ts       ON runs (ts);
"""

_COLUMNS = ("id", "ts", "kind", "scenario", "digest", "seed", "status",
            "wall_s", "cached", "trace", "trace_path", "detail")


class RunLedger:
    """Append-only sqlite store of serve/sweep runs."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            import sqlite3

            # check_same_thread=False + our own lock: the serve loop
            # thread records while the owning thread closes/queries.
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        return self._conn

    # -- writing -------------------------------------------------------------
    def record(self, *, kind: str, scenario: str, digest: str = "",
               seed: Optional[int] = None, status: str = "ok",
               wall_s: Optional[float] = None, cached: bool = False,
               trace: str = "", trace_path: str = "",
               detail: Optional[Dict[str, Any]] = None,
               ts: Optional[float] = None) -> int:
        """Append one run row; returns its ledger id."""
        blob = json.dumps(detail or {}, sort_keys=True,
                          separators=(",", ":"), default=str)
        with self._lock:
            conn = self._connect()
            cur = conn.execute(
                "INSERT INTO runs (ts, kind, scenario, digest, seed, status,"
                " wall_s, cached, trace, trace_path, detail)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (time.time() if ts is None else ts, kind, scenario, digest,
                 seed, status, wall_s, int(bool(cached)), trace, trace_path,
                 blob))
            conn.commit()
            return int(cur.lastrowid)

    # -- querying ------------------------------------------------------------
    def query(self, *, kind: Optional[str] = None,
              scenario: Optional[str] = None, digest: Optional[str] = None,
              since: Optional[float] = None,
              limit: int = 100) -> List[Dict[str, Any]]:
        """Rows newest-last (insertion order), optionally filtered.

        ``digest`` matches a prefix, so the 12-char digests printed by
        the CLI are directly usable as filters.
        """
        where, params = [], []
        if kind is not None:
            where.append("kind = ?")
            params.append(kind)
        if scenario is not None:
            where.append("scenario = ?")
            params.append(scenario)
        if digest is not None:
            where.append("digest LIKE ?")
            params.append(digest + "%")
        if since is not None:
            where.append("ts >= ?")
            params.append(since)
        sql = "SELECT " + ", ".join(_COLUMNS) + " FROM runs"
        if where:
            sql += " WHERE " + " AND ".join(where)
        # LIMIT keeps the *newest* rows but we return them oldest-first.
        sql += f" ORDER BY id DESC LIMIT {int(limit)}"
        with self._lock:
            rows = self._connect().execute(sql, params).fetchall()
        out = []
        for row in reversed(rows):
            rec = dict(zip(_COLUMNS, row))
            rec["cached"] = bool(rec["cached"])
            try:
                rec["detail"] = json.loads(rec["detail"])
            except ValueError:
                rec["detail"] = {}
            out.append(rec)
        return out

    def trend(self, *, kind: Optional[str] = None,
              scenario: Optional[str] = None,
              since: Optional[float] = None) -> List[Dict[str, Any]]:
        """Per-scenario aggregate: run counts, ok-rate, wall-clock mean
        and bounds, cache-hit count, first/last timestamps."""
        where, params = [], []
        if kind is not None:
            where.append("kind = ?")
            params.append(kind)
        if scenario is not None:
            where.append("scenario = ?")
            params.append(scenario)
        if since is not None:
            where.append("ts >= ?")
            params.append(since)
        sql = ("SELECT kind, scenario, COUNT(*),"
               " SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END),"
               " SUM(cached), AVG(wall_s), MIN(wall_s), MAX(wall_s),"
               " MIN(ts), MAX(ts) FROM runs")
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " GROUP BY kind, scenario ORDER BY kind, scenario"
        with self._lock:
            rows = self._connect().execute(sql, params).fetchall()
        return [
            {"kind": k, "scenario": s, "runs": n, "ok": ok or 0,
             "cached": cached or 0, "wall_mean_s": mean,
             "wall_min_s": lo, "wall_max_s": hi,
             "first_ts": t0, "last_ts": t1}
            for k, s, n, ok, cached, mean, lo, hi, t0, t1 in rows
        ]

    def count(self) -> int:
        with self._lock:
            return int(self._connect().execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0])

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
