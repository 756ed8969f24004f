"""Metadata catalog of the image store — the answer to "what's in here".

:class:`~repro.store.store.ImageStore` keys blobs by content hash, which
makes storage self-deduplicating but opaque: a hash tells an operator
nothing about what it names, when it arrived or whether anyone still
wants it.  The catalog is the queryable side-table fixing that.  One
:class:`CatalogEntry` is recorded per stored stream at ``put`` time —
geometry (width, height, planes, bit depth), coding parameters (engine,
container version, stripes, inter-plane predictor), encoded and decoded
byte sizes, ingest timestamp and free-form user tags — and is the unit
of three lifecycle features:

* **queries** — :meth:`Catalog.query` filters entries (by tag, plane
  count, engine, container version, byte-size and age bounds) and
  paginates with ``limit``/``offset``; paging past the end returns an
  empty page, never an error.
* **soft delete** — :meth:`Catalog.mark_deleted` stamps a *tombstone*
  (``deleted_at`` + an absolute ``purge_after`` horizon derived from the
  TTL) instead of dropping the row.  Tombstoned entries stay readable
  through ``include_deleted=True`` until the GC sweep
  (:mod:`repro.store.gc`) purges them past their horizon, and
  :meth:`Catalog.restore` (or re-``put`` of the same bytes) clears the
  tombstone.
* **recompaction bookkeeping** — :meth:`Catalog.update` records the new
  encoded size, coding parameters and ``compacted_at`` stamp after
  :mod:`repro.store.compactor` swaps a re-encoded blob in.

Three implementations share the exact same semantics (the filter and
pagination logic is one code path over :meth:`Catalog.entries`):

``SQLiteCatalog``
    A ``catalog`` table in the *same* SQLite file as
    :class:`~repro.store.backends.SQLiteBackend` — catalog and blobs
    travel as one file.  Its own connection + lock, safe to drive from
    the serve tier's worker threads.

``JournalCatalog``
    An append-only JSONL journal (``catalog.jsonl``) next to a
    :class:`~repro.store.backends.FilesystemBackend` root.  Every
    mutation appends one event line and the state is replayed at open;
    the journal is rewritten as a snapshot when it grows past
    ``rewrite_factor`` lines per live entry, so a long-lived store's
    journal stays proportional to its catalog.  Several processes may
    share one journal (the worker processes of one shard do): appends,
    rewrites and replays take turns under a lock file, and a rewrite
    snapshots the journal on disk, not its own process's view.

``MemoryCatalog``
    Dict-backed, non-persistent — the fallback for custom/wrapped
    backends and the base class of the journal implementation.

Thread-safety invariant: every public method of every implementation is
safe to call from multiple threads; mutations are serialised by an
internal lock and :meth:`Catalog.entries` returns an immutable snapshot.
Reads never wait on persistence: the map has its own lock, which is
never held across a journal fsync or a SQLite commit.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: one process per journal
    fcntl = None  # type: ignore[assignment]

from repro.exceptions import BlobNotFoundError, StoreError

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "CatalogEntry",
    "CatalogFilter",
    "Catalog",
    "MemoryCatalog",
    "JournalCatalog",
    "SQLiteCatalog",
    "open_catalog",
]

#: Default tombstone time-to-live: soft-deleted entries become eligible
#: for the GC sweep this many seconds after deletion (7 days).
DEFAULT_TTL_SECONDS = 7 * 24 * 3600.0


@dataclass(frozen=True)
class CatalogEntry:
    """Everything the catalog knows about one stored stream.

    Immutable; lifecycle transitions produce new instances via
    :func:`dataclasses.replace` so a snapshot handed to one thread can
    never change under it.
    """

    key: str
    width: int
    height: int
    planes: int
    bit_depth: int
    version: int
    stripes: int
    plane_delta: bool
    engine: str
    encoded_bytes: int
    decoded_bytes: int
    created_at: float
    tags: Tuple[Tuple[str, str], ...] = ()
    #: Tombstone stamp; ``None`` while the entry is live.
    deleted_at: Optional[float] = None
    #: Absolute time the tombstone expires (``deleted_at`` + TTL).
    purge_after: Optional[float] = None
    #: Stamp of the most recent recompaction swap, if any.
    compacted_at: Optional[float] = None

    @property
    def deleted(self) -> bool:
        """Whether the entry carries a tombstone."""
        return self.deleted_at is not None

    def expired(self, now: float) -> bool:
        """Whether the tombstone's TTL has lapsed (always False when live)."""
        return self.purge_after is not None and now >= self.purge_after

    @property
    def tag_dict(self) -> Dict[str, str]:
        return dict(self.tags)

    @property
    def compression_ratio(self) -> float:
        if self.encoded_bytes <= 0:
            return 0.0
        return self.decoded_bytes / self.encoded_bytes

    def as_json(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "width": self.width,
            "height": self.height,
            "planes": self.planes,
            "bit_depth": self.bit_depth,
            "version": self.version,
            "stripes": self.stripes,
            "plane_delta": self.plane_delta,
            "engine": self.engine,
            "encoded_bytes": self.encoded_bytes,
            "decoded_bytes": self.decoded_bytes,
            "created_at": self.created_at,
            "tags": self.tag_dict,
            "deleted_at": self.deleted_at,
            "purge_after": self.purge_after,
            "compacted_at": self.compacted_at,
        }

    @classmethod
    def from_json(cls, document: Dict[str, object]) -> "CatalogEntry":
        tags = document.get("tags") or {}
        if not isinstance(tags, dict):
            raise StoreError("catalog entry tags must be an object, got %r" % (tags,))
        return cls(
            key=str(document["key"]),
            width=int(document["width"]),  # type: ignore[arg-type]
            height=int(document["height"]),  # type: ignore[arg-type]
            planes=int(document["planes"]),  # type: ignore[arg-type]
            bit_depth=int(document["bit_depth"]),  # type: ignore[arg-type]
            version=int(document["version"]),  # type: ignore[arg-type]
            stripes=int(document["stripes"]),  # type: ignore[arg-type]
            plane_delta=bool(document["plane_delta"]),
            engine=str(document["engine"]),
            encoded_bytes=int(document["encoded_bytes"]),  # type: ignore[arg-type]
            decoded_bytes=int(document["decoded_bytes"]),  # type: ignore[arg-type]
            created_at=float(document["created_at"]),  # type: ignore[arg-type]
            tags=tuple(sorted((str(k), str(v)) for k, v in tags.items())),
            deleted_at=_opt_float(document.get("deleted_at")),
            purge_after=_opt_float(document.get("purge_after")),
            compacted_at=_opt_float(document.get("compacted_at")),
        )


def _opt_float(value: object) -> Optional[float]:
    return None if value is None else float(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CatalogFilter:
    """Declarative filter of catalog queries.

    Every field is optional; unset fields do not constrain the result.
    Tombstoned entries are hidden unless ``include_deleted`` is set;
    ``deleted_only`` restricts to tombstoned entries (and implies
    including them) — the shape the GC sweep queries with.
    """

    planes: Optional[int] = None
    engine: Optional[str] = None
    version: Optional[int] = None
    bit_depth: Optional[int] = None
    #: Tag constraints: a ``(key, None)`` pair requires the tag to exist,
    #: a ``(key, value)`` pair requires an exact value match.
    tags: Tuple[Tuple[str, Optional[str]], ...] = ()
    min_encoded_bytes: Optional[int] = None
    max_encoded_bytes: Optional[int] = None
    created_before: Optional[float] = None
    created_after: Optional[float] = None
    include_deleted: bool = False
    deleted_only: bool = False

    def matches(self, entry: CatalogEntry) -> bool:
        if entry.deleted:
            if not (self.include_deleted or self.deleted_only):
                return False
        elif self.deleted_only:
            return False
        if self.planes is not None and entry.planes != self.planes:
            return False
        if self.engine is not None and entry.engine != self.engine:
            return False
        if self.version is not None and entry.version != self.version:
            return False
        if self.bit_depth is not None and entry.bit_depth != self.bit_depth:
            return False
        if self.min_encoded_bytes is not None and entry.encoded_bytes < self.min_encoded_bytes:
            return False
        if self.max_encoded_bytes is not None and entry.encoded_bytes > self.max_encoded_bytes:
            return False
        if self.created_before is not None and entry.created_at >= self.created_before:
            return False
        if self.created_after is not None and entry.created_at < self.created_after:
            return False
        if self.tags:
            tag_dict = entry.tag_dict
            for name, value in self.tags:
                if name not in tag_dict:
                    return False
                if value is not None and tag_dict[name] != value:
                    return False
        return True

    @classmethod
    def parse_tag(cls, text: str) -> Tuple[str, Optional[str]]:
        """Parse a ``KEY`` or ``KEY=VALUE`` tag constraint."""
        name, separator, value = text.partition("=")
        if not name:
            raise StoreError("tag filter must be KEY or KEY=VALUE, got %r" % text)
        return name, value if separator else None


class Catalog:
    """Base class: shared query/lifecycle semantics over a keyed entry map.

    Subclasses provide persistence by overriding the ``_persist_*``
    hooks; all state transitions, validation and the single filter +
    pagination code path live here so the three implementations cannot
    drift apart.  Every public method is thread-safe.
    """

    def __init__(self) -> None:
        # Two locks, always taken in this order: ``_persist_lock`` makes
        # each mutation and its persistence one step, so the journal (or
        # table) sees mutations in the order they happened; ``_lock``
        # guards only the map and is never held across disk I/O, so
        # readers (every store read checks for a tombstone) never wait on
        # a writer's fsync.
        self._persist_lock = threading.Lock()
        self._lock = threading.Lock()
        self._entries: Dict[str, CatalogEntry] = {}

    # -- persistence hooks (called with ``_persist_lock`` held) ----------- #

    def _persist_put(self, entry: CatalogEntry) -> None:
        """Record an upsert (put, tombstone, restore, compaction update)."""

    def _persist_purge(self, key: str) -> None:
        """Record a hard removal."""

    # -- lifecycle ------------------------------------------------------- #

    def record_put(self, entry: CatalogEntry) -> CatalogEntry:
        """Upsert the entry for a stored stream.

        Re-putting a tombstoned key revives it: content addressing means
        the same bytes always deserve the same live entry, so an ingest
        wins over a pending deletion.  Tags of an existing live entry are
        merged (new values win) rather than dropped.
        """
        with self._persist_lock:
            prior = self.get(entry.key)
            if prior is not None:
                merged = dict(prior.tags)
                merged.update(entry.tag_dict)
                entry = replace(
                    entry,
                    created_at=prior.created_at,
                    tags=tuple(sorted(merged.items())),
                    compacted_at=prior.compacted_at,
                    deleted_at=None,
                    purge_after=None,
                )
            return self._install(entry)

    def get(self, key: str) -> Optional[CatalogEntry]:
        with self._lock:
            return self._entries.get(key)

    def mark_deleted(
        self, key: str, deleted_at: float, ttl_seconds: float = DEFAULT_TTL_SECONDS
    ) -> CatalogEntry:
        """Stamp a tombstone; the entry stays until the TTL lapses + GC runs."""
        if ttl_seconds < 0:
            raise StoreError("tombstone TTL must be >= 0 seconds, got %r" % ttl_seconds)
        with self._persist_lock:
            entry = replace(
                self._require(key),
                deleted_at=deleted_at,
                purge_after=deleted_at + ttl_seconds,
            )
            return self._install(entry)

    def restore(self, key: str) -> CatalogEntry:
        """Clear a tombstone, making the entry fully live again."""
        with self._persist_lock:
            entry = replace(self._require(key), deleted_at=None, purge_after=None)
            return self._install(entry)

    def update(self, key: str, **fields: object) -> CatalogEntry:
        """Replace entry fields (the recompaction bookkeeping path)."""
        with self._persist_lock:
            entry = replace(self._require(key), **fields)  # type: ignore[arg-type]
            return self._install(entry)

    def purge(self, key: str) -> None:
        """Hard-remove an entry (the GC endpoint; unknown keys are a no-op)."""
        with self._persist_lock:
            with self._lock:
                removed = self._entries.pop(key, None)
            if removed is not None:
                self._persist_purge(key)

    def _install(self, entry: CatalogEntry) -> CatalogEntry:
        """Publish an upsert, then persist it (``_persist_lock`` held)."""
        with self._lock:
            self._entries[entry.key] = entry
        self._persist_put(entry)
        return entry

    def _require(self, key: str) -> CatalogEntry:
        entry = self.get(key)
        if entry is None:
            raise BlobNotFoundError("no catalog entry for key %r" % key)
        return entry

    # -- queries --------------------------------------------------------- #

    def entries(self) -> List[CatalogEntry]:
        """Snapshot of every entry (tombstones included), newest first."""
        with self._lock:
            listed = list(self._entries.values())
        listed.sort(key=lambda entry: (-entry.created_at, entry.key))
        return listed

    def query(
        self,
        filter: Optional[CatalogFilter] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Tuple[List[CatalogEntry], int]:
        """Filtered, paginated listing.

        Returns ``(page, total)`` where ``total`` counts every match
        before pagination — what a UI needs to render page controls.
        Offsets past the end yield an empty page, never an error.
        """
        if limit is not None and limit < 0:
            raise StoreError("catalog query limit must be >= 0, got %d" % limit)
        if offset < 0:
            raise StoreError("catalog query offset must be >= 0, got %d" % offset)
        active = filter if filter is not None else CatalogFilter()
        matched = [entry for entry in self.entries() if active.matches(entry)]
        total = len(matched)
        page = matched[offset:] if limit is None else matched[offset : offset + limit]
        return page, total

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Entry counts and byte totals for ``stats`` surfaces."""
        with self._lock:
            listed = list(self._entries.values())
        live = [entry for entry in listed if not entry.deleted]
        dead = [entry for entry in listed if entry.deleted]
        return {
            "entries": len(listed),
            "live": len(live),
            "deleted": len(dead),
            "live_bytes": sum(entry.encoded_bytes for entry in live),
            "deleted_bytes": sum(entry.encoded_bytes for entry in dead),
        }

    def close(self) -> None:
        """Release persistence resources (default: nothing to release)."""


class MemoryCatalog(Catalog):
    """Non-persistent catalog — custom/wrapped backends, tests, scratch."""


@contextmanager
def _journal_lock(path: Path, exclusive: bool) -> Iterator[None]:
    """Hold the lock file of journal ``path``, shared or exclusive.

    The lock lives in its own file (``catalog.jsonl.lock``), which the
    rewrite's ``os.replace`` never swaps: a writer that waited out a
    rewrite opens the new journal, not the unlinked old one.
    """
    with open(str(path) + ".lock", "a") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield


class JournalCatalog(Catalog):
    """Append-only JSONL journal next to a filesystem backend root.

    Every mutation appends one ``{"op": ..., ...}`` line (flushed +
    fsynced so a crash loses at most the in-flight line); opening the
    catalog replays the journal.  When the journal grows past
    ``rewrite_factor`` lines per live entry (plus a fixed floor) it is
    rewritten in place as a snapshot through the same atomic
    write-then-rename pattern the blob backend uses.  The snapshot is
    replayed from the journal itself, under the lock every appender
    takes, so lines another process appended (entries and tombstones
    this view never saw) survive it.
    """

    _REWRITE_FLOOR = 256

    def __init__(self, path: Union[str, Path], rewrite_factor: int = 4) -> None:
        super().__init__()
        if rewrite_factor < 1:
            raise StoreError("journal rewrite factor must be >= 1, got %d" % rewrite_factor)
        self.path = Path(path)
        self.rewrite_factor = rewrite_factor
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _journal_lock(self.path, exclusive=False):
            self._entries, self._journal_lines = self._read_journal()
        #: Entries of the journal on disk at the last replay or rewrite.
        self._disk_entries = len(self._entries)

    def _read_journal(self) -> Tuple[Dict[str, CatalogEntry], int]:
        """The entry map the journal on disk replays to, and its line count."""
        entries: Dict[str, CatalogEntry] = {}
        lines = 0
        if not self.path.exists():
            return entries, lines
        with open(self.path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                    op = event["op"]
                    if op == "put":
                        entry = CatalogEntry.from_json(event["entry"])
                        entries[entry.key] = entry
                    elif op == "purge":
                        entries.pop(str(event["key"]), None)
                    else:
                        raise StoreError("unknown journal op %r" % (op,))
                except (KeyError, TypeError, ValueError, StoreError) as error:
                    raise StoreError(
                        "corrupt catalog journal %s at line %d: %s"
                        % (self.path, line_number, error)
                    ) from None
                lines += 1
        return entries, lines

    def _append(self, event: Dict[str, object]) -> None:
        with _journal_lock(self.path, exclusive=True):
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._journal_lines += 1
            live = max(len(self._entries), self._disk_entries, 1)
            if self._journal_lines > self._REWRITE_FLOOR + self.rewrite_factor * live:
                self._rewrite()

    def _rewrite(self) -> None:
        """Snapshot the journal over itself (atomic rename; lock held)."""
        entries, _ = self._read_journal()
        tmp = self.path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in entries.values():
                handle.write(
                    json.dumps({"op": "put", "entry": entry.as_json()}, sort_keys=True)
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._journal_lines = self._disk_entries = len(entries)

    def _persist_put(self, entry: CatalogEntry) -> None:
        self._append({"op": "put", "entry": entry.as_json()})

    def _persist_purge(self, key: str) -> None:
        self._append({"op": "purge", "key": key})


class SQLiteCatalog(Catalog):
    """Catalog table living in the blob backend's own SQLite file.

    The whole table is loaded into the in-memory map at open (a catalog
    row is ~200 bytes; 100k entries are nothing) and every mutation is
    written through synchronously, so queries never touch the database
    and the shared-dict semantics match the other implementations
    exactly.  The connection is private to the catalog — the blob
    backend's connection and lock are not involved.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
            with self._persist_lock:
                self._connection.execute(
                    "CREATE TABLE IF NOT EXISTS catalog ("
                    "key TEXT PRIMARY KEY, entry TEXT NOT NULL)"
                )
                self._connection.commit()
                rows = self._connection.execute("SELECT entry FROM catalog").fetchall()
        except sqlite3.Error as error:
            raise StoreError(
                "cannot open catalog table in %s: %s" % (self.path, error)
            ) from None
        for (document,) in rows:
            try:
                entry = CatalogEntry.from_json(json.loads(document))
            except (TypeError, ValueError, KeyError) as error:
                raise StoreError(
                    "corrupt catalog row in %s: %s" % (self.path, error)
                ) from None
            self._entries[entry.key] = entry

    def _persist_put(self, entry: CatalogEntry) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO catalog (key, entry) VALUES (?, ?)",
            (entry.key, json.dumps(entry.as_json(), sort_keys=True)),
        )
        self._connection.commit()

    def _persist_purge(self, key: str) -> None:
        self._connection.execute("DELETE FROM catalog WHERE key = ?", (key,))
        self._connection.commit()

    def close(self) -> None:
        with self._persist_lock:
            self._connection.close()


def open_catalog(backend: object) -> Catalog:
    """The catalog a blob backend implies.

    Filesystem backends get a JSONL journal under their root, SQLite
    backends a table in the same database file; anything else (custom
    backends, chaos wrappers around an already-open store) falls back to
    a non-persistent :class:`MemoryCatalog`.
    """
    from repro.store.backends import FilesystemBackend, SQLiteBackend

    if isinstance(backend, FilesystemBackend):
        return JournalCatalog(backend.root / "catalog.jsonl")
    if isinstance(backend, SQLiteBackend):
        return SQLiteCatalog(backend.path)
    return MemoryCatalog()
