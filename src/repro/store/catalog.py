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
    rewrites and replays take turns under a lock file, a rewrite
    snapshots the journal on disk, not its own process's view, and
    :meth:`Catalog.refresh` applies the lines other processes appended.

``MemoryCatalog``
    Dict-backed, non-persistent — the fallback for custom/wrapped
    backends and the base class of the journal implementation.

Thread-safety invariant: every public method of every implementation is
safe to call from multiple threads; mutations are serialised by an
internal lock and :meth:`Catalog.entries` returns an immutable snapshot.
Reads never wait on persistence: the map has its own lock, which is
never held across a journal fsync or a SQLite commit.

Each open catalog is one process's *view* of its persistence.  Processes
sharing a journal or a SQLite file see each other's writes only after
:meth:`Catalog.refresh`, which the store runs where a stale view would
answer wrongly: a blocking read that finds a tombstone, and ``stats``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

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

    def refresh(self, key: Optional[str] = None) -> None:
        """Apply what other processes wrote to the shared persistence.

        At least ``key``'s entry, or every entry when ``key`` is ``None``,
        afterwards matches the persistence.  The base catalog has no
        persistence to share, so this is a no-op.
        """

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
    write-then-rename pattern the blob backend uses.

    The view keeps the journal it last read open and remembers how far
    it read.  :meth:`refresh` applies the lines appended since, or
    replays the whole journal when another process's rewrite replaced
    the file; the open handle keeps the replaced file's inode in use, so
    a new journal can never pass for the old one.  A rewrite first
    brings the view up to date the same way, under the lock every
    appender takes, so lines another process appended (entries and
    tombstones this view never saw) survive it.
    """

    _REWRITE_FLOOR = 256

    def __init__(self, path: Union[str, Path], rewrite_factor: int = 4) -> None:
        super().__init__()
        if rewrite_factor < 1:
            raise StoreError("journal rewrite factor must be >= 1, got %d" % rewrite_factor)
        self.path = Path(path)
        self.rewrite_factor = rewrite_factor
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: The journal file this view last read, the bytes of it applied
        #: and the lines in those bytes.
        self._handle: Optional[BinaryIO] = None
        self._offset = self._offset_lines = 0
        self._journal_lines = 0
        #: Entries of the journal on disk at the last replay or rewrite.
        self._disk_entries = 0
        with _journal_lock(self.path, exclusive=False):
            self._catch_up()

    def refresh(self, key: Optional[str] = None) -> None:
        with self._persist_lock, _journal_lock(self.path, exclusive=False):
            self._catch_up()

    def _catch_up(self) -> None:
        """Apply the journal's unread lines to the view (journal lock held).

        Callers other than ``__init__`` also hold ``_persist_lock``, so no
        mutation of this view is between its install and its append.
        """
        try:
            on_disk = os.stat(self.path)
        except FileNotFoundError:
            return
        handle = self._handle
        if handle is not None and os.path.samestat(os.fstat(handle.fileno()), on_disk):
            replay, offset, number = False, self._offset, self._offset_lines
        else:  # first read, or a sibling's rewrite replaced the journal
            handle, replay, offset, number = open(self.path, "rb"), True, 0, 0
        try:
            handle.seek(offset)
            tail = handle.read()
            # Appenders hold the lock exclusively, so only a crash
            # mid-append leaves a partial last line; it stays unread.
            tail = tail[: tail.rfind(b"\n") + 1]
            updates: Dict[str, Optional[CatalogEntry]] = {}
            for line in tail.splitlines(keepends=True):
                number += 1
                if line.strip():
                    key, entry = self._parse_event(line, number)
                    updates[key] = entry
                offset += len(line)
        except BaseException:
            if replay:
                handle.close()
            raise
        if replay and self._handle is not None:
            self._handle.close()
        self._handle, self._offset, self._offset_lines = handle, offset, number
        with self._lock:
            entries = {} if replay else self._entries
            for key, entry in updates.items():
                if entry is None:
                    entries.pop(key, None)
                else:
                    entries[key] = entry
            self._entries = entries
        if replay:
            self._journal_lines, self._disk_entries = number, len(entries)

    def _parse_event(self, line: bytes, number: int) -> Tuple[str, Optional[CatalogEntry]]:
        """Journal line ``number`` as ``(key, entry)``; ``entry`` is ``None`` for a purge."""
        try:
            event = json.loads(line)
            op = event["op"]
            if op == "put":
                entry = CatalogEntry.from_json(event["entry"])
                return entry.key, entry
            if op == "purge":
                return str(event["key"]), None
            raise StoreError("unknown journal op %r" % (op,))
        except (KeyError, TypeError, ValueError, StoreError) as error:
            raise StoreError(
                "corrupt catalog journal %s at line %d: %s" % (self.path, number, error)
            ) from None

    def _append(self, event: Dict[str, object]) -> None:
        line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
        with _journal_lock(self.path, exclusive=True):
            with open(self.path, "ab") as handle:
                start = handle.tell()
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
                current = self._handle
                if (
                    current is not None
                    and start == self._offset
                    and os.path.samestat(os.fstat(handle.fileno()), os.fstat(current.fileno()))
                ):
                    # Nothing was appended since this view last read: its
                    # own line needs no re-reading.
                    self._offset += len(line)
                    self._offset_lines += 1
            self._journal_lines += 1
            live = max(len(self._entries), self._disk_entries, 1)
            if self._journal_lines > self._REWRITE_FLOOR + self.rewrite_factor * live:
                self._rewrite()

    def _rewrite(self) -> None:
        """Snapshot the journal over itself (atomic rename; both locks held)."""
        self._catch_up()
        with self._lock:
            entries = list(self._entries.values())
        tmp = self.path.with_suffix(".jsonl.tmp")
        handle = open(tmp, "w+b")
        try:
            for entry in entries:
                event = {"op": "put", "entry": entry.as_json()}
                handle.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            handle.close()
            raise
        # The snapshot is the view's journal from here on, read to its end.
        if self._handle is not None:
            self._handle.close()
        self._handle, self._offset = handle, handle.tell()
        self._offset_lines = self._journal_lines = self._disk_entries = len(entries)

    def _persist_put(self, entry: CatalogEntry) -> None:
        self._append({"op": "put", "entry": entry.as_json()})

    def _persist_purge(self, key: str) -> None:
        self._append({"op": "purge", "key": key})

    def close(self) -> None:
        with self._persist_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class SQLiteCatalog(Catalog):
    """Catalog table living in the blob backend's own SQLite file.

    The whole table is loaded into the in-memory map at open (a catalog
    row is ~200 bytes; 100k entries are nothing) and every mutation is
    written through synchronously, so queries never touch the database
    and the shared-dict semantics match the other implementations
    exactly.  :meth:`refresh` re-reads one key's row, or the whole
    table.  The connection is private to the catalog — the blob
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
        except sqlite3.Error as error:
            raise StoreError(
                "cannot open catalog table in %s: %s" % (self.path, error)
            ) from None
        self.refresh()

    def refresh(self, key: Optional[str] = None) -> None:
        with self._persist_lock:
            try:
                if key is None:
                    rows = self._connection.execute("SELECT entry FROM catalog").fetchall()
                else:
                    rows = self._connection.execute(
                        "SELECT entry FROM catalog WHERE key = ?", (key,)
                    ).fetchall()
            except sqlite3.Error as error:
                raise StoreError(
                    "cannot read catalog table in %s: %s" % (self.path, error)
                ) from None
            entries = {}
            for (document,) in rows:
                try:
                    entry = CatalogEntry.from_json(json.loads(document))
                except (TypeError, ValueError, KeyError) as error:
                    raise StoreError(
                        "corrupt catalog row in %s: %s" % (self.path, error)
                    ) from None
                entries[entry.key] = entry
            with self._lock:
                if key is None:
                    self._entries = entries
                elif key in entries:
                    self._entries[key] = entries[key]
                else:
                    self._entries.pop(key, None)

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
