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

Two implementations share the exact same semantics (the filter and
pagination logic is one code path over :meth:`Catalog.entries`):

``SQLiteCatalog``
    A ``catalog`` table: in the *same* SQLite file as
    :class:`~repro.store.backends.SQLiteBackend`, so catalog and blobs
    travel as one file, and in ``catalog.sqlite`` at the root of a
    :class:`~repro.store.backends.FilesystemBackend`.  Every mutation is
    one committed upsert or delete, which SQLite makes atomic and (at its
    default ``synchronous=FULL``) durable, and which several processes
    may share: the worker processes of one shard do.  Its own connection
    + lock, safe to drive from the serve tier's worker threads.

``MemoryCatalog``
    Dict-backed, non-persistent — the fallback for custom/wrapped
    backends.

A filesystem root that an earlier version left with a JSONL journal
(``catalog.jsonl``) instead of the table is imported once when its
catalog opens: the journal's replayed state is written to the table, and
the journal renamed to ``catalog.jsonl.imported``.

Thread-safety invariant: every public method of every implementation is
safe to call from multiple threads; mutations are serialised by an
internal lock and :meth:`Catalog.entries` returns an immutable snapshot.
Reads never wait on persistence: the map has its own lock, which is
never held across a SQLite commit.

Each open catalog is one process's *view* of its table.  Processes
sharing a SQLite file see each other's writes only after
:meth:`Catalog.refresh`, which the store runs where a stale view would
answer wrongly: a blocking read that finds a tombstone, and ``stats``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import BlobNotFoundError, StoreError

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "CatalogEntry",
    "CatalogFilter",
    "Catalog",
    "MemoryCatalog",
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
    pagination code path live here so the implementations cannot drift
    apart.  Every public method is thread-safe.
    """

    def __init__(self) -> None:
        # Two locks, always taken in this order: ``_persist_lock`` makes
        # each mutation and its persistence one step, so the table sees
        # mutations in the order they happened; ``_lock`` guards only the
        # map and is never held across disk I/O, so readers (every store
        # read checks for a tombstone) never wait on a writer's commit.
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


_CREATE_TABLE = "CREATE TABLE IF NOT EXISTS catalog (key TEXT PRIMARY KEY, entry TEXT NOT NULL)"
_UPSERT = "INSERT OR REPLACE INTO catalog (key, entry) VALUES (?, ?)"

#: ``PRAGMA user_version`` of a catalog table an earlier version's journal
#: was imported into; a fresh table has SQLite's default, 0.
_JOURNAL_IMPORTED = 1


def _row(entry: CatalogEntry) -> Tuple[str, str]:
    return entry.key, json.dumps(entry.as_json(), sort_keys=True)


def _replay_journal(path: Path) -> Dict[str, CatalogEntry]:
    """The entries an earlier version's JSONL catalog journal replays to.

    Each line is a ``{"op": "put", "entry": {...}}`` upsert or a
    ``{"op": "purge", "key": ...}`` removal, applied in order.  A last
    line without its newline is what a crash mid-append leaves, so it is
    skipped; any other line that does not parse raises
    :class:`StoreError` naming its number.
    """
    data = path.read_bytes()
    entries: Dict[str, CatalogEntry] = {}
    for number, line in enumerate(data[: data.rfind(b"\n") + 1].splitlines(), 1):
        if not line.strip():
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
                "corrupt catalog journal %s at line %d: %s" % (path, number, error)
            ) from None
    return entries


class SQLiteCatalog(Catalog):
    """Catalog table in a SQLite file, shared by every process opening it.

    The whole table is loaded into the in-memory map at open (a catalog
    row is ~200 bytes; 100k entries are nothing) and every mutation is
    written through synchronously, one commit each, so queries never
    touch the database and the shared-dict semantics match
    :class:`MemoryCatalog` exactly.  :meth:`refresh` re-reads one key's
    row, or the whole table.  The connection is private to the catalog —
    a SQLite blob backend's connection and lock are not involved.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
            with self._persist_lock:
                self._connection.execute(_CREATE_TABLE)
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
        self._connection.execute(_UPSERT, _row(entry))
        self._connection.commit()

    def _persist_purge(self, key: str) -> None:
        self._connection.execute("DELETE FROM catalog WHERE key = ?", (key,))
        self._connection.commit()

    def close(self) -> None:
        with self._persist_lock:
            self._connection.close()


def _import_journal(database: Path, journal: Path) -> None:
    """Write an earlier version's catalog ``journal`` into ``database``, once.

    The rows and ``PRAGMA user_version`` commit in one ``BEGIN
    IMMEDIATE`` transaction that first re-checks the version, so of
    several processes opening one root at once exactly one imports, and
    a later open never imports again, even when the journal was not
    renamed: by then the table's rows may have changed.  After the commit
    the journal is renamed to ``<journal>.imported``.  Runs before the
    table is loaded, so a process that finds the journal already gone
    loads the rows the importing process committed before renaming it.
    """
    try:
        rows = [_row(entry) for entry in _replay_journal(journal).values()]
    except FileNotFoundError:  # no journal, or a sibling process imported it
        return
    try:
        # Closing rolls back a transaction an error left uncommitted.
        with closing(sqlite3.connect(str(database))) as connection:
            connection.execute(_CREATE_TABLE)
            connection.execute("BEGIN IMMEDIATE")
            (version,) = connection.execute("PRAGMA user_version").fetchone()
            if version != _JOURNAL_IMPORTED:
                connection.executemany(_UPSERT, rows)
                connection.execute("PRAGMA user_version = %d" % _JOURNAL_IMPORTED)
            connection.commit()
    except sqlite3.Error as error:
        raise StoreError("cannot import %s into %s: %s" % (journal, database, error)) from None
    try:
        os.replace(journal, journal.with_name(journal.name + ".imported"))
    except FileNotFoundError:  # a sibling process renamed it first
        pass


def open_catalog(backend: object) -> Catalog:
    """The catalog a blob backend implies.

    Filesystem backends get a table in ``catalog.sqlite`` at their root
    (importing an earlier version's ``catalog.jsonl`` there once), SQLite
    backends a table in the same database file; anything else (custom
    backends, chaos wrappers around an already-open store) falls back to
    a non-persistent :class:`MemoryCatalog`.
    """
    from repro.store.backends import FilesystemBackend, SQLiteBackend

    if isinstance(backend, FilesystemBackend):
        database = backend.root / "catalog.sqlite"
        _import_journal(database, backend.root / "catalog.jsonl")
        return SQLiteCatalog(database)
    if isinstance(backend, SQLiteBackend):
        return SQLiteCatalog(backend.path)
    return MemoryCatalog()
