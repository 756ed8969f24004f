"""Blob storage backends of the image store.

A backend is a flat keyed blob space with **range reads** — the one
primitive the store needs to serve random access without loading whole
containers: ``read_range(key, offset, length)`` must cost O(length), not
O(blob).  Two backends ship:

``FilesystemBackend``
    One file per blob under a root directory, sharded by the first two hex
    characters of the key (content hashes distribute uniformly, so no shard
    ever degenerates).  Range reads are a seek; writes go through a
    temporary file + rename so a crash never leaves a half-written blob
    under a valid key.

Batched reads go through :meth:`BlobBackend.read_ranges`, which both
backends override to touch the blob **once per request** — one open for
the filesystem, one lock acquisition for SQLite — instead of re-opening
per cell like per-cell ``read_range`` loops used to.  Range reads return
``bytes``.

``SQLiteBackend``
    A single-file SQLite database.  Range reads use ``substr`` on the BLOB
    column, which SQLite serves from the row's overflow chain without
    materialising the whole value in the connection.  Handy when a corpus
    of many small streams should travel as one file.  The single shared
    connection is guarded by a lock so the backend can be driven from the
    serving tier's worker threads.

Both raise :class:`~repro.exceptions.BlobNotFoundError` for unknown keys
and are constructed by :func:`open_backend`, which picks the backend from
the path shape (``.sqlite``/``.db`` suffix → SQLite, otherwise a
directory).
"""

from __future__ import annotations

import abc
import os
import sqlite3
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.exceptions import BlobNotFoundError, StoreError

__all__ = [
    "BlobBackend",
    "FilesystemBackend",
    "SQLiteBackend",
    "open_backend",
]

class BlobBackend(abc.ABC):
    """Flat keyed blob storage with O(length) range reads."""

    @abc.abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (idempotent overwrite)."""

    @abc.abstractmethod
    def get(self, key: str) -> bytes:
        """Fetch the whole blob."""

    @abc.abstractmethod
    def read_range(self, key: str, offset: int, length: int) -> bytes:
        """Fetch ``length`` bytes starting at ``offset`` (clamped at EOF)."""

    def read_ranges(
        self, key: str, spans: Sequence[Tuple[int, int]]
    ) -> List[bytes]:
        """Fetch several ``(offset, length)`` spans of one blob.

        The default loops :meth:`read_range`; backends override it to pay
        their per-blob access cost (file open, lock acquisition) once per
        batch instead of once per span.  The batched region reads of the
        store tier come through here.
        """
        return [self.read_range(key, offset, length) for offset, length in spans]

    @abc.abstractmethod
    def length(self, key: str) -> int:
        """Byte size of the blob."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether ``key`` is stored."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over every stored key (order unspecified)."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove a blob; unknown keys raise :class:`BlobNotFoundError`."""

    def stats(self) -> Dict[str, int]:
        """Blob count and total stored payload bytes."""
        blobs = 0
        total = 0
        for key in self.keys():
            blobs += 1
            total += self.length(key)
        return {"blobs": blobs, "bytes": total}

    def close(self) -> None:
        """Release backend resources (default: nothing to release)."""

    def __enter__(self) -> "BlobBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _check_key(key: str) -> str:
    """Reject keys that could escape the filesystem layout or SQL row."""
    if not key or not all(c.isalnum() or c in "-_" for c in key):
        raise StoreError("invalid blob key %r" % (key,))
    return key


class FilesystemBackend(BlobBackend):
    """One file per blob under ``root``, sharded by key prefix."""

    _SUFFIX = ".rplc"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        _check_key(key)
        shard = key[:2] if len(key) > 2 else "__"
        return self.root / shard / (key + self._SUFFIX)

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".%s." % key[:8], dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise BlobNotFoundError("no blob stored under key %r" % key) from None

    def read_range(self, key: str, offset: int, length: int) -> bytes:
        try:
            with open(self._path(key), "rb") as handle:
                handle.seek(offset)
                return handle.read(length)
        except FileNotFoundError:
            raise BlobNotFoundError("no blob stored under key %r" % key) from None

    def read_ranges(
        self, key: str, spans: Sequence[Tuple[int, int]]
    ) -> List[bytes]:
        # One open handle for the whole batch: batched region reads used to
        # re-open the blob file once per cell.
        try:
            with open(self._path(key), "rb") as handle:
                out: List[bytes] = []
                for offset, length in spans:
                    handle.seek(offset)
                    out.append(handle.read(length))
                return out
        except FileNotFoundError:
            raise BlobNotFoundError("no blob stored under key %r" % key) from None

    def length(self, key: str) -> int:
        try:
            return self._path(key).stat().st_size
        except FileNotFoundError:
            raise BlobNotFoundError("no blob stored under key %r" % key) from None

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def keys(self) -> Iterator[str]:
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*" + self._SUFFIX)):
                yield path.name[: -len(self._SUFFIX)]

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            raise BlobNotFoundError("no blob stored under key %r" % key) from None


class SQLiteBackend(BlobBackend):
    """All blobs in one SQLite file; range reads via ``substr`` on the BLOB."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # One shared connection, handed between threads under `_lock`: the
        # serving tier's worker pool calls range reads from whichever
        # thread picked the request up.  sqlite3 objects are safe to move
        # across threads as long as use is serialised, which the lock does.
        self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
        self._lock = threading.Lock()
        try:
            with self._lock:
                self._connection.execute(
                    "CREATE TABLE IF NOT EXISTS blobs ("
                    "key TEXT PRIMARY KEY, length INTEGER NOT NULL, data BLOB NOT NULL)"
                )
                self._connection.commit()
        except sqlite3.Error as exc:
            self._connection.close()
            raise StoreError(
                "cannot open %s as a SQLite blob store: %s" % (self.path, exc)
            ) from exc

    def _one(self, sql: str, key: str) -> Tuple:
        with self._lock:
            row = self._connection.execute(sql, (_check_key(key),)).fetchone()
        if row is None:
            raise BlobNotFoundError("no blob stored under key %r" % key)
        return row

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO blobs (key, length, data) VALUES (?, ?, ?)",
                (_check_key(key), len(data), sqlite3.Binary(data)),
            )
            self._connection.commit()

    def get(self, key: str) -> bytes:
        return bytes(self._one("SELECT data FROM blobs WHERE key = ?", key)[0])

    def read_range(self, key: str, offset: int, length: int) -> bytes:
        # substr is 1-indexed; SQLite slices the stored value server-side.
        with self._lock:
            row = self._connection.execute(
                "SELECT substr(data, ?, ?) FROM blobs WHERE key = ?",
                (offset + 1, length, _check_key(key)),
            ).fetchone()
        if row is None:
            raise BlobNotFoundError("no blob stored under key %r" % key)
        return bytes(row[0])

    def read_ranges(
        self, key: str, spans: Sequence[Tuple[int, int]]
    ) -> List[bytes]:
        # One lock acquisition for the whole batch; still per-span substr so
        # SQLite never materialises the whole blob in the connection.
        _check_key(key)
        out: List[bytes] = []
        with self._lock:
            for offset, length in spans:
                row = self._connection.execute(
                    "SELECT substr(data, ?, ?) FROM blobs WHERE key = ?",
                    (offset + 1, length, key),
                ).fetchone()
                if row is None:
                    raise BlobNotFoundError("no blob stored under key %r" % key)
                out.append(bytes(row[0]))
        return out

    def length(self, key: str) -> int:
        return int(self._one("SELECT length FROM blobs WHERE key = ?", key)[0])

    def contains(self, key: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM blobs WHERE key = ?", (_check_key(key),)
            ).fetchone()
        return row is not None

    def keys(self) -> Iterator[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT key FROM blobs ORDER BY key"
            ).fetchall()
        for (key,) in rows:
            yield key

    def delete(self, key: str) -> None:
        with self._lock:
            cursor = self._connection.execute(
                "DELETE FROM blobs WHERE key = ?", (_check_key(key),)
            )
            self._connection.commit()
        if cursor.rowcount == 0:
            raise BlobNotFoundError("no blob stored under key %r" % key)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            blobs, total = self._connection.execute(
                "SELECT COUNT(*), COALESCE(SUM(length), 0) FROM blobs"
            ).fetchone()
        return {"blobs": int(blobs), "bytes": int(total)}

    def close(self) -> None:
        with self._lock:
            self._connection.close()


def open_backend(path: Union[str, Path]) -> BlobBackend:
    """Open the backend a path implies.

    ``*.sqlite`` / ``*.sqlite3`` / ``*.db`` paths (or existing regular
    files) open a :class:`SQLiteBackend`; everything else is treated as a
    :class:`FilesystemBackend` root directory.
    """
    path = Path(path)
    if path.suffix.lower() in (".sqlite", ".sqlite3", ".db") or path.is_file():
        return SQLiteBackend(path)
    return FilesystemBackend(path)
