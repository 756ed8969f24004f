"""The serving layer: a content-addressed store over indexed containers.

This package turns the codec into a queryable system: compressed streams
are stored by content hash in a pluggable blob backend (filesystem or
SQLite), and plane/region queries are answered straight off the version-3
container's byte-offset index — range reads fetch exactly the cells a
query touches, a size-bounded LRU keeps hot decoded cells in memory, and
batched requests dedupe cells across regions.  See
:class:`~repro.store.store.ImageStore` and the ``repro-store`` console
script.

On top of the blobs sits the data-plane lifecycle: a metadata
:mod:`catalog <repro.store.catalog>` recorded at ``put`` time (queryable
with filters + pagination), TTL soft-delete with a :mod:`GC sweep
<repro.store.gc>` that reclaims expired tombstones without ever touching
a live or in-flight key, and a :mod:`recompactor
<repro.store.compactor>` that re-encodes cold blobs and swaps them in
atomically under the same content key.
"""

from repro.store.backends import (
    BlobBackend,
    FilesystemBackend,
    SQLiteBackend,
    open_backend,
)
from repro.store.cache import DEFAULT_CACHE_BYTES, CacheStats, CellCache
from repro.store.catalog import (
    DEFAULT_TTL_SECONDS,
    Catalog,
    CatalogEntry,
    CatalogFilter,
    MemoryCatalog,
    SQLiteCatalog,
    open_catalog,
)
from repro.store.compactor import (
    CompactionResult,
    Compactor,
    KeyCompaction,
    compact,
    compact_key,
)
from repro.store.gc import GcDaemon, GcResult, sweep
from repro.store.store import ImageStore

__all__ = [
    "ImageStore",
    "BlobBackend",
    "FilesystemBackend",
    "SQLiteBackend",
    "open_backend",
    "CellCache",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "Catalog",
    "CatalogEntry",
    "CatalogFilter",
    "MemoryCatalog",
    "SQLiteCatalog",
    "open_catalog",
    "DEFAULT_TTL_SECONDS",
    "GcResult",
    "GcDaemon",
    "sweep",
    "KeyCompaction",
    "CompactionResult",
    "compact_key",
    "compact",
    "Compactor",
]
