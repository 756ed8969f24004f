"""Stateful model test of sibling catalog views sharing one SQLite table.

The worker processes of one shard each hold a :class:`SQLiteCatalog`
view of one table.  A view sees its own writes at once and its siblings'
only after :meth:`~repro.store.catalog.Catalog.refresh`, and every write
goes through to the table.  The machine drives two views of one file
with every lifecycle mutation and both refresh forms, against a model
holding the table's rows and what each view last saw of them.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exceptions import BlobNotFoundError
from repro.store.catalog import CatalogEntry, SQLiteCatalog

KEYS = ("a", "b")

keys = st.sampled_from(KEYS)
views = st.sampled_from((0, 1))


def _entry(key: str, created_at: float, tag: str) -> CatalogEntry:
    return CatalogEntry(
        key=key,
        width=16,
        height=16,
        planes=3,
        bit_depth=8,
        version=3,
        stripes=2,
        plane_delta=False,
        engine="reference",
        encoded_bytes=1000,
        decoded_bytes=16 * 16 * 3,
        created_at=created_at,
        tags=(("by", tag),),
    )


def _state(entry: Optional[CatalogEntry]) -> str:
    if entry is None:
        return "absent"
    return "deleted" if entry.deleted else "live"


class SharedCatalogViews(RuleBasedStateMachine):
    """Two views of one fresh table; the model is the rows and each view's last sight."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.TemporaryDirectory(prefix="repro-catalog-views-")
        self.path = Path(self.directory.name) / "catalog.sqlite"
        self.views = [SQLiteCatalog(self.path), SQLiteCatalog(self.path)]
        self.table: Dict[str, CatalogEntry] = {}
        self.seen: List[Dict[str, CatalogEntry]] = [{}, {}]
        self.clock = 0.0

    def teardown(self) -> None:
        for view in self.views:
            view.close()
        self.directory.cleanup()

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def _wrote(self, index: int, entry: CatalogEntry) -> None:
        """A view's write sets the row, and the view sees what it wrote."""
        self.table[entry.key] = entry
        self.seen[index][entry.key] = entry

    @rule(index=views, key=keys, tag=st.sampled_from(("x", "y")))
    def record_put(self, index: int, key: str, tag: str) -> None:
        entry = _entry(key, self._tick(), tag)
        self._wrote(index, self.views[index].record_put(entry))

    @rule(index=views, key=keys)
    def mark_deleted(self, index: int, key: str) -> None:
        if key not in self.seen[index]:
            with pytest.raises(BlobNotFoundError):
                self.views[index].mark_deleted(key, deleted_at=self._tick())
            return
        self._wrote(index, self.views[index].mark_deleted(key, deleted_at=self._tick()))

    @rule(index=views, key=keys)
    def restore(self, index: int, key: str) -> None:
        if key not in self.seen[index]:
            with pytest.raises(BlobNotFoundError):
                self.views[index].restore(key)
            return
        self._wrote(index, self.views[index].restore(key))

    @rule(index=views, key=keys)
    def purge(self, index: int, key: str) -> None:
        self.views[index].purge(key)
        # A view that lacks the key changes nothing, not even the table.
        if self.seen[index].pop(key, None) is not None:
            self.table.pop(key, None)

    @rule(index=views, key=keys)
    def refresh_key(self, index: int, key: str) -> None:
        self.views[index].refresh(key)
        if key in self.table:
            self.seen[index][key] = self.table[key]
        else:
            self.seen[index].pop(key, None)

    @rule(index=views)
    def refresh_all(self, index: int) -> None:
        self.views[index].refresh()
        self.seen[index] = dict(self.table)

    @invariant()
    def each_view_matches_its_model(self) -> None:
        for view, seen in zip(self.views, self.seen):
            for key in KEYS:
                assert _state(view.get(key)) == _state(seen.get(key)), key
                assert view.get(key) == seen.get(key), key

    @invariant()
    def a_fresh_view_loads_the_table(self) -> None:
        fresh = SQLiteCatalog(self.path)
        try:
            assert {entry.key: entry for entry in fresh.entries()} == self.table
        finally:
            fresh.close()


TestSharedCatalogViews = SharedCatalogViews.TestCase
