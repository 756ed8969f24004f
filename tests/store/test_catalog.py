"""The metadata catalog: recording, queries, pagination, persistence.

Covers the contract shared by all three implementations (one filter +
pagination code path), the per-backend persistence (JSONL journal next to
a filesystem store, a table inside a SQLite store), and the explicit
acceptance cases: pagination past the end of the result set and filtering
on a tag no entry carries.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.exceptions import BlobNotFoundError, StoreError
from repro.imaging.synthetic import generate_planar_image
from repro.store import FilesystemBackend, ImageStore, SQLiteBackend
from repro.store.catalog import (
    CatalogEntry,
    CatalogFilter,
    JournalCatalog,
    MemoryCatalog,
    SQLiteCatalog,
    open_catalog,
)


def _entry(key: str, created_at: float = 0.0, **overrides) -> CatalogEntry:
    fields = dict(
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
    )
    fields.update(overrides)
    return CatalogEntry(**fields)


@pytest.fixture(params=["filesystem", "sqlite"])
def store(request, tmp_path):
    if request.param == "filesystem":
        backend = FilesystemBackend(tmp_path / "blobs")
    else:
        backend = SQLiteBackend(tmp_path / "blobs.sqlite")
    with ImageStore(backend) as instance:
        yield instance


class TestRecording:
    def test_put_records_full_metadata(self, store):
        image = generate_planar_image("lena", size=16)
        key = store.put(image, stripes=2, tags={"subject": "lena"})
        entry = store.catalog.get(key)
        assert entry is not None
        assert entry.width == 16 and entry.height == 16
        assert entry.planes == 3 and entry.bit_depth == 8
        assert entry.version == 3 and entry.stripes == 2
        assert entry.plane_delta is False
        assert entry.engine == "reference"
        assert entry.encoded_bytes == store.backend.length(key)
        assert entry.decoded_bytes == 16 * 16 * 3
        assert entry.tag_dict == {"subject": "lena"}
        assert not entry.deleted
        assert entry.compression_ratio > 0.0

    def test_reput_merges_tags_and_keeps_created_at(self, store):
        image = generate_planar_image("boat", size=16)
        key = store.put(image, stripes=2, tags={"a": "1"})
        first = store.catalog.get(key)
        again = store.put(image, stripes=2, tags={"b": "2"})
        assert again == key
        entry = store.catalog.get(key)
        assert entry.tag_dict == {"a": "1", "b": "2"}
        assert entry.created_at == first.created_at

    def test_reput_revives_tombstone(self, store):
        image = generate_planar_image("zelda", size=16)
        key = store.put(image, stripes=2)
        store.soft_delete(key, ttl_seconds=3600.0)
        assert store.catalog.get(key).deleted
        store.put(image, stripes=2)
        assert not store.catalog.get(key).deleted
        assert store.get(key) == image

    def test_hard_delete_removes_entry(self, store):
        key = store.put(generate_planar_image("barb", size=16), stripes=2)
        store.delete(key)
        assert store.catalog.get(key) is None


class TestQueries:
    @pytest.fixture()
    def catalog(self):
        catalog = MemoryCatalog()
        for index in range(10):
            tags = [("bucket", "even" if index % 2 == 0 else "odd")]
            if index == 7:
                tags.append(("rare", "yes"))
            catalog.record_put(
                _entry(
                    "k%02d" % index,
                    created_at=float(index),
                    planes=1 if index < 3 else 3,
                    engine="fast" if index >= 8 else "reference",
                    encoded_bytes=100 * (index + 1),
                    tags=tuple(tags),
                )
            )
        return catalog

    def test_unfiltered_query_is_newest_first(self, catalog):
        page, total = catalog.query()
        assert total == 10
        assert [entry.key for entry in page[:3]] == ["k09", "k08", "k07"]

    def test_pagination_and_total(self, catalog):
        page, total = catalog.query(limit=3, offset=3)
        assert total == 10
        assert [entry.key for entry in page] == ["k06", "k05", "k04"]

    def test_pagination_past_end_is_empty_not_an_error(self, catalog):
        page, total = catalog.query(limit=5, offset=10)
        assert page == [] and total == 10
        page, total = catalog.query(limit=5, offset=1000)
        assert page == [] and total == 10

    def test_negative_limit_or_offset_rejected(self, catalog):
        with pytest.raises(StoreError):
            catalog.query(limit=-1)
        with pytest.raises(StoreError):
            catalog.query(offset=-1)

    def test_filter_on_missing_tag_matches_nothing(self, catalog):
        page, total = catalog.query(CatalogFilter(tags=(("no-such-tag", None),)))
        assert page == [] and total == 0

    def test_tag_presence_and_value_filters(self, catalog):
        _, total = catalog.query(CatalogFilter(tags=(("rare", None),)))
        assert total == 1
        _, total = catalog.query(CatalogFilter(tags=(("bucket", "even"),)))
        assert total == 5
        _, total = catalog.query(CatalogFilter(tags=(("rare", "no"),)))
        assert total == 0

    def test_field_filters(self, catalog):
        _, total = catalog.query(CatalogFilter(planes=1))
        assert total == 3
        _, total = catalog.query(CatalogFilter(engine="fast"))
        assert total == 2
        _, total = catalog.query(CatalogFilter(min_encoded_bytes=800))
        assert total == 3
        _, total = catalog.query(CatalogFilter(max_encoded_bytes=200))
        assert total == 2
        _, total = catalog.query(
            CatalogFilter(created_after=3.0, created_before=6.0)
        )
        assert total == 3

    def test_deleted_visibility(self, catalog):
        catalog.mark_deleted("k05", deleted_at=100.0, ttl_seconds=10.0)
        _, total = catalog.query()
        assert total == 9
        _, total = catalog.query(CatalogFilter(include_deleted=True))
        assert total == 10
        page, total = catalog.query(CatalogFilter(deleted_only=True))
        assert total == 1 and page[0].key == "k05"

    def test_update_unknown_key_raises(self, catalog):
        with pytest.raises(BlobNotFoundError):
            catalog.update("nope", encoded_bytes=1)

    def test_stats_counts_live_and_deleted(self, catalog):
        catalog.mark_deleted("k00", deleted_at=0.0, ttl_seconds=1.0)
        stats = catalog.stats()
        assert stats["entries"] == 10
        assert stats["live"] == 9 and stats["deleted"] == 1
        assert stats["deleted_bytes"] == 100

    def test_parse_tag(self):
        assert CatalogFilter.parse_tag("subject") == ("subject", None)
        assert CatalogFilter.parse_tag("subject=lena") == ("subject", "lena")
        assert CatalogFilter.parse_tag("subject=") == ("subject", "")
        with pytest.raises(StoreError):
            CatalogFilter.parse_tag("=value")

    def test_entry_round_trips_through_json(self):
        entry = _entry(
            "k", created_at=5.0, deleted_at=9.0, purge_after=10.0,
            compacted_at=7.0, tags=(("a", "1"),),
        )
        assert CatalogEntry.from_json(entry.as_json()) == entry


class TestPersistence:
    def test_store_catalog_survives_reopen(self, store, tmp_path):
        image = generate_planar_image("peppers", size=16)
        key = store.put(image, stripes=2, tags={"kept": "yes"})
        doomed = store.put(generate_planar_image("boat", size=16), stripes=2)
        store.soft_delete(doomed, ttl_seconds=3600.0)
        location = (
            store.backend.root
            if isinstance(store.backend, FilesystemBackend)
            else store.backend.path
        )
        store.close()

        with ImageStore.open(location) as reopened:
            entry = reopened.catalog.get(key)
            assert entry is not None and entry.tag_dict == {"kept": "yes"}
            tombstone = reopened.catalog.get(doomed)
            assert tombstone is not None and tombstone.deleted
            assert reopened.get(key) == image

    def test_open_catalog_dispatch(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "fs")
        assert isinstance(open_catalog(fs), JournalCatalog)
        sq = SQLiteBackend(tmp_path / "blobs.sqlite")
        assert isinstance(open_catalog(sq), SQLiteCatalog)
        assert isinstance(open_catalog(object()), MemoryCatalog)
        sq.close()

    def test_journal_rewrites_to_snapshot(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        catalog = JournalCatalog(path, rewrite_factor=1)
        # Churn two keys far past the rewrite threshold (256 + 1 * live).
        for round_number in range(140):
            catalog.record_put(_entry("a", created_at=float(round_number)))
            catalog.record_put(_entry("b", created_at=float(round_number)))
        lines = path.read_text().strip().splitlines()
        assert len(lines) < 280  # the journal was snapshotted, not unbounded
        reopened = JournalCatalog(path)
        assert len(reopened) == 2
        assert reopened.get("a") is not None and reopened.get("b") is not None

    def test_journal_purge_persists(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        catalog = JournalCatalog(path)
        catalog.record_put(_entry("a"))
        catalog.record_put(_entry("b"))
        catalog.purge("a")
        reopened = JournalCatalog(path)
        assert reopened.get("a") is None and reopened.get("b") is not None

    @staticmethod
    def _churn_past_rewrite(catalog):
        for round_number in range(300):
            catalog.record_put(_entry("b%d" % (round_number % 10)))

    def test_shared_journal_rewrite_keeps_the_other_views_puts(self, tmp_path):
        # Two views of one journal, as the worker processes of one shard
        # hold: B's churn passes its rewrite threshold, and the snapshot
        # must keep the put A appended, which B never saw.
        path = tmp_path / "catalog.jsonl"
        a, b = JournalCatalog(path), JournalCatalog(path)
        a.record_put(_entry("only-a"))
        self._churn_past_rewrite(b)
        assert len(path.read_text().strip().splitlines()) < 300  # B rewrote it
        reopened = JournalCatalog(path)
        assert len(reopened) == 11
        assert reopened.get("only-a") is not None

    def test_shared_journal_rewrite_keeps_the_other_views_tombstones(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        a = JournalCatalog(path)
        a.record_put(_entry("shared"))
        b = JournalCatalog(path)  # B sees "shared" live
        a.mark_deleted("shared", deleted_at=5.0)
        self._churn_past_rewrite(b)
        shared = JournalCatalog(path).get("shared")
        assert shared is not None and shared.deleted

    def test_concurrent_views_rewriting_one_journal_lose_no_entry(
        self, tmp_path, monkeypatch
    ):
        # More writers than cores, each with its own view (so its own lock
        # file handle); re-puts of a hot key make every view rewrite every
        # few appends, and a put landing between another view's snapshot
        # read and its rename would lose its key for good.
        monkeypatch.setattr(JournalCatalog, "_REWRITE_FLOOR", 4)
        path = tmp_path / "catalog.jsonl"
        views = [JournalCatalog(path, rewrite_factor=1) for _ in range(4)]

        def put_all(index, view):
            for number in range(60):
                view.record_put(_entry("v%d-k%d" % (index, number)))
                for _ in range(3):
                    view.record_put(_entry("v%d-hot" % index))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=put_all, args=pair) for pair in enumerate(views)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        expected = {"v%d-k%d" % (i, k) for i in range(4) for k in range(60)}
        expected.update("v%d-hot" % i for i in range(4))
        assert {entry.key for entry in JournalCatalog(path).entries()} == expected

    def test_corrupt_journal_fails_loudly(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text('{"op": "put"}\n')  # missing the entry payload
        with pytest.raises(StoreError, match="line 1"):
            JournalCatalog(path)
        path.write_text("not json at all\n")
        with pytest.raises(StoreError):
            JournalCatalog(path)

    def test_sqlite_catalog_persists_mutations(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        catalog = SQLiteCatalog(path)
        catalog.record_put(_entry("a"))
        catalog.mark_deleted("a", deleted_at=1.0, ttl_seconds=5.0)
        catalog.record_put(_entry("b"))
        catalog.purge("b")
        catalog.close()
        reopened = SQLiteCatalog(path)
        assert reopened.get("b") is None
        entry = reopened.get("a")
        assert entry is not None and entry.deleted and entry.purge_after == 6.0
        reopened.close()

    def test_corrupt_sqlite_row_fails_loudly(self, tmp_path):
        import sqlite3

        path = tmp_path / "catalog.sqlite"
        SQLiteCatalog(path).close()
        connection = sqlite3.connect(str(path))
        connection.execute(
            "INSERT INTO catalog (key, entry) VALUES (?, ?)",
            ("k", json.dumps({"key": "k"})),
        )
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="corrupt catalog row"):
            SQLiteCatalog(path)


class TestReadsNeverWaitOnPersistence:
    def test_get_returns_while_a_persist_is_blocked(self):
        entered = threading.Event()
        release = threading.Event()

        class StalledCatalog(MemoryCatalog):
            def _persist_put(self, entry):
                entered.set()
                assert release.wait(10)

        catalog = StalledCatalog()
        release.set()
        catalog.record_put(_entry("a"))
        entered.clear()
        release.clear()
        writer = threading.Thread(target=catalog.mark_deleted, args=("a", 1.0))
        writer.start()
        try:
            assert entered.wait(5), "the persist hook never ran"
            seen = []
            reader = threading.Thread(target=lambda: seen.append(catalog.get("a")))
            reader.start()
            reader.join(2)
            assert not reader.is_alive(), "get waited on the blocked persist"
            assert seen[0] is not None and seen[0].key == "a"
        finally:
            release.set()
            writer.join(5)
        assert catalog.get("a").deleted

    def test_concurrent_mutations_journal_in_mutation_order(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        catalog = JournalCatalog(path, rewrite_factor=1)
        keys = ["k%d" % index for index in range(4)]
        for key in keys:
            catalog.record_put(_entry(key))

        def churn(key: str) -> None:
            for round_number in range(40):
                catalog.mark_deleted(key, float(round_number))
                catalog.restore(key)
                catalog.update(key, encoded_bytes=round_number)
            if key == keys[0]:
                catalog.purge(key)

        threads = [threading.Thread(target=churn, args=(key,)) for key in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        # Replaying the journal (rewrites included) gives the live state.
        assert JournalCatalog(path).entries() == catalog.entries()
