"""The metadata catalog: recording, queries, pagination, persistence.

Covers the contract shared by both implementations (one filter +
pagination code path), the one persistence (a SQLite table: in
``catalog.sqlite`` at a filesystem store's root, inside a SQLite store's
file), the one-time import of an earlier version's ``catalog.jsonl``, and
the explicit acceptance cases: pagination past the end of the result set
and filtering on a tag no entry carries.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.exceptions import BlobNotFoundError, StoreError
from repro.imaging.synthetic import generate_planar_image
from repro.store import FilesystemBackend, ImageStore, SQLiteBackend
from repro.store.catalog import (
    CatalogEntry,
    CatalogFilter,
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


def _put_event(entry: CatalogEntry) -> dict:
    return {"op": "put", "entry": entry.as_json()}


def _journal(path: Path, *events: dict, torn: str = "") -> None:
    """Write a catalog journal as earlier versions kept it: one event per line."""
    lines = [json.dumps(event, sort_keys=True) + "\n" for event in events]
    path.write_text("".join(lines) + torn)


def _legacy_root(tmp_path):
    """A filesystem store an earlier version left: blobs beside ``catalog.jsonl``.

    The journal holds a live key, a tombstoned key, a purged key and a
    torn last line (a crash mid-append).
    """
    root = tmp_path / "legacy"
    image = generate_planar_image("lena", size=16)
    with ImageStore(FilesystemBackend(root), catalog=MemoryCatalog()) as store:
        live = store.put(image, stripes=2)
        doomed = store.put(generate_planar_image("boat", size=16), stripes=2)
        live_entry, doomed_entry = store.catalog.get(live), store.catalog.get(doomed)
    now = time.time()
    _journal(
        root / "catalog.jsonl",
        _put_event(live_entry),
        _put_event(doomed_entry),
        _put_event(_entry("purged")),
        _put_event(replace(doomed_entry, deleted_at=now, purge_after=now + 3600.0)),
        {"op": "purge", "key": "purged"},
        torn=json.dumps(_put_event(_entry("torn")))[:20],
    )
    return root, image, live, doomed


#: One process opening a legacy root, printing every SQL statement it
#: runs and then the rows its catalog loaded.
_IMPORTER = """
import json, sqlite3, sys, time
from pathlib import Path

connect = sqlite3.connect


def traced(*args, **kwargs):
    connection = connect(*args, **kwargs)
    connection.set_trace_callback(lambda sql: print("SQL " + sql, flush=True))
    return connection


sqlite3.connect = traced
from repro.store.backends import FilesystemBackend
from repro.store.catalog import open_catalog

root, go = Path(sys.argv[1]), Path(sys.argv[2])
print("READY", flush=True)
while not go.exists():
    time.sleep(0.001)
catalog = open_catalog(FilesystemBackend(root))
print("ROWS " + json.dumps(sorted((e.key, e.deleted) for e in catalog.entries())), flush=True)
catalog.close()
"""


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
        catalog = open_catalog(fs)
        assert isinstance(catalog, SQLiteCatalog)
        assert catalog.path == tmp_path / "fs" / "catalog.sqlite"
        catalog.close()
        sq = SQLiteBackend(tmp_path / "blobs.sqlite")
        assert isinstance(open_catalog(sq), SQLiteCatalog)
        assert isinstance(open_catalog(object()), MemoryCatalog)
        sq.close()

    def test_the_catalog_file_is_never_taken_for_a_blob(self, tmp_path):
        with ImageStore.open(tmp_path / "fs") as store:
            key = store.put(generate_planar_image("lena", size=16), stripes=2)
            assert (tmp_path / "fs" / "catalog.sqlite").is_file()
            assert list(store.backend.keys()) == [key]
            assert store.backend.stats()["blobs"] == 1

    def test_concurrent_views_writing_one_table_lose_no_entry(self, tmp_path):
        # More writers than cores, each with its own view (so its own
        # connection), re-putting a hot key between fresh ones.
        path = tmp_path / "catalog.sqlite"
        views = [SQLiteCatalog(path) for _ in range(4)]

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
            for view in views:
                view.close()
        expected = {"v%d-k%d" % (i, k) for i in range(4) for k in range(60)}
        expected.update("v%d-hot" % i for i in range(4))
        reopened = SQLiteCatalog(path)
        assert {entry.key for entry in reopened.entries()} == expected
        reopened.close()

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

    def test_a_legacy_journal_is_imported_with_its_tombstones(self, tmp_path):
        root, image, live, doomed = _legacy_root(tmp_path)
        with ImageStore.open(root) as store:
            assert isinstance(store.catalog, SQLiteCatalog)
            assert sorted(entry.key for entry in store.catalog.entries()) == sorted(
                [live, doomed]
            )
            assert store.get(live) == image
            assert store.catalog.get(doomed).deleted
            with pytest.raises(BlobNotFoundError):
                store.get(doomed)
        assert not (root / "catalog.jsonl").exists()
        assert (root / "catalog.jsonl.imported").is_file()
        with contextlib.closing(sqlite3.connect(str(root / "catalog.sqlite"))) as probe:
            assert probe.execute("PRAGMA user_version").fetchone() == (1,)

    def test_the_import_commits_in_one_immediate_transaction_then_renames(
        self, tmp_path, monkeypatch
    ):
        root, _, _, _ = _legacy_root(tmp_path)
        connect, rename = sqlite3.connect, os.replace
        statements = []
        at_rename = []

        def traced(*args, **kwargs):
            connection = connect(*args, **kwargs)
            connection.set_trace_callback(statements.append)
            return connection

        def checked_rename(source, target):
            with contextlib.closing(connect(str(root / "catalog.sqlite"))) as probe:
                (version,) = probe.execute("PRAGMA user_version").fetchone()
                (rows,) = probe.execute("SELECT COUNT(*) FROM catalog").fetchone()
            at_rename.append((version, rows))
            rename(source, target)

        monkeypatch.setattr(sqlite3, "connect", traced)
        monkeypatch.setattr(os, "replace", checked_rename)
        open_catalog(FilesystemBackend(root)).close()
        begin = statements.index("BEGIN IMMEDIATE")
        commit = statements.index("COMMIT", begin)
        transaction = statements[begin + 1 : commit]
        assert transaction[0] == "PRAGMA user_version"
        assert transaction[-1] == "PRAGMA user_version = 1"
        assert [sql.split(" (")[0] for sql in transaction[1:-1]] == [
            "INSERT OR REPLACE INTO catalog"
        ] * 2
        outside = statements[:begin] + statements[commit + 1 :]
        assert not [sql for sql in outside if not sql.startswith(("CREATE", "SELECT"))]
        assert at_rename == [(1, 2)]

    def test_a_reopen_never_imports_again(self, tmp_path):
        root, _, live, doomed = _legacy_root(tmp_path)
        with ImageStore.open(root) as store:
            store.delete(live)
            store.restore(doomed)
        # As if the process had died between the import's commit and rename.
        os.replace(root / "catalog.jsonl.imported", root / "catalog.jsonl")
        with ImageStore.open(root) as store:
            assert store.catalog.get(live) is None
            assert not store.catalog.get(doomed).deleted
        assert not (root / "catalog.jsonl").exists()

    def test_journal_purge_persists(self, tmp_path):
        # A purge an earlier version journaled stays a purge in the table.
        root = tmp_path / "legacy"
        root.mkdir()
        _journal(
            root / "catalog.jsonl",
            _put_event(_entry("a")),
            _put_event(_entry("b")),
            {"op": "purge", "key": "a"},
        )
        open_catalog(FilesystemBackend(root)).close()
        reopened = open_catalog(FilesystemBackend(root))
        assert reopened.get("a") is None and reopened.get("b") is not None
        reopened.close()

    def test_corrupt_journal_fails_loudly(self, tmp_path):
        root = tmp_path / "legacy"
        root.mkdir()
        journal = root / "catalog.jsonl"
        _journal(
            journal,
            _put_event(_entry("a")),
            {"op": "put"},  # missing the entry payload
            _put_event(_entry("b")),
        )
        with pytest.raises(StoreError, match="line 2"):
            open_catalog(FilesystemBackend(root))
        journal.write_text("not json at all\n")
        with pytest.raises(StoreError, match="line 1"):
            ImageStore.open(root)
        # Nothing imported: no table written, the journal not renamed.
        assert not (root / "catalog.sqlite").exists()
        assert journal.is_file()

    def test_two_processes_opening_a_legacy_root_import_it_once(self, tmp_path):
        root, _, live, doomed = _legacy_root(tmp_path)
        go = tmp_path / "go"
        source = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _IMPORTER, str(root), str(go)],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        try:
            for child in children:
                assert child.stdout.readline().strip() == "READY"
            go.touch()
            outputs = [child.communicate(timeout=60)[0].splitlines() for child in children]
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        assert [child.returncode for child in children] == [0, 0]
        lines = [line for output in outputs for line in output]
        assert lines.count("SQL PRAGMA user_version = 1") == 1
        expected = sorted([[live, False], [doomed, True]])
        for output in outputs:
            assert output[-1] == "ROWS " + json.dumps(expected)
        assert not (root / "catalog.jsonl").exists()
        assert (root / "catalog.jsonl.imported").is_file()


class TestSiblingViews:
    """Views of one catalog held by different processes, as shard workers hold them."""

    def test_views_refreshing_while_siblings_write_agree(self, tmp_path):
        # More views than cores, each putting, tombstoning, reviving and
        # refreshing while the others write: a write a view lost or a
        # refresh that applied a stale row would leave it disagreeing
        # with a fresh load of the table.
        path = tmp_path / "catalog.sqlite"
        views = [SQLiteCatalog(path) for _ in range(4)]

        errors = []

        def churn(index, view):
            try:
                for number in range(40):
                    key = "k%d" % (number % 7)
                    view.record_put(_entry(key, tags=(("by", str(index)),)))
                    if number % 3 == index % 3:
                        view.mark_deleted(key, deleted_at=float(number))
                    view.refresh(key)
            except Exception as error:  # reported below, not lost in the thread
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=churn, args=(index, view))
                for index, view in enumerate(views)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors
        reopened = SQLiteCatalog(path)
        loaded = reopened.entries()
        reopened.close()
        assert len(loaded) == 7
        for view in views:
            view.refresh()
            assert view.entries() == loaded
            view.close()

    def test_sqlite_refresh_reads_a_sibling_connections_rows(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        a, b = SQLiteCatalog(path), SQLiteCatalog(path)
        try:
            a.record_put(_entry("x"))
            a.record_put(_entry("y"))
            b.refresh("x")
            assert b.get("x") is not None and b.get("y") is None
            a.purge("x")
            b.refresh()
            assert b.get("x") is None and b.get("y") is not None
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("name", ["blobs", "blobs.sqlite"])
    def test_a_revived_key_reads_right_through_a_sibling_store(self, tmp_path, name):
        # Put on A, soft-delete on both (the proxy broadcasts tombstones),
        # put again on A: B holds a tombstone only the shared catalog lifts.
        a, b = ImageStore.open(tmp_path / name), ImageStore.open(tmp_path / name)
        try:
            image = generate_planar_image("lena", size=16)
            key = a.put(image, stripes=2)
            a.soft_delete(key, ttl_seconds=3600.0)
            b.soft_delete(key, ttl_seconds=3600.0)
            assert a.put(image, stripes=2) == key
            assert b.get_region(key, (0, 2)) == image
            assert b.stats()["catalog"]["live"] == 1
        finally:
            a.close()
            b.close()

    def test_a_memory_only_read_of_a_tombstone_raises_without_refreshing(self, tmp_path):
        a, b = ImageStore.open(tmp_path / "blobs"), ImageStore.open(tmp_path / "blobs")
        try:
            image = generate_planar_image("boat", size=16)
            key = a.put(image, stripes=2)
            b.get(key)  # warm b's header and cells
            a.soft_delete(key, ttl_seconds=3600.0)
            b.soft_delete(key, ttl_seconds=3600.0)
            a.put(image, stripes=2)
            with pytest.raises(BlobNotFoundError):
                b.get(key, cached_only=True)
            assert b.get(key) == image  # the blocking read refreshes
            assert b.get(key, cached_only=True) == image
        finally:
            a.close()
            b.close()


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
        path = tmp_path / "catalog.sqlite"
        catalog = SQLiteCatalog(path)
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
        # Every row the table holds is the view's last state of its key.
        reopened = SQLiteCatalog(path)
        assert reopened.entries() == catalog.entries()
        reopened.close()
        catalog.close()
