"""The ``repro-store`` console script.

Front door of the serving layer (:class:`repro.store.store.ImageStore`):

``repro-store put STORE IMAGE``
    Compress a PGM/PPM/PAM image into the store (content-addressed; the
    printed key is the SHA-256 of the container bytes).  ``--stripes``
    sets random-access granularity, ``--plane-delta`` the inter-plane
    predictor, ``--engine`` the coding engine.

``repro-store get STORE KEY OUTPUT``
    Reconstruct a stored image (or one ``--plane``, or one ``--region
    A:B``) into a Netpbm file; only the indexed bytes the request needs
    are read from the store.

``repro-store regions STORE KEY A:B [A:B ...]``
    Serve a batch of stripe-range requests in one call (cells shared
    between regions decode once).  With ``--out DIR`` each region is
    written as an image; otherwise a per-region summary plus cache
    counters is printed.

``repro-store ls STORE``
    Query the metadata catalog: one line per stored stream (geometry,
    engine, container version, sizes, tags), filterable by ``--planes``,
    ``--engine``, ``--container-version`` and ``--tag KEY[=VALUE]``,
    paginated with ``--limit``/``--offset``.  Tombstoned streams appear
    with ``--include-deleted`` (or alone with ``--deleted-only``).

``repro-store rm STORE KEY``
    Soft-delete a stream: a tombstone with a TTL (``--ttl`` seconds,
    default 7 days) hides it from reads; the bytes are reclaimed by a
    later ``gc`` once the TTL lapses.  ``--hard`` removes blob and
    catalog entry immediately instead.

``repro-store gc STORE``
    Purge expired tombstones (never a live or in-flight key).
    ``--dry-run`` reports what would be reclaimed without touching
    anything.

``repro-store compact STORE``
    Re-encode stored blobs with a chosen ``--engine`` / ``--stripes`` /
    ``--plane-delta`` and atomically swap each under its same content
    key — decode is verified byte-identical before any swap.  Targets
    every live stream older than ``--min-age`` seconds, or just the
    given ``--key``s.  Exits non-zero if any key failed.

``repro-store stats STORE``
    Backend, cache and catalog counters as JSON.

``STORE`` is a directory (filesystem backend) or a ``.sqlite``/``.db``
path (SQLite backend).  Errors follow the package convention: one
``ExceptionName: message`` line on stderr, non-zero exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cli import _print_error, add_version_argument
from repro.core.interface import ENGINES
from repro.exceptions import ReproError
from repro.imaging.pnm import read_image, write_image
from repro.store.catalog import DEFAULT_TTL_SECONDS, CatalogEntry, CatalogFilter
from repro.store.compactor import compact
from repro.store.gc import sweep
from repro.store.store import ImageStore

__all__ = ["store_main"]


def _parse_region(text: str) -> Tuple[int, int]:
    """Parse an ``A:B`` stripe range; raises ``ValueError`` on bad shape."""
    start, _, stop = text.partition(":")
    return int(start), int(stop)


def _region_argument(text: str) -> Tuple[int, int]:
    try:
        return _parse_region(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "region must be START:STOP (stripe indices), got %r" % text
        ) from None


def _tag_argument(text: str) -> Tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            "tag must be KEY=VALUE, got %r" % text
        )
    return key, value


def _tag_filter_argument(text: str) -> Tuple[str, Optional[str]]:
    try:
        return CatalogFilter.parse_tag(text)
    except ReproError:
        raise argparse.ArgumentTypeError(
            "tag filter must be KEY or KEY=VALUE, got %r" % text
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Content-addressed image store with cached random access.",
    )
    add_version_argument(parser)
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="decoded-cell LRU budget in bytes (default 32 MiB; 0 disables)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help="coding engine for encodes and decodes (default: reference)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    put = commands.add_parser("put", help="compress an image into the store")
    put.add_argument("store", help="store path (directory or .sqlite file)")
    put.add_argument("image", help="input PGM/PPM/PAM image")
    put.add_argument(
        "--stripes",
        type=int,
        default=4,
        metavar="S",
        help="stripes per plane — the random-access granularity (default 4)",
    )
    put.add_argument(
        "--plane-delta",
        action="store_true",
        help="code plane k>0 as the delta to plane k-1",
    )
    put.add_argument(
        "--tag",
        action="append",
        type=_tag_argument,
        default=[],
        metavar="KEY=VALUE",
        help="attach a metadata tag (repeatable); queryable via ls --tag",
    )

    get = commands.add_parser("get", help="reconstruct a stored image")
    get.add_argument("store", help="store path (directory or .sqlite file)")
    get.add_argument("key", help="content key printed by put")
    get.add_argument("output", help="output image path (PGM/PPM/PAM)")
    group = get.add_mutually_exclusive_group()
    group.add_argument(
        "--plane", type=int, default=None, metavar="K", help="fetch one plane only"
    )
    group.add_argument(
        "--region",
        type=_region_argument,
        default=None,
        metavar="A:B",
        help="fetch the rows of stripes [A, B) only",
    )

    regions = commands.add_parser(
        "regions", help="serve a batch of stripe-range requests"
    )
    regions.add_argument("store", help="store path (directory or .sqlite file)")
    regions.add_argument("key", help="content key printed by put")
    regions.add_argument(
        "ranges",
        nargs="+",
        type=_region_argument,
        metavar="A:B",
        help="stripe ranges to fetch",
    )
    regions.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write each region as an image under DIR instead of summarising",
    )

    ls = commands.add_parser("ls", help="query the metadata catalog")
    ls.add_argument("store", help="store path (directory or .sqlite file)")
    ls.add_argument(
        "--planes", type=int, default=None, metavar="N", help="only N-plane streams"
    )
    ls.add_argument(
        "--engine",
        dest="filter_engine",
        choices=ENGINES,
        default=None,
        help="only streams last encoded by this engine",
    )
    ls.add_argument(
        "--container-version",
        type=int,
        default=None,
        metavar="V",
        help="only streams in container version V",
    )
    ls.add_argument(
        "--tag",
        action="append",
        type=_tag_filter_argument,
        default=[],
        metavar="KEY[=VALUE]",
        help="only streams with this tag (bare KEY = presence; repeatable)",
    )
    ls.add_argument(
        "--limit", type=int, default=50, metavar="N", help="page size (default 50)"
    )
    ls.add_argument(
        "--offset", type=int, default=0, metavar="N", help="page start (default 0)"
    )
    ls.add_argument(
        "--include-deleted",
        action="store_true",
        help="include soft-deleted (tombstoned) streams",
    )
    ls.add_argument(
        "--deleted-only",
        action="store_true",
        help="show only soft-deleted streams",
    )
    ls.add_argument("--json", action="store_true", help="emit the page as JSON")

    rm = commands.add_parser("rm", help="soft-delete a stream (tombstone + TTL)")
    rm.add_argument("store", help="store path (directory or .sqlite file)")
    rm.add_argument("key", help="content key printed by put")
    rm.add_argument(
        "--ttl",
        type=float,
        default=DEFAULT_TTL_SECONDS,
        metavar="SECONDS",
        help="seconds until the tombstone is eligible for gc (default 7 days)",
    )
    rm.add_argument(
        "--hard",
        action="store_true",
        help="remove the blob and catalog entry immediately (no tombstone)",
    )

    gc = commands.add_parser("gc", help="purge expired tombstones")
    gc.add_argument("store", help="store path (directory or .sqlite file)")
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be purged without removing anything",
    )
    gc.add_argument("--json", action="store_true", help="emit the sweep result as JSON")

    compact_cmd = commands.add_parser(
        "compact", help="re-encode stored blobs in place (same content key)"
    )
    compact_cmd.add_argument("store", help="store path (directory or .sqlite file)")
    compact_cmd.add_argument(
        "--key",
        action="append",
        default=[],
        metavar="KEY",
        help="compact only this key (repeatable; default: every live stream)",
    )
    compact_cmd.add_argument(
        "--engine",
        dest="target_engine",
        choices=ENGINES,
        default=None,
        help="re-encode with this engine (default: the store's engine)",
    )
    compact_cmd.add_argument(
        "--stripes",
        type=int,
        default=None,
        metavar="S",
        help="re-stripe to S stripes per plane (default: keep)",
    )
    compact_cmd.add_argument(
        "--plane-delta",
        choices=("keep", "on", "off"),
        default="keep",
        help="inter-plane predictor for the re-encode (default: keep)",
    )
    compact_cmd.add_argument(
        "--min-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="only streams whose last write is at least this old (default 0)",
    )
    compact_cmd.add_argument(
        "--json", action="store_true", help="emit the sweep result as JSON"
    )

    stats = commands.add_parser(
        "stats", help="backend + cache + catalog counters as JSON"
    )
    stats.add_argument("store", help="store path (directory or .sqlite file)")
    return parser


def _format_entry(entry: CatalogEntry) -> str:
    """One ``ls`` line: key, geometry, coding parameters, size, state."""
    tags = " ".join("%s=%s" % item for item in entry.tags)
    state = ""
    if entry.deleted:
        state = "  [deleted]"
    elif entry.compacted_at is not None:
        state = "  [compacted]"
    return "%s  %dx%d  %dp/%db  v%d s%d  %s  %d B%s%s" % (
        entry.key,
        entry.width,
        entry.height,
        entry.planes,
        entry.bit_depth,
        entry.version,
        entry.stripes,
        entry.engine,
        entry.encoded_bytes,
        ("  " + tags) if tags else "",
        state,
    )


def store_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-store``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_bytes is not None and args.cache_bytes < 0:
        parser.error("--cache-bytes must be >= 0")

    store_kwargs: Dict[str, Any] = {"engine": args.engine}
    if args.cache_bytes is not None:
        store_kwargs["cache_bytes"] = args.cache_bytes

    exit_code = 0
    try:
        with ImageStore.open(args.store, **store_kwargs) as store:
            if args.command == "put":
                image = read_image(args.image)
                key = store.put(
                    image,
                    stripes=args.stripes,
                    plane_delta=args.plane_delta,
                    tags=dict(args.tag) if args.tag else None,
                )
                size = store.backend.length(key)
                print(key)
                print(
                    "%s -> %s (%d bytes, %d stripes%s)"
                    % (
                        args.image,
                        args.store,
                        size,
                        args.stripes,
                        ", plane-delta" if args.plane_delta else "",
                    ),
                    file=sys.stderr,
                )
            elif args.command == "get":
                if args.plane is not None:
                    image = store.get_plane(args.key, args.plane)
                elif args.region is not None:
                    image = store.get_region(args.key, args.region)
                else:
                    image = store.get(args.key)
                write_image(image, args.output)
                print("%s -> %s" % (args.key, args.output))
            elif args.command == "regions":
                images = store.get_regions(args.key, args.ranges)
                if args.out is not None:
                    out_dir = Path(args.out)
                    out_dir.mkdir(parents=True, exist_ok=True)
                    for (start, stop), image in zip(args.ranges, images):
                        suffix = ".pgm" if not hasattr(image, "num_planes") else (
                            ".ppm" if image.num_planes == 3 else ".pam"
                        )
                        path = out_dir / (
                            "%s-r%d-%d%s" % (args.key[:12], start, stop, suffix)
                        )
                        write_image(image, str(path))
                        print("stripes [%d, %d) -> %s" % (start, stop, path))
                else:
                    for (start, stop), image in zip(args.ranges, images):
                        print(
                            "stripes [%d, %d): %dx%d, %d plane(s)"
                            % (
                                start,
                                stop,
                                image.width,
                                image.height,
                                getattr(image, "num_planes", 1),
                            )
                        )
                    cache = store.cache_stats
                    print(
                        "cache: %d hit(s), %d miss(es), %.0f%% hit rate, "
                        "%d entr%s holding %d of %d bytes"
                        % (
                            cache.hits,
                            cache.misses,
                            100.0 * cache.hit_rate,
                            cache.entries,
                            "y" if cache.entries == 1 else "ies",
                            cache.current_bytes,
                            cache.max_bytes,
                        )
                    )
            elif args.command == "ls":
                page, total = store.catalog.query(
                    CatalogFilter(
                        planes=args.planes,
                        engine=args.filter_engine,
                        version=args.container_version,
                        tags=tuple(args.tag),
                        include_deleted=args.include_deleted,
                        deleted_only=args.deleted_only,
                    ),
                    limit=args.limit,
                    offset=args.offset,
                )
                if args.json:
                    print(
                        json.dumps(
                            {
                                "entries": [entry.as_json() for entry in page],
                                "total": total,
                                "offset": args.offset,
                                "limit": args.limit,
                            },
                            indent=2,
                            sort_keys=True,
                        )
                    )
                else:
                    for entry in page:
                        print(_format_entry(entry))
                    print(
                        "%d of %d entr%s (offset %d)"
                        % (
                            len(page),
                            total,
                            "y" if total == 1 else "ies",
                            args.offset,
                        ),
                        file=sys.stderr,
                    )
            elif args.command == "rm":
                if args.hard:
                    store.delete(args.key)
                    print("%s hard-deleted" % args.key)
                else:
                    store.soft_delete(args.key, ttl_seconds=args.ttl)
                    print(
                        "%s tombstoned (gc-eligible in %.0f s)"
                        % (args.key, max(0.0, args.ttl))
                    )
            elif args.command == "gc":
                result = sweep(store, dry_run=args.dry_run)
                if args.json:
                    print(json.dumps(result.as_json(), indent=2, sort_keys=True))
                else:
                    print(result.format_report())
            elif args.command == "compact":
                delta = {"keep": None, "on": True, "off": False}[args.plane_delta]
                result = compact(
                    store,
                    keys=args.key or None,
                    engine=args.target_engine,
                    stripes=args.stripes,
                    plane_delta=delta,
                    min_age_seconds=args.min_age,
                )
                if args.json:
                    print(json.dumps(result.as_json(), indent=2, sort_keys=True))
                else:
                    print(result.format_report())
                if result.failed:
                    exit_code = 1
            else:  # stats
                print(json.dumps(store.stats(), indent=2, sort_keys=True))
    except (ReproError, OSError) as error:
        _print_error(error)
        return 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(store_main())
