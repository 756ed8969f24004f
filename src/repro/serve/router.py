"""Shard routing: rendezvous hashing of content keys over image stores.

The service fronts N independent :class:`~repro.store.store.ImageStore`
backends.  Placement uses **rendezvous (highest-random-weight) hashing**:
every (shard, key) pair is scored with SHA-256 and the key lives on the
highest-scoring shard.  Compared to modulo placement this keeps the map
stable under resharding — adding one shard to N only moves the keys whose
new top score is the new shard, an expected ``1/(N+1)`` fraction, instead
of reshuffling almost everything.

Two generalisations of the single-owner scheme live here:

* **Replication factor R** — :meth:`StoreRouter.shards_for` returns the
  top-R rendezvous winners in score order.  Writes go to every owner;
  reads try owners in score order and fail over to the next replica when
  one is down (that policy lives in :mod:`repro.serve.replicas`).
* **Joining membership** — during a live reshard
  (:mod:`repro.serve.reshard`) the router carries one *joining* shard:
  :meth:`owners` returns the owner set under the **union** of the old and
  new memberships, so a key mid-migration is reachable through whichever
  owner currently holds it, and a write lands everywhere it will be
  looked for.  :meth:`complete_reshard` commits the new membership once
  the moved keys have been copied.

Image keys are already SHA-256 content hashes, so scores distribute
uniformly and shards stay balanced without virtual nodes.

Routing only ever reads shard *names*, so the router is generic over its
shards (:class:`Shard`): local :class:`~repro.store.store.ImageStore`
objects in-process, :class:`~repro.serve.proxy.RemoteShard` worker groups
behind the proxy.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Generic, Iterator, List, Optional, Protocol, Sequence, Set, Tuple, TypeVar

from repro.exceptions import ConfigError
from repro.store.store import ImageStore

__all__ = ["Shard", "StoreRouter", "rendezvous_score", "rendezvous_shard"]


class Shard(Protocol):
    """What a router needs of a shard: placement reads only its name."""

    def close(self) -> None:
        """Release the shard's files or connections."""


S = TypeVar("S", bound=Shard)


def rendezvous_score(shard_name: str, key: str) -> int:
    """The 64-bit rendezvous weight of ``key`` on ``shard_name``."""
    digest = hashlib.sha256(("%s|%s" % (shard_name, key)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_shard(shard_names: Sequence[str], key: str) -> int:
    """Index of the winning shard for ``key`` (ties broken by name)."""
    if not shard_names:
        raise ConfigError("rendezvous routing needs at least one shard")
    return max(
        range(len(shard_names)),
        key=lambda index: (rendezvous_score(shard_names[index], key), shard_names[index]),
    )


def _ranked(shard_names: Sequence[str], key: str) -> List[str]:
    """Shard names ordered by descending rendezvous score (ties by name,
    consistent with :func:`rendezvous_shard`'s winner)."""
    return sorted(
        shard_names,
        key=lambda name: (rendezvous_score(name, key), name),
        reverse=True,
    )


class StoreRouter(Generic[S]):
    """Route content keys across a set of named shards.

    Parameters
    ----------
    stores:
        One opened shard per name: an :class:`ImageStore`, or a
        :class:`~repro.serve.proxy.RemoteShard` behind the proxy.
    names:
        Stable shard names (they are the hash inputs, so renaming a shard
        moves its keys).  Default: ``shard-00`` .. ``shard-NN``.
    replication:
        How many rendezvous winners own each key.  ``1`` (default) is the
        classic single-owner layout; with ``R > 1`` writes fan out to the
        top-R shards and reads can fail over between them.  A factor
        larger than the shard count degrades gracefully to "every shard".

    Membership is mutable only through :meth:`begin_reshard` /
    :meth:`complete_reshard`; every query method snapshots the membership
    under the router lock, so concurrent reads observe a consistent view.
    """

    def __init__(
        self,
        stores: Sequence[S],
        names: Sequence[str] = (),
        replication: int = 1,
    ) -> None:
        if not stores:
            raise ConfigError("a router needs at least one store shard")
        if not names:
            names = ["shard-%02d" % index for index in range(len(stores))]
        if len(names) != len(stores):
            raise ConfigError(
                "got %d shard name(s) for %d store(s)" % (len(names), len(stores))
            )
        if len(set(names)) != len(names):
            raise ConfigError("shard names must be unique, got %r" % (list(names),))
        if replication < 1:
            raise ConfigError("replication factor must be >= 1, got %d" % replication)
        self._stores: List[S] = list(stores)
        self._names: List[str] = list(names)
        self._replication = replication
        self._lock = threading.Lock()
        #: Name of the shard currently joining through a live reshard.
        self._joining: Optional[str] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._stores)

    def __iter__(self) -> Iterator[S]:
        return iter(self.stores)

    @property
    def names(self) -> List[str]:
        with self._lock:
            return list(self._names)

    @property
    def stores(self) -> List[S]:
        with self._lock:
            return list(self._stores)

    @property
    def replication(self) -> int:
        """The configured replication factor (may exceed the shard count)."""
        return self._replication

    @property
    def joining(self) -> Optional[str]:
        """Name of the shard a live reshard is migrating onto, if any."""
        with self._lock:
            return self._joining

    def _snapshot(self) -> Tuple[List[str], Dict[str, S], Optional[str]]:
        with self._lock:
            return (
                list(self._names),
                dict(zip(self._names, self._stores)),
                self._joining,
            )

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    def shards_for(self, key: str, r: Optional[int] = None) -> List[int]:
        """Indices of the top-``r`` rendezvous winners for ``key``, best first.

        ``r`` defaults to the router's replication factor and is clamped
        to the shard count.  Index 0 is the *primary* — the shard
        :meth:`shard_index` names.
        """
        if r is not None and r < 1:
            raise ConfigError("owner count must be >= 1, got %d" % r)
        names, _, _ = self._snapshot()
        count = min(self._replication if r is None else r, len(names))
        index_of = {name: index for index, name in enumerate(names)}
        return [index_of[name] for name in _ranked(names, key)[:count]]

    def shard_index(self, key: str) -> int:
        """The primary shard index ``key`` routes to."""
        names, _, _ = self._snapshot()
        return rendezvous_shard(names, key)

    def shard_name(self, key: str) -> str:
        names, _, _ = self._snapshot()
        return names[rendezvous_shard(names, key)]

    def store_for(self, key: str) -> S:
        """The primary shard for ``key`` (single-owner view)."""
        names, by_name, _ = self._snapshot()
        return by_name[names[rendezvous_shard(names, key)]]

    def owners(self, key: str) -> List[Tuple[str, S]]:
        """Every (name, shard) that owns ``key``, best score first.

        Under stable membership this is the top-R rendezvous winners.
        While a reshard is in flight it is the **union** of the owners
        under the old membership (without the joining shard) and the new
        one (with it) — a key mid-migration is reachable through whichever
        owner currently holds its bytes, and a write must land everywhere
        a reader may look.
        """
        names, by_name, joining = self._snapshot()
        ranked = _ranked(names, key)
        owner_names: Set[str] = set(ranked[: self._replication])
        if joining is not None:
            # Dropping a shard leaves the others' rendezvous order as it was.
            previous = [name for name in ranked if name != joining]
            owner_names.update(previous[: self._replication])
        return [(name, by_name[name]) for name in ranked if name in owner_names]

    # ------------------------------------------------------------------ #
    # live resharding membership
    # ------------------------------------------------------------------ #

    def begin_reshard(self, store: S, name: str) -> None:
        """Add ``store`` as a joining shard (N -> N+1 live reshard).

        Placement immediately includes the new shard, but until
        :meth:`complete_reshard` the old owners stay in every key's
        :meth:`owners` set, so reads keep succeeding while
        :mod:`repro.serve.reshard` copies the moved keys over.
        """
        with self._lock:
            if self._joining is not None:
                raise ConfigError(
                    "a reshard onto %r is already in progress" % self._joining
                )
            if name in self._names:
                raise ConfigError("shard name %r is already in the membership" % name)
            self._stores.append(store)
            self._names.append(name)
            self._joining = name

    def complete_reshard(self) -> str:
        """Commit the joining shard as a full member; returns its name."""
        with self._lock:
            if self._joining is None:
                raise ConfigError("no reshard is in progress")
            name = self._joining
            self._joining = None
            return name

    # ------------------------------------------------------------------ #
    # enumeration and diagnostics
    # ------------------------------------------------------------------ #

    def keys(self: "StoreRouter[ImageStore]") -> Iterator[str]:
        """Every distinct key stored across all shards.

        Replication and mid-migration resharding legitimately place the
        same content key on several shards; the stream is deduplicated so
        consumers (GC sweeps, audits) see each key exactly once.
        """
        seen: Set[str] = set()
        for store in self.stores:
            for key in store.keys():
                if key not in seen:
                    seen.add(key)
                    yield key

    def stats(self: "StoreRouter[ImageStore]") -> List[Dict[str, object]]:
        """Per-shard backend + cache counters, routing name included."""
        names, by_name, joining = self._snapshot()
        return [
            dict(by_name[name].stats(), name=name, joining=(name == joining))
            for name in names
        ]

    def close(self) -> None:
        for store in self.stores:
            store.close()
