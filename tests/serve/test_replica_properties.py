"""Property-based conformance of the replica policy (``serve/replicas.py``).

Hypothesis scripts one outcome per owner of a key — success, a miss, an
owner failure or an error that is the answer at once, raised as a local
exception or as a proxied worker reply — and checks the policy against
a plain model of its rules: which owners are tried and in what order,
the verdict, and the health and counter calls.  Reads, writes (stores)
and tombstones (deletes, which miss far more often) all run through the
blocking ``Replicas.run`` and the awaitable ``Replicas.arun``, which must
agree.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import (
    BitstreamError,
    BlobNotFoundError,
    ConfigError,
    DeadlineExceededError,
    StoreError,
)
from repro.serve.deadline import Deadline, RequestContext
from repro.serve.health import HealthTracker
from repro.serve.replicas import OwnerReply, Replicas
from repro.serve.router import StoreRouter
from repro.serve.stats import ServerStats

KEY = "ab" * 32

#: Scripted outcome -> the error an attempt raises for it (None: success).
#: Each failure code appears both as a local exception and as a worker reply.
OUTCOMES = {
    "ok": None,
    "not_found": lambda: BlobNotFoundError("no blob stored under that key"),
    "not_found_reply": lambda: OwnerReply("not_found", "404 reply"),
    "upstream_unhealthy": lambda: StoreError("backend is gone"),
    "unreachable_reply": lambda: OwnerReply("upstream_unhealthy", "503 reply"),
    "internal": lambda: BitstreamError("component index CRC mismatch"),
    "internal_reply": lambda: OwnerReply("internal", "500 reply"),
    "draining_reply": lambda: OwnerReply("draining", "503 reply"),
    "bad_request": lambda: ConfigError("plane 9 out of range"),
    "bad_request_reply": lambda: OwnerReply("bad_request", "400 reply"),
    "shed_reply": lambda: OwnerReply("shed", "429 reply"),
    "deadline": lambda: DeadlineExceededError("request ran past its deadline"),
    "deadline_reply": lambda: OwnerReply("deadline", "504 reply"),
}

#: The envelope code each scripted outcome stands for.
CODES = {name: name.replace("_reply", "") for name in OUTCOMES}
CODES["unreachable_reply"] = "upstream_unhealthy"

#: The rules under test, written out here rather than imported.
MISSED = "not_found"
FAILED = {"upstream_unhealthy", "internal", "draining"}


class _Shard:
    def __init__(self, name):
        self.name = name

    def close(self):
        pass


def _policy(shards, down):
    names = ["shard-%02d" % index for index in range(shards)]
    router = StoreRouter([_Shard(name) for name in names], names, replication=shards)
    health = HealthTracker(names=names, down_after=1)
    for name in down:
        if name in names:
            health.record_failure(name)
    return Replicas(router, health, ServerStats())


def _model(order, script, reading):
    """(owners tried, owners that took it, the code the verdict raises)."""
    tried, taken = [], []
    for name in order:
        if reading and taken:
            break
        tried.append(name)
        code = CODES[script[name]]
        if code == "ok":
            taken.append(name)
        elif code != MISSED and code not in FAILED:
            return tried, taken, code
    if taken:
        return tried, taken, None
    codes = {CODES[script[name]] for name in tried}
    return tried, taken, ("failed" if codes & FAILED else MISSED)


def _run(replicas, script, reading, runner):
    """Run one scripted operation; (tried, returned names, raised error)."""
    tried = []

    def attempt(shard):
        tried.append(shard.name)
        make_error = OUTCOMES[script[shard.name]]
        if make_error is not None:
            raise make_error()
        return "value of %s" % shard.name

    async def async_attempt(shard):
        return attempt(shard)

    try:
        if runner == "run":
            taken = replicas.run(KEY, attempt, reading)
        else:
            taken = asyncio.run(replicas.arun(KEY, async_attempt, reading))
    except Exception as error:
        return tried, None, error
    assert all(value == "value of %s" % name for name, value in taken)
    return tried, [name for name, _ in taken], None


def _code(error):
    if isinstance(error, OwnerReply):
        return error.code
    return {
        BlobNotFoundError: "not_found",
        StoreError: "upstream_unhealthy",
        BitstreamError: "internal",
        ConfigError: "bad_request",
        DeadlineExceededError: "deadline",
    }[type(error)]


#: Deletes mostly miss: most owners of a tombstone target never held it.
_DELETE_OUTCOMES = ["ok", "not_found", "not_found_reply", "unreachable_reply", "draining_reply"]


@pytest.mark.parametrize("runner", ["run", "arun"])
@pytest.mark.parametrize("operation", ["read", "write", "delete"])
@given(data=st.data(), shards=st.integers(min_value=1, max_value=4))
def test_policy_matches_the_model(operation, runner, data, shards):
    names = ["shard-%02d" % index for index in range(shards)]
    choices = _DELETE_OUTCOMES if operation == "delete" else sorted(OUTCOMES)
    script = {name: data.draw(st.sampled_from(choices), label=name) for name in names}
    down = data.draw(st.sets(st.sampled_from(names)), label="down")
    replicas = _policy(shards, down)
    reading = operation == "read"
    before = replicas.health.snapshot()

    ranked = [name for name, _ in replicas.router.owners(KEY)]
    order = ranked
    if reading:
        order = [n for n in ranked if n not in down] + [n for n in ranked if n in down]
    tried, taken, error = _run(replicas, script, reading, runner)
    expected_tried, expected_taken, expected_code = _model(order, script, reading)

    # Which owners are tried, and in what order.
    assert tried == expected_tried
    # The verdict: the owners that took it, else the error that decides.
    if expected_code is None:
        assert error is None and taken == expected_taken
    else:
        assert taken is None
        code = _code(error)
        if expected_code == "failed":
            last = [name for name in tried if CODES[script[name]] in FAILED][-1]
            assert code in FAILED and code == CODES[script[last]]
        else:
            assert code == expected_code
            if expected_code == MISSED:
                assert tried == order, "a miss is the answer only when every owner missed"
    # Health: failures recorded as failures, deadlines not at all,
    # every other answer (a miss included) as a success.
    after = replicas.health.snapshot()
    for name in names:
        code = CODES[script[name]] if name in tried else "untried"
        failures = after[name]["failures"] - before[name]["failures"]
        successes = after[name]["successes"] - before[name]["successes"]
        assert failures == (1 if code in FAILED else 0), (name, code)
        assert successes == (0 if code in FAILED or code in ("deadline", "untried") else 1)
    # Counters: one owner failure per failed owner; a failover per failed
    # owner only when the operation was still served; reads and writes
    # kept apart.
    counter = "failovers" if reading else "write_failovers"
    other = "write_failovers" if reading else "failovers"
    failed = [name for name in tried if CODES[script[name]] in FAILED]
    covered = failed if expected_code is None else []
    assert replicas.stats.counter("owner_failures") == len(failed)
    assert replicas.stats.counter(counter) == len(covered)
    assert replicas.stats.counter(other) == 0
    for name in names:
        assert replicas.stats.shard_counter(name, "owner_failures") == (1 if name in failed else 0)
        assert replicas.stats.shard_counter(name, counter) == (1 if name in covered else 0)


@pytest.mark.parametrize("runner", ["run", "arun"])
def test_reads_stop_at_a_lapsed_deadline_between_owners(runner):
    replicas = _policy(3, down=())
    lapsed = RequestContext(Deadline(0.0))
    tried = []

    def attempt(shard):
        tried.append(shard.name)
        raise StoreError("backend is gone")

    async def async_attempt(shard):
        return attempt(shard)

    with pytest.raises(DeadlineExceededError):
        if runner == "run":
            replicas.run(KEY, attempt, True, lapsed)
        else:
            asyncio.run(replicas.arun(KEY, async_attempt, True, lapsed))
    # The first owner is tried (the caller checked the budget before the
    # walk); the deadline stops the failover to the second.
    assert len(tried) == 1
    # Writes are not cut short: every owner must see them.
    tried.clear()
    with pytest.raises(StoreError):
        replicas.run(KEY, attempt, False, lapsed)
    assert len(tried) == 3
