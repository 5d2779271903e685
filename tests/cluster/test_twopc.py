"""Two-phase commit behavior of the sharded cluster.

Covers the protocol's steady-state contract: cross-shard atomic
commit/abort, the single-shard fast path logging no 2PC records at
all, the read-only vote optimization, deterministic routing, scan
fan-out, and the ShardRouter front-end speaking the unmodified wire
protocol (including its deliberate unsupported-op surface).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import Cluster, ShardRouter, shard_for_key
from repro.cluster.routing import key_bytes
from repro.common.errors import (
    SessionStateError,
    TwoPhaseAbortError,
    UniqueKeyViolationError,
)
from repro.wal.records import RecordKind


def cross_shard_keys(num_shards: int, count: int = 2, start: int = 0):
    """``count`` keys, all on distinct shards."""
    keys: dict[int, int] = {}
    key = start
    while len(keys) < count:
        shard = shard_for_key(key, num_shards)
        if shard not in keys:
            keys[shard] = key
        key += 1
    return [keys[s] for s in sorted(keys)]


@pytest.fixture
def cluster():
    with Cluster(num_shards=3) as c:
        c.create_table("t")
        c.create_index("t", "by_id", column="id", unique=True)
        yield c


def test_routing_is_stable_and_total():
    for key in (0, 1, 7, 2**40, -3, "abc", b"abc", 3.5, True, False):
        shard = shard_for_key(key, 3)
        assert 0 <= shard < 3
        assert shard == shard_for_key(key, 3)
    # Distinct canonical forms: 1 (int) vs True vs "1" must not collide
    # by type confusion.
    assert key_bytes(1) != key_bytes(True)
    assert key_bytes(1) != key_bytes("1")
    assert key_bytes(b"x") != key_bytes("x")


def test_cross_shard_commit_is_atomic(cluster):
    a, b = cross_shard_keys(3, 2, start=100)
    client = cluster.client()
    with client.transaction():
        client.insert("t", {"id": a, "val": "a"})
        client.insert("t", {"id": b, "val": "b"})
    assert client.fetch("t", "by_id", a)["val"] == "a"
    assert client.fetch("t", "by_id", b)["val"] == "b"
    # The decision was forced, delivered, and ENDed.
    gid = client.last_gid
    assert cluster.coordinator.decision_for(gid) == "commit"
    assert gid not in cluster.coordinator.outstanding_commits()
    client.close()


def test_cross_shard_abort_aborts_every_branch(cluster):
    a, b = cross_shard_keys(3, 2, start=200)
    client = cluster.client()
    client.insert("t", {"id": b, "val": "old"})  # autocommit seed
    with pytest.raises(UniqueKeyViolationError):
        with client.transaction():
            client.insert("t", {"id": a, "val": "new"})
            client.insert("t", {"id": b, "val": "new"})  # duplicate key
    # The duplicate aborted the whole global transaction: a's branch
    # must be gone too, b keeps its old value.
    assert client.fetch("t", "by_id", a) is None
    assert client.fetch("t", "by_id", b)["val"] == "old"
    client.close()


def test_single_shard_transaction_logs_no_2pc_records(cluster):
    client = cluster.client()
    with client.transaction():
        client.insert("t", {"id": 1, "val": "x"})
    stats = client.server_stats("txn.prepared")
    assert stats.get("txn.prepared", 0) == 0
    for shard in cluster.shards:
        kinds = {r.kind for r in shard.db.log.records()}
        assert RecordKind.PREPARE not in kinds
    # Nothing on the coordinator log either.
    assert list(cluster.coordinator.log.records()) == []
    client.close()


def test_read_only_branches_vote_read_only(cluster):
    a, b = cross_shard_keys(3, 2, start=300)
    client = cluster.client()
    client.insert("t", {"id": a, "val": "seed"})
    before = client.server_stats("txn.prepared").get("txn.prepared", 0)
    with client.transaction():
        assert client.fetch("t", "by_id", a)["val"] == "seed"  # read branch
        client.insert("t", {"id": b, "val": "w"})  # write branch
    # Only the writer prepares (the read branch votes read-only and
    # drops out before the decision)...
    after = client.server_stats("txn.prepared").get("txn.prepared", 0)
    assert after == before + 1
    assert client.fetch("t", "by_id", b)["val"] == "w"
    # The lone-writer commit needs no coordinator decision record.
    assert list(cluster.coordinator.log.records()) == []
    client.close()


def test_fully_read_only_transaction_commits_without_decision(cluster):
    a, b = cross_shard_keys(3, 2, start=400)
    client = cluster.client()
    client.insert("t", {"id": a, "val": "1"})
    client.insert("t", {"id": b, "val": "2"})
    with client.transaction():
        assert client.fetch("t", "by_id", a) is not None
        assert client.fetch("t", "by_id", b) is not None
    assert list(cluster.coordinator.log.records()) == []
    client.close()


def test_scan_fans_out_and_merges_sorted(cluster):
    client = cluster.client()
    keys = list(range(20))
    for key in keys:
        client.insert("t", {"id": key, "val": f"v{key}"})
    # Rows live on all three shards...
    assert len({shard_for_key(k, 3) for k in keys}) == 3
    rows = client.scan("t", "by_id")
    assert [row["id"] for row in rows] == keys
    rows = client.scan("t", "by_id", low=5, high=11)
    assert [row["id"] for row in rows] == list(range(5, 12))
    rows = client.scan("t", "by_id", limit=7)
    assert [row["id"] for row in rows] == keys[:7]
    client.close()


def test_coordinator_crash_during_decision_is_definite_abort(cluster):
    a, b = cross_shard_keys(3, 2, start=500)
    client = cluster.client()
    cluster.coordinator.log.halt()  # the force at the commit point fails
    with pytest.raises(TwoPhaseAbortError):
        with client.transaction():
            client.insert("t", {"id": a, "val": "a"})
            client.insert("t", {"id": b, "val": "b"})
    cluster.coordinator.log.resume()
    # Presumed abort: no decision record, no row anywhere, no in-doubt
    # branch left behind.
    assert client.fetch("t", "by_id", a) is None
    assert client.fetch("t", "by_id", b) is None
    assert all(not gids for gids in cluster.indoubt_gids().values())
    client.close()


class TestShardRouter:
    @pytest.fixture
    def router_client(self, cluster):
        router = ShardRouter(cluster).start(listen=True)
        client = router.connect()
        yield client
        client.close()
        router.shutdown()

    def test_wire_protocol_round_trip(self, router_client):
        client = router_client
        assert client.ping()
        client.insert("t", {"id": 42, "val": "w"})
        assert client.fetch("t", "by_id", 42)["val"] == "w"
        client.delete_by_key("t", "by_id", 42)
        assert client.fetch("t", "by_id", 42) is None

    def test_cross_shard_transaction_over_the_wire(self, router_client):
        client = router_client
        a, b = cross_shard_keys(3, 2, start=600)
        with client.transaction():
            client.insert("t", {"id": a, "val": "a"})
            client.insert("t", {"id": b, "val": "b"})
        rows = client.scan("t", "by_id")
        assert {row["id"] for row in rows} == {a, b}

    def test_duplicate_key_error_round_trips(self, router_client):
        client = router_client
        client.insert("t", {"id": 7, "val": "x"})
        with pytest.raises(UniqueKeyViolationError):
            client.insert("t", {"id": 7, "val": "y"})

    def test_savepoints_rejected(self, router_client):
        with pytest.raises(SessionStateError):
            router_client.savepoint("sp")

    def test_2pc_internal_ops_rejected(self, router_client):
        with pytest.raises(SessionStateError):
            router_client.prepare("gid-1")
        with pytest.raises(SessionStateError):
            router_client.decide("gid-1", "commit")

    def test_status_aggregates_shards(self, router_client):
        status = router_client.server_status()
        assert status["state"] == "steady"
        assert len(status["shards"]) == 3

    def test_shutdown_stops_the_accept_thread_promptly(self, cluster):
        router = ShardRouter(cluster).start(listen=True)
        started = time.monotonic()
        router.shutdown()
        assert time.monotonic() - started < 1.0
        assert not any(
            t.name == "router-accept" and t.is_alive()
            for t in threading.enumerate()
        )
