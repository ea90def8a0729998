"""Tests for the hash-sharded store frontend and the batched hot path.

Covers :class:`repro.store.ShardedStore` / :class:`ShardedStoreClient`
(deterministic routing, per-shard revisions, scatter-gather list,
single-shard transactions, merged watch streams, fault delegation),
server-side watch batching, the client hot-path optimizations through
the sharded router, and the MemKV restart/revision-monotonicity
regression.
"""

import pytest

from repro.errors import NotFoundError, StoreError
from repro.store import (
    ApiServer,
    MemKV,
    MemKVClient,
    ShardedStore,
    ShardedStoreClient,
    ShardRing,
)

SHARDS = 3


@pytest.fixture
def store(env, zero_net):
    """A 3-way MemKV-sharded store with immediate watch delivery."""
    shards = [
        MemKV(env, zero_net, location=f"shard-{i}", watch_overhead=0.0)
        for i in range(SHARDS)
    ]
    return ShardedStore(shards, name="kv")


@pytest.fixture
def client(store):
    return ShardedStoreClient(store, "driver")


def keys_on_shard(shard, count=2, shard_count=SHARDS, tag="k"):
    """First ``count`` keys (deterministically) owned by ``shard``."""
    ring = ShardRing.for_count(shard_count)
    found = []
    i = 0
    while len(found) < count:
        key = f"{tag}/{i}"
        if ring.owner_index(key) == shard:
            found.append(key)
        i += 1
    return found


class TestRouting:
    def test_shard_index_is_deterministic_and_in_range(self):
        for key in ("order/o00001", "cart/u7", "k/0", ""):
            first = ShardRing.for_count(4).owner_index(key)
            assert first == ShardRing.for_count(4).owner_index(key)
            assert 0 <= first < 4

    def test_every_key_lands_on_its_computed_shard(self, store, client, call):
        keys = [f"k/{i}" for i in range(12)]
        for key in keys:
            call(client.create(key, {"n": 1}))
        for key in keys:
            owner = store.shard_for(key)
            probe = MemKVClient(owner, "probe")
            assert call(probe.get(key))["key"] == key
            for shard in store.shards:
                if shard is owner:
                    continue
                with pytest.raises(NotFoundError):
                    call(MemKVClient(shard, "probe").get(key))

    def test_heterogeneous_shards_rejected(self, env, zero_net):
        with pytest.raises(StoreError):
            ShardedStore([
                MemKV(env, zero_net, location="a"),
                ApiServer(env, zero_net, location="b"),
            ])

    def test_empty_shard_list_rejected(self):
        with pytest.raises(StoreError):
            ShardedStore([])


class TestCrud:
    def test_round_trip_through_router(self, client, call):
        call(client.create("k/1", {"v": 1}))
        call(client.update("k/1", {"v": 2}))
        call(client.patch("k/1", {"note": "hi"}))
        view = call(client.get("k/1"))
        assert view["data"] == {"v": 2, "note": "hi"}
        call(client.delete("k/1"))
        with pytest.raises(NotFoundError):
            call(client.get("k/1"))

    def test_revisions_are_per_shard(self, store, client, call):
        for i in range(12):
            call(client.create(f"k/{i}", {"n": i}))
        revisions = store.revisions
        assert set(revisions) == {s.location for s in store.shards}
        # No global counter: total commits split across shard counters.
        assert sum(revisions.values()) == 12
        assert sum(1 for r in revisions.values() if r > 0) >= 2

    def test_op_counts_aggregate_across_shards(self, store, client, call):
        for i in range(6):
            call(client.create(f"k/{i}", {"n": i}))
        assert store.op_counts["create"] == 6


class TestList:
    def test_scatter_gather_merges_sorted(self, client, call):
        keys = [f"k/{i:02d}" for i in range(10)]
        for key in reversed(keys):
            call(client.create(key, {"n": 1}))
        views = call(client.list())
        assert [v["key"] for v in views] == keys

    def test_list_respects_prefix(self, client, call):
        call(client.create("a/1", {}))
        call(client.create("a/2", {}))
        call(client.create("b/1", {}))
        views = call(client.list(key_prefix="a/"))
        assert [v["key"] for v in views] == ["a/1", "a/2"]


class TestTxn:
    def test_single_shard_txn_commits(self, client, call):
        first, second = keys_on_shard(shard=0)
        views = call(client.txn([
            {"action": "create", "key": first, "data": {"n": 1}},
            {"action": "create", "key": second, "data": {"n": 2}},
        ]))
        assert [v["key"] for v in views] == [first, second]

    def test_cross_shard_txn_fails_with_store_error(self, client, call):
        [on_zero] = keys_on_shard(shard=0, count=1)
        [on_one] = keys_on_shard(shard=1, count=1)
        with pytest.raises(StoreError, match="cross-shard"):
            call(client.txn([
                {"action": "create", "key": on_zero, "data": {}},
                {"action": "create", "key": on_one, "data": {}},
            ]))

    def test_cross_shard_txn_leaves_no_partial_state(self, client, call):
        [on_zero] = keys_on_shard(shard=0, count=1)
        [on_one] = keys_on_shard(shard=1, count=1)
        with pytest.raises(StoreError):
            call(client.txn([
                {"action": "create", "key": on_zero, "data": {}},
                {"action": "create", "key": on_one, "data": {}},
            ]))
        assert call(client.list()) == []


class TestMergedWatch:
    def test_merges_events_from_every_shard(self, env, client, call):
        seen = []
        client.watch(lambda e: seen.append((e.type, e.key)))
        keys = [f"k/{i}" for i in range(9)]
        for key in keys:
            call(client.create(key, {"n": 1}))
        env.run()
        assert sorted(seen) == sorted(("ADDED", key) for key in keys)

    def test_per_key_order_matches_commit_order(self, env, client, call):
        seen = {}
        client.watch(lambda e: seen.setdefault(e.key, []).append(e.type))
        for key in ("k/1", "k/2"):
            call(client.create(key, {"v": 0}))
            call(client.update(key, {"v": 1}))
            call(client.delete(key))
        env.run()
        for key in ("k/1", "k/2"):
            assert seen[key] == ["ADDED", "MODIFIED", "DELETED"]

    def test_interest_filter_applies_on_every_shard(self, env, client, call):
        seen = []
        client.watch(lambda e: seen.append(e.key), key_prefix="hot/")
        for i in range(6):
            call(client.create(f"hot/{i}", {}))
            call(client.create(f"cold/{i}", {}))
        env.run()
        assert sorted(seen) == [f"hot/{i}" for i in range(6)]

    def test_delivered_counts_aggregate(self, env, client, call):
        merged = client.watch(lambda e: None)
        for i in range(5):
            call(client.create(f"k/{i}", {}))
        env.run()
        assert merged.delivered == 5
        assert merged.active

    def test_cancel_fans_out_to_all_shards(self, env, client, call):
        seen = []
        merged = client.watch(seen.append)
        merged.cancel()
        assert not merged.active
        for i in range(4):
            call(client.create(f"k/{i}", {}))
        env.run()
        assert seen == []

    def test_one_shard_failover_closes_whole_stream_once(
        self, env, store, client, call
    ):
        closed = []
        merged = client.watch(lambda e: None, on_close=lambda: closed.append(1))
        # Break ONE shard's stream: the merged stream is invalidated as a
        # whole (events from that shard would silently go missing), and
        # on_close fires exactly once even though cancellation races the
        # other shards' own close notifications.
        store.shards[1].fail_over()
        env.run()
        assert closed == [1]
        assert not merged.active

    def test_fault_surface_delegates_to_every_shard(self, env, store, client, call):
        call(client.create("k/1", {}))
        assert store.available
        store.crash()
        assert not store.available
        assert store.crash_count == SHARDS
        store.restart()
        assert store.available


class TestWatchBatching:
    def make_store(self, env, zero_net, window):
        shards = [
            MemKV(env, zero_net, location=f"shard-{i}", watch_overhead=0.0,
                  watch_batch_window=window)
            for i in range(SHARDS)
        ]
        return ShardedStore(shards, name="kv")

    def run_burst(self, env, store, rounds=6):
        client = ShardedStoreClient(store, "driver")
        seen = {}
        client.watch(lambda e: seen.setdefault(e.key, []).append(e.revision))
        keys = [f"k/{i}" for i in range(4)]
        for key in keys:
            env.run(until=client.create(key, {"n": 0}))
        burst = [
            client.patch(key, {"n": round_})
            for round_ in range(rounds)
            for key in keys
        ]
        env.run(until=env.all_of(burst))
        env.run()
        return seen

    def test_batching_cuts_messages_not_events(self, env, zero_net):
        unbatched = self.make_store(env, zero_net, window=0.0)
        plain = self.run_burst(env, unbatched)

        env2, net2 = type(env)(), None
        # A second, independent environment for the batched run.
        from repro.simnet import FixedLatency, Network

        net2 = Network(env2, default_latency=FixedLatency(0.0))
        batched = self.make_store(env2, net2, window=0.05)
        coalesced = self.run_burst(env2, batched)

        assert unbatched.watch_events_sent == batched.watch_events_sent
        assert batched.watch_messages_sent < unbatched.watch_messages_sent
        # Batching is invisible to the consumer: same per-key revisions
        # in the same order.
        assert plain == coalesced

    def test_sharded_store_reports_max_batch_window(self, env, zero_net):
        store = self.make_store(env, zero_net, window=0.01)
        assert store.watch_batch_window == 0.01


class TestHotPathThroughRouter:
    def test_write_coalescing_merges_inflight_patches(self, env, client, call):
        call(client.create("k/1", {"base": True}))
        client.coalesce_writes = True
        assert client.coalesce_writes
        first = client.patch("k/1", {"a": 1})
        second = client.patch("k/1", {"b": 2})
        third = client.patch("k/1", {"a": 3})
        env.run(until=env.all_of([first, second, third]))
        assert client.patches_coalesced == 2
        data = call(client.get("k/1"))["data"]
        assert data == {"base": True, "a": 3, "b": 2}

    def test_read_cache_serves_hits_locally(self, env, store, client, call):
        writer = ShardedStoreClient(store, "writer")
        call(writer.create("k/1", {"v": 1}))
        client.enable_read_cache()
        env.run()  # warm the mirrors (list) and drain watch deliveries
        gets_before = store.op_counts.get("get", 0)
        view = call(client.get("k/1"))
        assert view["data"] == {"v": 1}
        assert client.cache_hits == 1
        assert store.op_counts.get("get", 0) == gets_before


class TestMemKVRestartRevisions:
    def test_rewatch_after_restart_never_rewinds_revisions(
        self, env, zero_net, call
    ):
        """Regression: a watcher that re-attaches after ``restart()`` must
        never observe a revision at or below one it was already delivered
        (MemKV loses its objects on crash, but intentionally NOT its
        revision counter)."""
        kv = MemKV(env, zero_net, watch_overhead=0.0)
        client = MemKVClient(kv, "watcher")
        delivered = []

        def record(event):
            delivered.append((event.key, event.revision))

        def rewatch():
            client.watch(record, on_close=rewatch)

        client.watch(record, on_close=rewatch)
        call(client.create("a", {"v": 1}))
        call(client.update("a", {"v": 2}))
        call(client.create("b", {"v": 1}))
        env.run()
        assert delivered, "sanity: the pre-crash watch delivered events"
        high_water = max(revision for _, revision in delivered)

        kv.crash()
        env.run()  # keepalive detects the break; on_close re-watches
        kv.restart()
        before_restart = len(delivered)
        call(client.create("a", {"v": 3}))  # state was volatile: recreate
        call(client.create("c", {"v": 1}))
        env.run()

        post = [revision for _, revision in delivered[before_restart:]]
        assert post, "sanity: the re-attached watch delivered events"
        assert min(post) > high_water
        revisions = [revision for _, revision in delivered]
        assert all(b > a for a, b in zip(revisions, revisions[1:]))
