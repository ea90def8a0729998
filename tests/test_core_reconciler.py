"""Unit tests for the reconciler work loop."""

import pytest

from repro.core import Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.errors import ConfigurationError
from repro.exchange import LogDE, ObjectDE
from repro.store import ApiServer, LogLake

TASK_SCHEMA = """\
schema: App/v1/Tasks/Task
title: string
done: boolean
doneAt: number
"""


class MarkDone(Reconciler):
    """Marks every task done, recording what it saw."""

    def __init__(self):
        super().__init__("mark-done")
        self.seen = []

    def reconcile(self, ctx, key, obj):
        self.seen.append((ctx.env.now, key, None if obj is None else dict(obj)))
        if obj is not None and not obj.get("done"):
            yield ctx.store.patch(key, {"done": True, "doneAt": ctx.env.now})


@pytest.fixture
def runtime(env, zero_net):
    rt = KnactorRuntime(env, network=zero_net)
    backend = ApiServer(env, zero_net, watch_overhead=0.0)
    rt.add_exchange("object", ObjectDE(env, backend))
    return rt


def build(runtime, reconciler):
    knactor = Knactor(
        name="tasks",
        stores=[StoreBinding("default", "object", TASK_SCHEMA)],
        reconciler=reconciler,
    )
    runtime.add_knactor(knactor)
    runtime.start()
    return knactor


class TestReconcileLoop:
    def test_reacts_to_created_object(self, env, runtime, call):
        rec = MarkDone()
        build(runtime, rec)
        handle = runtime.handle_of("tasks")
        call(handle.create("t1", {"title": "write tests", "done": False}))
        env.run()
        assert call(handle.get("t1"))["data"]["done"] is True
        assert rec.reconcile_count >= 1

    def test_own_patch_triggers_requeue_but_quiesces(self, env, runtime, call):
        rec = MarkDone()
        build(runtime, rec)
        handle = runtime.handle_of("tasks")
        call(handle.create("t1", {"done": False}))
        env.run()
        # Second pass sees done=True and performs no write: quiescent.
        final_count = rec.reconcile_count
        env.run(until=env.now + 10.0)
        assert rec.reconcile_count == final_count

    def test_coalesces_rapid_updates(self, env, runtime, call):
        rec = MarkDone()
        build(runtime, rec)
        handle = runtime.handle_of("tasks")

        def burst(env):
            yield handle.create("t1", {"done": True, "title": "a"})
            yield handle.update("t1", {"done": True, "title": "b"})
            yield handle.update("t1", {"done": True, "title": "c"})

        env.run(until=env.process(burst(env)))
        env.run()
        # Level-triggered: strictly fewer reconciles than events is fine;
        # the final state must have been observed.
        assert rec.seen[-1][2]["title"] == "c"

    def test_deleted_object_reconciled_with_none(self, env, runtime, call):
        rec = MarkDone()
        build(runtime, rec)
        handle = runtime.handle_of("tasks")
        call(handle.create("t1", {"done": True}))
        env.run()
        call(handle.delete("t1"))
        env.run()
        assert rec.seen[-1][2] is None

    def test_service_time_delays_processing(self, env, runtime, call):
        class Slow(MarkDone):
            service_time = 0.5

        rec = Slow()
        build(runtime, rec)
        handle = runtime.handle_of("tasks")
        call(handle.create("t1", {"done": True}))
        env.run()
        assert rec.seen[0][0] >= 0.5

    def test_start_requires_attach(self):
        with pytest.raises(ConfigurationError):
            Reconciler("loose").start()


class TestConflictRetry:
    def test_conflicting_write_retried(self, env, runtime, call):
        class CASWriter(Reconciler):
            """Writes with a resourceVersion that races a saboteur."""

            def __init__(self):
                super().__init__("cas")
                self.conflicts_seen = 0

            def reconcile(self, ctx, key, obj):
                if obj is None or obj.get("done"):
                    return
                view = yield ctx.store.get(key)
                # A saboteur bumps the object between read and write on
                # the first attempt (see below).
                yield ctx.store.patch(
                    key, {"done": True}, resource_version=view["revision"]
                )

        rec = CASWriter()
        build(runtime, rec)
        handle = runtime.handle_of("tasks")
        call(handle.create("t1", {"done": False, "title": "x"}))
        # Sabotage: immediately bump the object so the first CAS conflicts.
        call(handle.patch("t1", {"title": "bumped"}))
        env.run()
        assert call(handle.get("t1"))["data"]["done"] is True


class TestLogSubscriptions:
    def test_log_batches_delivered(self, env, zero_net, call):
        rt = KnactorRuntime(env, network=zero_net)
        rt.add_exchange("object", ObjectDE(env, ApiServer(env, zero_net)))
        rt.add_exchange("log", LogDE(env, LogLake(env, zero_net, watch_overhead=0.0)))

        class LogWatcher(Reconciler):
            log_subscriptions = ("log",)

            def __init__(self):
                super().__init__("log-watcher")
                self.batches = []

            def on_log_batch(self, ctx, local_name, records):
                self.batches.append((local_name, records))

        rec = LogWatcher()
        knactor = Knactor(
            name="sensor",
            stores=[
                StoreBinding("default", "object", "schema: App/v1/Sensor/Cfg\nmode: string\n"),
                StoreBinding("log", "log", "schema: App/v1/Sensor/Readings\nvalue: number\n"),
            ],
            reconciler=rec,
        )
        rt.add_knactor(knactor)
        rt.start()
        log_handle = rt.handle_of("sensor", "log")
        call(log_handle.load([{"value": 1.0}, {"value": 2.0}]))
        env.run()
        assert len(rec.batches) == 1
        assert [r["value"] for r in rec.batches[0][1]] == [1.0, 2.0]


class SlowMarkDone(MarkDone):
    """A deliberately slow consumer: keys pile up in the dirty queue."""

    service_time = 0.5


class TestBoundedWorkQueue:
    """max_queue / queue_overflow: the dirty-key queue under overload."""

    def overload(self, env, runtime, call, reconciler, keys=8):
        knactor = build(runtime, reconciler)
        handle = runtime.handle_of("tasks")
        for index in range(keys):
            call(handle.create(f"t{index}", {"title": f"#{index}", "done": False}))
        env.run()
        return knactor

    def test_shed_oldest_bounds_queue_and_dead_letters(self, env, runtime,
                                                       call):
        rec = SlowMarkDone()
        rec.max_queue = 2
        self.overload(env, runtime, call, rec)
        assert rec.queue_peak <= 2
        assert rec.shed_count > 0
        assert len(rec.dead_letters) == rec.shed_count
        entry = rec.dead_letters.letters[0]
        assert "shed" in str(entry.error)
        # Level triggering makes the shed recoverable: the keys still
        # reconciled never exceed the bound's working set.
        seen_keys = {key for _, key, _ in rec.seen}
        assert len(seen_keys) < 8

    def test_shed_newest_drops_latest_arrivals(self, env, runtime, call):
        rec = SlowMarkDone()
        rec.max_queue = 2
        rec.queue_overflow = "shed_newest"
        self.overload(env, runtime, call, rec)
        assert rec.shed_count > 0
        seen_keys = {key for _, key, _ in rec.seen}
        assert "t0" in seen_keys  # earliest arrivals kept their slot

    def test_dirty_key_update_never_sheds(self, env, runtime, call):
        """A key already queued coalesces in place -- the bound only
        bites on NEW keys, so level-triggered dedup stays lossless."""
        rec = SlowMarkDone()
        rec.max_queue = 1
        build(runtime, rec)
        handle = runtime.handle_of("tasks")
        call(handle.create("t0", {"title": "a", "done": False}))
        for _ in range(5):
            call(handle.patch("t0", {"title": "a+"}))
        env.run()
        assert rec.shed_count == 0

    def test_unbounded_by_default(self, env, runtime, call):
        rec = SlowMarkDone()
        self.overload(env, runtime, call, rec, keys=12)
        assert rec.max_queue is None
        assert rec.queue_peak > 2
        assert rec.shed_count == 0

    def test_constructor_validates_policy(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="overflow"):
            MarkDoneWithBadPolicy = type(
                "Bad", (MarkDone,), {"queue_overflow": "spill"})
            MarkDoneWithBadPolicy()
