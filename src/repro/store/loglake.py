"""A Zed-lake-like Log store.

The Log Data Exchange keeps state as structured / semi-structured records
in append-only *pools* and exposes data ingestion (``load``) plus analytics
(``query``) APIs.  Queries are shared-core pipelines
(:func:`repro.query.compile_ops`) executed server-side.

Records are plain dicts; the lake stamps each with ``_seq`` (a pool-unique,
monotonically increasing sequence number) and ``_ts`` (ingest time).
Watchers subscribe per pool and receive each loaded batch.
"""

from repro.errors import AlreadyExistsError, NotFoundError, StoreError
from repro.obs.context import current_context
from repro.store.base import OpLatency, StoreClient, StoreServer, WatchEvent
from repro.store.cow import CowMap, copy_value, estimate_size, freeze
from repro.query.core import compile_ops

#: Event type for log-batch delivery (pools are append-only: no MODIFIED).
APPENDED = "APPENDED"

DEFAULT_OPS = {
    "create_pool": OpLatency(base=0.0010),
    "load": OpLatency(base=0.0008, per_byte=2e-9),
    "query": OpLatency(base=0.0010),
    "stats": OpLatency(base=0.0003),
    "pools": OpLatency(base=0.0003),
}


class _Pool:
    __slots__ = ("name", "records", "next_seq", "created_at")

    def __init__(self, name, created_at):
        self.name = name
        self.records = []
        self.next_seq = 0
        self.created_at = created_at


class LogLake(StoreServer):
    """The server side of the Log store."""

    OPS = dict(DEFAULT_OPS)

    #: Credit-paused watch buffers queue batches contiguously: every
    #: APPENDED event carries distinct records, so newest-wins coalescing
    #: would silently lose data.
    WATCH_COALESCE = "append"

    #: Server-side scan cost per record touched by a query.
    scan_cost_per_record = 2e-7

    def __init__(
        self,
        env,
        network,
        location="loglake",
        workers=1,
        tracer=None,
        ops=None,
        watch_overhead=0.0003,
        watch_batch_window=0.0,
        zero_copy=True,
        delta_watch=False,
    ):
        super().__init__(env, network, location, workers=workers, tracer=tracer,
                         watch_batch_window=watch_batch_window,
                         zero_copy=zero_copy, delta_watch=delta_watch)
        if ops:
            self.OPS = {**self.OPS, **ops}
        self._pools = {}
        self.watch_overhead = watch_overhead

    # -- operations -----------------------------------------------------------

    def op_create_pool(self, pool):
        if pool in self._pools:
            raise AlreadyExistsError(f"pool {pool!r} already exists")
        self._pools[pool] = _Pool(pool, self.env.now)
        return {"pool": pool}

    def op_load(self, pool, records):
        """Append a batch of records; returns the assigned seq range."""
        target = self._pool(pool)
        if not isinstance(records, list):
            raise StoreError("load expects a list of records")
        first_seq = target.next_seq
        stamped = []
        for record in records:
            if not isinstance(record, dict):
                raise StoreError(f"records must be dicts, got {type(record).__name__}")
            if self.zero_copy:
                # One frozen row shared by the pool, watch events, and
                # every later scan; the stamp fields ride the freeze.
                row = CowMap({
                    **freeze(record, self.copy_meter, "ingest"),
                    "_seq": target.next_seq,
                    "_ts": self.env.now,
                })
            else:
                row = copy_value(record, self.copy_meter, "ingest")
                row["_seq"] = target.next_seq
                row["_ts"] = self.env.now
            target.next_seq += 1
            stamped.append(row)
        target.records.extend(stamped)
        if self.tracer is not None:
            self.tracer.record(
                "store", "load", location=self.location, pool=pool,
                count=len(stamped),
            )
        if stamped:
            ctx = current_context()
            if ctx is not None and ctx.sink is not None:
                ctx = ctx.sink.point(
                    "load", service=self.location, parent=ctx, pool=pool,
                    store=pool, count=len(stamped),
                )
            event = WatchEvent(
                APPENDED, pool, {"records": stamped, "first_seq": first_seq},
                revision=target.next_seq,
                ctx=ctx, committed_at=self.env.now,
            )
            if self.watch_overhead <= 0:
                self.notify(event)
            else:
                timer = self.env.timeout(self.watch_overhead)
                timer.callbacks.append(lambda _evt: self.notify(event))
        return {"pool": pool, "first_seq": first_seq, "count": len(stamped)}

    def op_query(self, pool, ops=(), since_seq=None, until_seq=None,
                 include_watermark=False):
        """Run a ZQL pipeline over the pool (optionally a seq range).

        ``since_seq`` is inclusive, ``until_seq`` exclusive.  Implemented
        as a sub-process: scan time is proportional to the number of
        records scanned.

        ``include_watermark=True`` is the federation scan hook: the
        answer becomes ``{"records": [...], "watermark": next_seq}`` so
        a federated read (or a materialized view's catch-up) can stamp
        the exact sequence point its snapshot covers and resume from it
        without re-scanning.
        """
        target = self._pool(pool)
        watermark = target.next_seq
        scanned = [
            r
            for r in target.records
            if (since_seq is None or r["_seq"] >= since_seq)
            and (until_seq is None or r["_seq"] < until_seq)
        ]
        pipeline = compile_ops(list(ops))

        def run(env):
            delay = len(scanned) * self.scan_cost_per_record
            if delay > 0:
                yield env.timeout(delay)
            if self.zero_copy:
                # ZQL stages copy-before-mutate, so frozen rows flow
                # through the pipeline directly: the per-row deep copy
                # this scan used to pay is gone.
                for row in scanned:
                    self.copy_meter.shared(estimate_size(row))
                records = pipeline(list(scanned))
            else:
                records = pipeline(
                    [copy_value(r, self.copy_meter, "scan") for r in scanned]
                )
            if include_watermark:
                return {"records": records, "watermark": watermark}
            return records

        return run(self.env)

    def op_stats(self, pool):
        target = self._pool(pool)
        return {
            "pool": pool,
            "records": len(target.records),
            "next_seq": target.next_seq,
            "created_at": target.created_at,
        }

    def op_pools(self):
        return sorted(self._pools)

    # -- internals ------------------------------------------------------------

    def _pool(self, name):
        pool = self._pools.get(name)
        if pool is None:
            raise NotFoundError(f"pool {name!r} not found")
        return pool


class LogLakeClient(StoreClient):
    """Typed convenience client for the Log store."""

    def create_pool(self, pool):
        return self.request("create_pool", pool=pool)

    def load(self, pool, records):
        return self.request("load", pool=pool, records=records)

    def query(self, pool, ops=(), since_seq=None, until_seq=None,
              include_watermark=False):
        return self.request(
            "query", pool=pool, ops=list(ops),
            since_seq=since_seq, until_seq=until_seq,
            include_watermark=include_watermark,
        )

    def stats(self, pool):
        return self.request("stats", pool=pool)

    def pools(self):
        return self.request("pools")

    def watch_pool(self, pool, handler, credits=None, overflow=None):
        """Subscribe to batches appended to ``pool``."""
        return self.watch(handler, key_prefix=pool, credits=credits,
                          overflow=overflow)
