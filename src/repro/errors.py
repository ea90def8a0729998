"""Exception hierarchy shared across the Knactor reproduction.

Subsystems define their own narrow exceptions, all rooted at
:class:`ReproError` so callers can catch framework errors without also
swallowing programming errors (``TypeError`` and friends).
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A component was constructed or reconfigured with invalid settings."""


class SchemaError(ReproError):
    """Schema definition, registration, or validation failure."""


class StoreError(ReproError):
    """Base class for data-store failures."""


class NotFoundError(StoreError):
    """The requested key/object/pool does not exist."""


class QueryError(StoreError):
    """A declarative query is malformed or failed mid-pipeline.

    Raised by the shared query core (:mod:`repro.query`) for bad
    operator specs, unknown operators/aggregations, a ``sort`` over a
    field no record carries, and un-orderable mixed-type sorts -- always
    naming the offending operator spec in the message.  Subclasses
    :class:`StoreError` so store-level handlers catch it too.
    """


class ConflictError(StoreError):
    """Optimistic-concurrency conflict: the object changed under the writer."""


class AlreadyExistsError(StoreError):
    """Create was attempted for a key that already exists."""


class CrossShardTxnError(StoreError):
    """A transaction's keys span multiple shards and no cross-shard mode
    was selected.

    Single-shard transactions stay the default because they are atomic
    for free (one server, one commit order).  A batch whose keys hash to
    several shards must opt into the cross-shard transactional plane:
    ``txn(ops, mode="2pc")`` (atomic, blocks on in-doubt participants) or
    ``txn(ops, mode="saga")`` (available, compensates on failure) -- see
    ``docs/transactions.md``.

    ``shard_map`` carries the offending ``key -> owner shard`` mapping
    (shard *locations*, not positional indices, so the report stays
    meaningful across live resharding) and ``ring_version`` records the
    ring version the ownership was computed at.
    """

    def __init__(self, message, shard_map=None, ring_version=None):
        super().__init__(message)
        self.shard_map = dict(shard_map or {})
        self.ring_version = ring_version


class ShardMovedError(StoreError):
    """The addressed key range is sealed or no longer owned by this shard.

    Raised by the write fence during a live reshard cutover: once a
    moved range is sealed on its old owner, writes there are rejected
    until the ring flips and the client re-routes.  Deliberately NOT
    retryable at the per-shard retry layer -- retrying against the same
    (old) owner can never succeed; the sharded client catches this and
    re-resolves ownership against the live ring instead.
    """

    retryable = False

    def __init__(self, message, key=None, ring_version=None, owner=None):
        super().__init__(message)
        self.key = key
        self.ring_version = ring_version
        self.owner = owner


class UnavailableError(StoreError):
    """The component is temporarily down/unreachable; safe to retry.

    Raised for crashed or failing-over stores, partitioned links, and
    aborted in-flight operations.  ``retryable`` marks it for the
    resilience layer (:mod:`repro.faults.retry`).
    """

    retryable = True


class CircuitOpenError(UnavailableError):
    """A circuit breaker rejected the call without issuing it."""


class OverloadedError(UnavailableError):
    """Admission control (or a bounded queue) shed the request.

    The component is up but refusing work to stay inside its queue
    bounds -- graceful degradation instead of unbounded buffering.
    Retryable (inherited): clients behind a
    :class:`repro.faults.RetryPolicy` back off and re-offer the work,
    which is exactly the AIMD response the limiter wants to induce.
    """


class DeadlineExceededError(ReproError):
    """A client-side timeout elapsed before the operation completed.

    Retryable: the attempt may have been lost to a fault.  Note the
    abandoned attempt can still complete server-side (at-least-once
    semantics); idempotent operations are safe to retry.
    """

    retryable = True


class AccessDeniedError(ReproError):
    """An access-control policy rejected the operation."""


class DXGError(ReproError):
    """Base class for data-exchange-graph failures."""


class DXGParseError(DXGError):
    """The DXG specification could not be parsed."""


class DXGAnalysisError(DXGError):
    """Static analysis rejected the DXG (e.g. a dependency cycle)."""


class ExpressionError(DXGError):
    """A DXG expression is invalid or failed to evaluate."""


class RPCError(ReproError):
    """Base class for RPC-baseline failures."""


class IDLError(RPCError):
    """The interface-definition file could not be parsed."""


class RPCStatusError(RPCError):
    """An RPC completed with a non-OK status code."""

    def __init__(self, code, message=""):
        super().__init__(f"rpc failed with status {code}: {message}")
        self.code = code
        self.message = message


class ClusterError(ReproError):
    """Deployment/rollout failure in the miniature cluster model."""
