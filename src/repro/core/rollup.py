"""Rollup: a built-in integrator bridging Log and Object exchanges.

The paper's two built-in integrators each specialize in one DE type
("built-in integrators specialized for processing states over a type of
DE and data exchange patterns"): Cast syncs Object stores, Sync moves
Log records.  Rollup covers the third recurring pattern: **aggregate a
Log store into fields of an Object store** -- sensor readings into a
gauge, request logs into a rate, energy records into a running total.

Each :class:`RollupRule` runs a ZQL aggregation over the source pool
whenever a batch lands (optionally restricted to a trailing window) and
patches the result into the target object's fields.
"""

from dataclasses import dataclass

from repro.core.integrator import Integrator
from repro.errors import AlreadyExistsError, ConfigurationError
from repro.query.core import compile_ops


@dataclass
class RollupRule:
    """One log -> object aggregation.

    - ``source``: hosted Log store name; ``target``: hosted Object store
      name; ``target_key``: the object to patch (created if absent).
    - ``aggs``: output field -> aggregation spelling (``"sum(kwh)"``).
    - ``where``: optional filter expression over records.
    - ``window``: optional trailing window in seconds of ``_ts`` (None =
      the whole pool).
    """

    source: str
    target: str
    target_key: str
    aggs: dict
    where: str = None
    window: float = None
    log_de: str = "log"
    object_de: str = "object"

    def ops(self, now):
        ops = []
        if self.window is not None:
            ops.append(
                {"op": "filter", "expr": f"_ts >= {now - self.window!r}"}
            )
        if self.where:
            ops.append({"op": "filter", "expr": self.where})
        ops.append({"op": "agg", "aggs": dict(self.aggs)})
        return ops


@dataclass
class _BoundRule:
    rule: RollupRule
    source_handle: object
    target_handle: object
    watch: object = None
    updates: int = 0


class Rollup(Integrator):
    """Log-to-Object aggregation integrator."""

    def __init__(self, name, rules=(), location=None):
        super().__init__(name)
        self._initial_rules = list(rules)
        self.location = location or name
        self._bound = []

    def _on_bind(self):
        self._apply_configuration(self._initial_rules)

    def _apply_configuration(self, rules):
        was_started = self.started
        for bound in self._bound:
            if bound.watch is not None:
                bound.watch.cancel()
        self._bound = []
        for rule in rules:
            if not rule.aggs:
                raise ConfigurationError(
                    f"rollup {rule.source} -> {rule.target} has no aggregations"
                )
            if rule.window is not None and rule.window <= 0:
                raise ConfigurationError("window must be positive")
            compile_ops(rule.ops(now=0.0))  # validate early
            log_de = self.runtime.exchange(rule.log_de)
            object_de = self.runtime.exchange(rule.object_de)
            self._bound.append(
                _BoundRule(
                    rule=rule,
                    source_handle=log_de.handle(
                        rule.source, principal=self.name, location=self.location
                    ),
                    target_handle=object_de.handle(
                        rule.target, principal=self.name, location=self.location
                    ),
                )
            )
        if was_started:
            self._wire()
        return f"{len(self._bound)} rule(s)"

    def _on_start(self):
        self._wire()

    def _on_stop(self):
        for bound in self._bound:
            if bound.watch is not None:
                bound.watch.cancel()
                bound.watch = None

    def _wire(self):
        for bound in self._bound:
            if bound.watch is not None:
                bound.watch.cancel()
            bound.watch = bound.source_handle.watch(self._make_handler(bound))

    def _make_handler(self, bound):
        def handler(_event):
            env = self.runtime.env
            env.process(self._roll(env, bound))

        return handler

    def _roll(self, env, bound):
        rule = bound.rule
        [row] = yield bound.source_handle.query(ops=rule.ops(env.now))
        patch = {out: row.get(out) for out in rule.aggs}
        patch = {k: v for k, v in patch.items() if v is not None}
        if not patch:
            return
        try:
            yield bound.target_handle.patch(rule.target_key, patch)
        except Exception as exc:
            from repro.errors import NotFoundError

            if not isinstance(exc, NotFoundError):
                raise
            try:
                yield bound.target_handle.create(rule.target_key, patch)
            except AlreadyExistsError:
                yield bound.target_handle.patch(rule.target_key, patch)
        bound.updates += 1
        self.runtime.tracer.record(
            "rollup", "updated", integrator=self.name,
            target=rule.target, key=rule.target_key, fields=tuple(patch),
        )

    def status(self):
        base = super().status()
        base["rules"] = [
            {
                "source": b.rule.source,
                "target": f"{b.rule.target}/{b.rule.target_key}",
                "updates": b.updates,
            }
            for b in self._bound
        ]
        return base
