"""Audit log of state accesses.

One of the paper's core claims (Problem 3) is that API-centric composition
*hides* data exchanges inside pair-wise calls.  The DE's audit log is the
inverse: every access -- allowed or denied -- is recorded with principal,
store, verb, and touched fields, making cross-service data exchanges
observable at the application level.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AuditRecord:
    """One recorded access attempt."""

    time: float
    principal: str
    store: str
    verb: str
    fields: tuple = ()
    allowed: bool = True
    reason: str = ""
    key: str = ""


class AuditLog:
    """Append-only in-memory audit trail with simple queries."""

    def __init__(self, capacity=100_000):
        self.capacity = capacity
        self._records = []
        self.dropped = 0

    def record(self, **kwargs):
        if len(self._records) >= self.capacity:
            # Keep the most recent window; count what we dropped.
            del self._records[: self.capacity // 10]
            self.dropped += self.capacity // 10
        self._records.append(AuditRecord(**kwargs))

    def records(self, principal=None, store=None, verb=None, allowed=None):
        """Filtered view of the trail."""
        out = self._records
        if principal is not None:
            out = [r for r in out if r.principal == principal]
        if store is not None:
            out = [r for r in out if r.store == store]
        if verb is not None:
            out = [r for r in out if r.verb == verb]
        if allowed is not None:
            out = [r for r in out if r.allowed == allowed]
        return list(out)

    def denials(self):
        return self.records(allowed=False)

    def exchange_matrix(self):
        """``{(principal, store): count}`` of allowed accesses.

        This is the app-level data-exchange visibility the paper argues
        for: who touches whose state, measurable at run time.
        """
        matrix = {}
        for r in self._records:
            if r.allowed:
                key = (r.principal, r.store)
                matrix[key] = matrix.get(key, 0) + 1
        return matrix

    def __len__(self):
        return len(self._records)
