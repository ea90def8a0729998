"""Per-stage latency extraction and summary statistics (Table 2)."""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.util.stats import interpolated


def summarize(values):
    """Mean / median / p99 / min / max of a list of durations."""
    if not values:
        raise ConfigurationError("no values to summarize")
    ordered = sorted(values)
    n = len(ordered)
    return {
        "mean": sum(ordered) / n,
        "p50": interpolated(ordered, 0.50),
        "p99": interpolated(ordered, 0.99),
        "min": ordered[0],
        "max": ordered[-1],
        "count": n,
    }


@dataclass
class StageBreakdown:
    """Per-request stage durations for one experimental setup.

    ``stages`` maps stage name -> list of per-request durations; the
    stage names for the retail experiment are the paper's: ``C-I``,
    ``I``, ``I-S``, ``S`` (plus derived ``Prop.`` and ``Total``).
    """

    setup: str
    stages: dict = field(default_factory=dict)

    def add(self, stage, duration):
        self.stages.setdefault(stage, []).append(duration)

    def add_request(self, durations):
        """Record one request's full stage dict."""
        for stage, duration in durations.items():
            self.add(stage, duration)

    def mean(self, stage):
        values = self.stages.get(stage)
        if not values:
            return None
        return sum(values) / len(values)

    def summary(self, stage):
        return summarize(self.stages[stage])

    def count(self):
        if not self.stages:
            return 0
        return min(len(v) for v in self.stages.values())

    def row(self, stage_order=("C-I", "I", "I-S", "S", "Prop.", "Total")):
        """Mean per stage in milliseconds, None for absent stages."""
        out = {"Setup": self.setup}
        for stage in stage_order:
            mean = self.mean(stage)
            out[stage] = None if mean is None else mean * 1000.0
        return out
