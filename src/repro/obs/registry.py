"""A labeled metrics registry with sim-time-aware windowing.

The registry absorbs the accounting that previous PRs scattered across
components -- ``CopyMeter`` bytes, watch wire bytes, retry/breaker
counts, queue depths, watch lag -- behind one ``Registry.snapshot()``.

Two feeding modes, Prometheus-style:

- **direct instruments**: hot-path code calls
  ``registry.counter(name, **labels).inc()`` /
  ``histogram(...).observe(v)``;
- **collectors**: pull callbacks registered via
  :meth:`Registry.register_collector` scrape existing component counters
  at snapshot time, so legacy accounting joins the registry without
  touching its write paths.

Windowing is virtual-time aware: :meth:`Registry.window` captures the
cumulative totals at ``env.now``; ``window.delta()`` later yields
per-series increases and rates over the elapsed *simulated* interval.
"""

from repro.errors import ConfigurationError
from repro.util.stats import interpolated

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Histograms decimate (drop every other sample) past this many values,
#: bounding memory while keeping percentile estimates stable.
_HISTOGRAM_CAP = 8192

#: Worst-sample exemplars kept per histogram series: enough to hand an
#: SLO violation a causal trace id without growing with the run.
_EXEMPLAR_CAP = 4


def _label_key(labels):
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Series:
    """One (metric, label-set) time series."""

    __slots__ = ("kind", "value", "values", "count", "total",
                 "last_updated", "_stride", "exemplars")

    def __init__(self, kind):
        self.kind = kind
        self.value = 0.0  # counter total / gauge level
        self.values = [] if kind == HISTOGRAM else None
        self.count = 0
        self.total = 0.0
        self.last_updated = None
        self._stride = 1  # histogram decimation stride
        # Worst observations carrying a trace id: [(value, time, trace_id)],
        # kept sorted descending by value, capped at _EXEMPLAR_CAP.
        self.exemplars = [] if kind == HISTOGRAM else None


class _Handle:
    """What instrument calls return: bound to one series."""

    __slots__ = ("_registry", "_series")

    def __init__(self, registry, series):
        self._registry = registry
        self._series = series

    def inc(self, amount=1.0):
        if self._series.kind != COUNTER:
            raise ConfigurationError(
                f"inc() on a {self._series.kind}"
            )
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self._series.value += amount
        self._touch()

    def set_total(self, value):
        """Collector scrape: adopt a cumulative total from elsewhere."""
        if self._series.kind != COUNTER:
            raise ConfigurationError(f"set_total() on a {self._series.kind}")
        self._series.value = float(value)
        self._touch()

    def set(self, value):
        if self._series.kind != GAUGE:
            raise ConfigurationError(f"set() on a {self._series.kind}")
        self._series.value = float(value)
        self._touch()

    def observe(self, value, exemplar=None):
        """Record one sample; ``exemplar`` (a causal trace id) links the
        observation to its trace.  Only the worst few exemplars are kept,
        so a p99 violation is always one ``knactor trace request`` away
        from the causal DAG that produced it."""
        series = self._series
        if series.kind != HISTOGRAM:
            raise ConfigurationError(f"observe() on a {series.kind}")
        series.count += 1
        series.total += value
        if series.count % series._stride == 0:
            series.values.append(value)
            if len(series.values) > _HISTOGRAM_CAP:
                series.values = series.values[::2]
                series._stride *= 2
        if exemplar is not None:
            exemplars = series.exemplars
            if len(exemplars) < _EXEMPLAR_CAP or value > exemplars[-1][0]:
                exemplars.append((value, self._registry._clock(), exemplar))
                exemplars.sort(key=lambda e: e[0], reverse=True)
                del exemplars[_EXEMPLAR_CAP:]
        self._touch()

    def _touch(self):
        self._series.last_updated = self._registry._clock()

    @property
    def value(self):
        return self._series.value


class Registry:
    """All metrics of one simulation run."""

    def __init__(self, env):
        self.env = env
        # Wall-clock stamps on the realtime backend (see simnet.trace).
        clock = getattr(env, "trace_clock", None)
        self._clock = clock if clock is not None else (lambda: env.now)
        self._metrics = {}  # name -> (kind, {label_key: _Series})
        self._collectors = []

    # -- instruments ---------------------------------------------------------

    def counter(self, name, **labels):
        return self._handle(name, COUNTER, labels)

    def gauge(self, name, **labels):
        return self._handle(name, GAUGE, labels)

    def histogram(self, name, **labels):
        return self._handle(name, HISTOGRAM, labels)

    def _handle(self, name, kind, labels):
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {entry[0]}, not a {kind}"
            )
        key = _label_key(labels)
        series = entry[1].get(key)
        if series is None:
            series = _Series(kind)
            entry[1][key] = series
        return _Handle(self, series)

    # -- collectors ----------------------------------------------------------

    def register_collector(self, fn):
        """``fn(registry)`` runs at every snapshot (scrape-on-read)."""
        self._collectors.append(fn)
        return fn

    def collect(self):
        for fn in self._collectors:
            fn(self)

    # -- reading -------------------------------------------------------------

    def get_series(self, name):
        """All ``label_key -> _Series`` of one metric ({} when absent).

        The SLO layer reads raw reservoirs through this to evaluate
        arbitrary percentiles and over-threshold fractions that the
        p50/p99 snapshot summary cannot answer.
        """
        entry = self._metrics.get(name)
        return dict(entry[1]) if entry is not None else {}

    def _series_value(self, series):
        if series.kind == HISTOGRAM:
            ordered = sorted(series.values)
            summary = {
                "count": series.count,
                "sum": series.total,
                "min": ordered[0] if ordered else None,
                "max": ordered[-1] if ordered else None,
                "p50": interpolated(ordered, 0.5),
                "p99": interpolated(ordered, 0.99),
            }
            if series.exemplars:
                summary["exemplars"] = [
                    {"value": value, "time": when, "trace_id": trace_id}
                    for value, when, trace_id in series.exemplars
                ]
            return summary
        return series.value

    def snapshot(self):
        """Run collectors, then return every metric as plain JSON data:
        ``{"time": ..., "metrics": {name: {"kind": ...,
        "series": {labels: value-or-summary}}}}``."""
        self.collect()
        metrics = {}
        for name in sorted(self._metrics):
            kind, series_map = self._metrics[name]
            metrics[name] = {
                "kind": kind,
                "series": {
                    key: self._series_value(series)
                    for key, series in sorted(series_map.items())
                },
            }
        return {"time": self._clock(), "metrics": metrics}

    def window(self):
        """Mark the current totals; ``delta()`` later gives rates."""
        return RegistryWindow(self, self.snapshot())


class RegistryWindow:
    """Cumulative-total mark for sim-time rate computation."""

    def __init__(self, registry, baseline):
        self.registry = registry
        self.baseline = baseline

    def delta(self):
        """Per-counter increase and rate since the window opened.

        Rates are over elapsed *virtual* seconds.  Gauges report their
        current level; histograms the count/sum increase.
        """
        current = self.registry.snapshot()
        elapsed = current["time"] - self.baseline["time"]
        out = {"interval": elapsed, "metrics": {}}
        base_metrics = self.baseline["metrics"]
        for name, entry in current["metrics"].items():
            series_out = {}
            for key, value in entry["series"].items():
                before = base_metrics.get(name, {}).get("series", {}).get(key)
                if entry["kind"] == COUNTER:
                    increase = value - (before or 0.0)
                    series_out[key] = {
                        "increase": increase,
                        "rate": increase / elapsed if elapsed > 0 else None,
                    }
                elif entry["kind"] == HISTOGRAM:
                    series_out[key] = {
                        "count": value["count"]
                        - (before["count"] if before else 0),
                        "sum": value["sum"]
                        - (before["sum"] if before else 0.0),
                    }
                else:
                    series_out[key] = {"level": value}
            out["metrics"][name] = series_out
        return out
