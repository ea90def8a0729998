"""Declarative SLOs over the observability plane.

The PR-4 obs plane records what happened; this layer judges it.  An
:class:`SLOSpec` declares one objective over the metrics
:class:`~repro.obs.registry.Registry`:

- :class:`LatencySLO` -- a percentile of a latency histogram stays under
  a threshold (``p99 of request_latency_seconds <= 250ms``),
- :class:`AvailabilitySLO` -- the good fraction of a request counter set
  stays above a target (sheds and admission rejections from the flow
  plane count against the budget),
- :class:`FreshnessSLO` -- a :class:`LatencySLO` over ``watch_lag_seconds``:
  how stale downstream state is allowed to run,
- :class:`TraceLatencySLO` -- a trace-span objective (percentile of one
  integrator's exchange spans in the latency tracer).

Evaluation returns :class:`SLOResult` objects that carry **trace
exemplars**: the worst over-threshold samples keep their causal trace id
(see ``Registry.histogram(...).observe(v, exemplar=trace_id)``), so a
violated p99 objective is one ``knactor trace request`` away from the
causal DAG that produced it.

Budget accounting follows the multi-window burn-rate recipe: a
:class:`BurnRateTracker` samples cumulative good/total counts on the
schedule clock and reports, per configured :class:`BurnWindow`, how many
times faster than sustainable the error budget is burning.  An alert
fires only when the long *and* short window both exceed the window's
factor -- fast burns page quickly, slow burns page eventually, recovered
burns stop paging.

Everything is deterministic: evaluation reads counters and seeded
reservoirs, never wall clocks, so same-seed runs produce bit-identical
:class:`SLOReport` JSON.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.util.stats import interpolated

LATENCY = "latency"
AVAILABILITY = "availability"
FRESHNESS = "freshness"
TRACE_LATENCY = "trace-latency"


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short) burn-rate alert window pair.

    ``factor`` is the burn-rate multiple that trips the alert: budget
    consumed ``factor`` times faster than the sustainable rate, observed
    over *both* the long window and the short confirmation window.
    """

    long_seconds: float
    short_seconds: float
    factor: float

    def __post_init__(self):
        if self.long_seconds <= self.short_seconds:
            raise ConfigurationError(
                "burn window needs long_seconds > short_seconds"
            )
        if self.factor <= 0:
            raise ConfigurationError("burn factor must be positive")


#: Google-SRE-shaped defaults scaled to simulation horizons: a fast-burn
#: pair that pages within seconds and a slow-burn pair for sustained leaks.
DEFAULT_WINDOWS = (
    BurnWindow(long_seconds=60.0, short_seconds=5.0, factor=14.4),
    BurnWindow(long_seconds=300.0, short_seconds=30.0, factor=6.0),
)


def _parse_label_key(label_key):
    if not label_key:
        return {}
    return dict(part.split("=", 1) for part in label_key.split(","))


def _match(label_key, labels):
    """True when every item of ``labels`` appears in the series key."""
    if not labels:
        return True
    have = _parse_label_key(label_key)
    return all(have.get(k) == str(v) for k, v in labels.items())


@dataclass
class SLOResult:
    """Outcome of evaluating one :class:`SLOSpec`."""

    name: str
    kind: str
    met: bool
    observed: float = None
    objective: float = None
    target: float = None          # good-fraction target (error budget base)
    sample_count: int = 0
    good: float = 0.0
    total: float = 0.0
    no_data: bool = False
    exemplars: list = field(default_factory=list)
    burn: list = field(default_factory=list)    # per-window burn rates
    budget_remaining: float = None
    detail: str = ""

    def describe(self):
        if self.no_data:
            return f"SLO {self.name} [{self.kind}]: NO DATA -> NOT MET"
        status = "MET" if self.met else "VIOLATED"
        line = f"SLO {self.name} [{self.kind}]: {self.detail} -> {status}"
        if self.budget_remaining is not None:
            line += f" (budget {self.budget_remaining * 100:.1f}% left)"
        if self.exemplars and not self.met:
            worst = self.exemplars[0]
            line += f" exemplar={worst['trace_id']}"
        return line

    def to_json(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "met": self.met,
            "no_data": self.no_data,
            "observed": self.observed,
            "objective": self.objective,
            "target": self.target,
            "sample_count": self.sample_count,
            "good": self.good,
            "total": self.total,
            "exemplars": list(self.exemplars),
            "burn": list(self.burn),
            "budget_remaining": self.budget_remaining,
            "detail": self.detail,
        }


@dataclass
class SLOSpec:
    """Base declaration: a name, a good-fraction target, alert windows.

    Subclasses define what "good" means by implementing
    :meth:`good_total` (cumulative good/total counts read from the
    registry) and :meth:`evaluate` (the point-in-time judgement).
    """

    name: str
    description: str = ""
    windows: tuple = DEFAULT_WINDOWS

    kind = "abstract"

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("an SLO needs a name")
        self.windows = tuple(self.windows)

    #: Good-fraction target backing the error budget (subclass-specific).
    def budget_target(self):
        raise NotImplementedError

    def good_total(self, registry):
        """Cumulative ``(good, total)`` counts at this instant."""
        raise NotImplementedError

    def evaluate(self, registry, tracker=None):
        """Judge the objective against the registry's current state."""
        raise NotImplementedError

    def _finish(self, result, tracker):
        """Attach burn rates + budget from the tracker, when sampling ran."""
        if tracker is not None:
            result.burn = tracker.burn_rates(self)
            result.budget_remaining = tracker.error_budget_remaining(self)
        return result


@dataclass
class LatencySLO(SLOSpec):
    """``percentile`` of histogram ``metric`` must stay <= ``threshold``.

    The good-fraction view (for burn rates) counts a sample good when it
    is at or under ``threshold_seconds``; the target good fraction is the
    declared percentile (p99 <= t means 99% of samples must be under t).
    """

    metric: str = "request_latency_seconds"
    labels: dict = field(default_factory=dict)
    percentile: float = 0.99
    threshold_seconds: float = None

    kind = LATENCY

    def __post_init__(self):
        super().__post_init__()
        if self.threshold_seconds is None or self.threshold_seconds <= 0:
            raise ConfigurationError(
                f"SLO {self.name!r}: threshold_seconds must be positive"
            )
        if not 0 < self.percentile < 1:
            raise ConfigurationError(
                f"SLO {self.name!r}: percentile must be in (0, 1)"
            )

    def budget_target(self):
        return self.percentile

    def _matching_series(self, registry):
        return [series for key, series
                in sorted(registry.get_series(self.metric).items())
                if _match(key, self.labels)]

    def good_total(self, registry):
        """Good/total from the reservoirs (exact while undecimated).

        Past the decimation cap the good count is the reservoir's
        under-threshold fraction scaled to the true count -- an estimate,
        but an unbiased one (decimation drops every other sample).
        """
        good = total = 0.0
        for series in self._matching_series(registry):
            if not series.count:
                continue
            under = sum(1 for v in series.values
                        if v <= self.threshold_seconds)
            scale = series.count / len(series.values) if series.values else 0
            good += under * scale
            total += series.count
        return good, total

    def _exemplars(self, registry):
        merged = []
        for series in self._matching_series(registry):
            for value, when, trace_id in series.exemplars or ():
                if value > self.threshold_seconds:
                    merged.append(
                        {"value": value, "time": when, "trace_id": trace_id}
                    )
        merged.sort(key=lambda e: e["value"], reverse=True)
        return merged[:4]

    def evaluate(self, registry, tracker=None):
        reservoir = []
        count = 0
        for series in self._matching_series(registry):
            reservoir.extend(series.values)
            count += series.count
        if not reservoir:
            return self._finish(SLOResult(
                name=self.name, kind=self.kind, met=False, no_data=True,
                objective=self.threshold_seconds, target=self.percentile,
                detail=f"no samples of {self.metric}",
            ), tracker)
        observed = interpolated(sorted(reservoir), self.percentile)
        good, total = self.good_total(registry)
        met = observed <= self.threshold_seconds
        result = SLOResult(
            name=self.name, kind=self.kind, met=met,
            observed=observed, objective=self.threshold_seconds,
            target=self.percentile, sample_count=count,
            good=good, total=total,
            exemplars=self._exemplars(registry) if not met else [],
            detail=(f"p{self.percentile * 100:g} {observed * 1000:.2f} ms "
                    f"vs {self.threshold_seconds * 1000:.2f} ms "
                    f"over {count} samples"),
        )
        return self._finish(result, tracker)


@dataclass
class FreshnessSLO(LatencySLO):
    """Watch-lag freshness: downstream staleness stays under a bound.

    A :class:`LatencySLO` whose histogram defaults to the obs plane's
    ``watch_lag_seconds`` (observed at every watch delivery, exemplar =
    the stale write's trace id).
    """

    metric: str = "watch_lag_seconds"

    kind = FRESHNESS


@dataclass
class AvailabilitySLO(SLOSpec):
    """Good fraction of a counter set stays >= ``target``.

    ``total`` and ``bad`` are iterables of ``(metric_name, labels)``
    counter selectors; matching series values are summed.  Good = total -
    bad, so the flow plane's shed and admission-rejection counters plug
    straight in as ``bad``.

    Counters carry no trace ids, so a violated availability objective
    borrows its exemplars from a companion histogram: set
    ``exemplar_metric`` (plus ``exemplar_labels``) to the latency
    histogram recorded alongside the counters and the report links the
    worst traces observed while the budget burned.
    """

    target: float = 0.999
    total: tuple = ()
    bad: tuple = ()
    exemplar_metric: str = None
    exemplar_labels: dict = field(default_factory=dict)

    kind = AVAILABILITY

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.target < 1:
            raise ConfigurationError(
                f"SLO {self.name!r}: target must be in (0, 1)"
            )
        if not self.total:
            raise ConfigurationError(
                f"SLO {self.name!r}: needs at least one total counter"
            )
        self.total = tuple(self.total)
        self.bad = tuple(self.bad)

    def budget_target(self):
        return self.target

    @staticmethod
    def _sum(registry, selectors):
        out = 0.0
        for metric, labels in selectors:
            for key, series in sorted(registry.get_series(metric).items()):
                if _match(key, labels):
                    out += series.value
        return out

    def good_total(self, registry):
        total = self._sum(registry, self.total)
        bad = min(self._sum(registry, self.bad), total)
        return total - bad, total

    def _exemplars(self, registry):
        if not self.exemplar_metric:
            return []
        merged = []
        for key, series in sorted(
            registry.get_series(self.exemplar_metric).items()
        ):
            if not _match(key, self.exemplar_labels):
                continue
            for value, when, trace_id in series.exemplars or ():
                merged.append(
                    {"value": value, "time": when, "trace_id": trace_id}
                )
        merged.sort(key=lambda e: e["value"], reverse=True)
        return merged[:4]

    def evaluate(self, registry, tracker=None):
        good, total = self.good_total(registry)
        if total <= 0:
            return self._finish(SLOResult(
                name=self.name, kind=self.kind, met=False, no_data=True,
                objective=self.target, target=self.target,
                detail="no requests counted",
            ), tracker)
        availability = good / total
        met = availability >= self.target
        result = SLOResult(
            name=self.name, kind=self.kind, met=met,
            observed=availability, objective=self.target, target=self.target,
            sample_count=int(total), good=good, total=total,
            exemplars=self._exemplars(registry) if not met else [],
            detail=(f"availability {availability * 100:.3f}% vs "
                    f"{self.target * 100:.3f}% "
                    f"({total - good:g}/{total:g} bad)"),
        )
        return self._finish(result, tracker)


@dataclass
class TraceLatencySLO(SLOSpec):
    """A percentile of one integrator's exchange spans (begin -> end in
    the latency tracer) under a target.

    Evaluated against a :class:`~repro.simnet.trace.Tracer` rather than
    the registry, so it has no burn-rate view.  Zero recorded spans is
    an answer, not an error: the result carries ``no_data=True`` and
    ``met=False``, so a dead integrator reads as a violated objective.
    """

    integrator: str = None
    target_seconds: float = None
    percentile: float = 0.99

    kind = TRACE_LATENCY

    def __post_init__(self):
        super().__post_init__()
        if not self.integrator:
            raise ConfigurationError(
                f"SLO {self.name!r}: needs an integrator"
            )
        if self.target_seconds is None or self.target_seconds <= 0:
            raise ConfigurationError("target_seconds must be positive")
        if not 0 < self.percentile <= 1:
            raise ConfigurationError("percentile must be in (0, 1]")

    def budget_target(self):
        return min(self.percentile, 0.999999)

    def evaluate_trace(self, tracer):
        """Judge against a latency tracer's exchange spans."""
        from repro.metrics.telemetry import exchange_durations

        durations = exchange_durations(tracer, self.integrator)
        if not durations:
            return SLOResult(
                name=self.name, kind=self.kind, met=False, no_data=True,
                objective=self.target_seconds, target=self.percentile,
                detail=f"no exchange spans for {self.integrator}",
            )
        observed = interpolated(sorted(durations), self.percentile)
        met = observed <= self.target_seconds
        good = sum(1 for d in durations if d <= self.target_seconds)
        return SLOResult(
            name=self.name, kind=self.kind, met=met,
            observed=observed, objective=self.target_seconds,
            target=self.percentile, sample_count=len(durations),
            good=good, total=len(durations),
            detail=(f"p{self.percentile * 100:g} {observed * 1000:.2f} ms "
                    f"vs {self.target_seconds * 1000:.2f} ms over "
                    f"{len(durations)} spans"),
        )

    def evaluate(self, registry, tracker=None):
        raise ConfigurationError(
            f"SLO {self.name!r} evaluates a tracer; call evaluate_trace()"
        )


class BurnRateTracker:
    """Samples cumulative good/total per SLO; answers burn-rate queries.

    Call :meth:`sample` at interesting instants, or :meth:`start` to
    sample every ``interval`` schedule-seconds as a process.  Burn rate
    over a window = (bad fraction in the window) / (error budget), where
    the budget is ``1 - spec.budget_target()``; 1.0 means the budget is
    being consumed exactly as fast as it accrues.
    """

    def __init__(self, env, registry, specs, interval=1.0):
        if interval <= 0:
            raise ConfigurationError("sample interval must be positive")
        self.env = env
        self.registry = registry
        self.specs = list(specs)
        self.interval = interval
        self._samples = {spec.name: [] for spec in self.specs}
        self._running = False

    def sample(self):
        """Record one (time, good, total) point per tracked SLO."""
        self.registry.collect()
        now = self.env.now
        for spec in self.specs:
            good, total = spec.good_total(self.registry)
            self._samples[spec.name].append((now, good, total))

    def start(self):
        if self._running:
            return None
        self._running = True
        return self.env.process(self._run())

    def stop(self):
        self._running = False

    def _run(self):
        while self._running:
            yield self.env.timeout(self.interval)
            if not self._running:
                return
            self.sample()

    # -- queries -------------------------------------------------------------

    def _window_bad_fraction(self, name, window_seconds):
        samples = self._samples.get(name, ())
        if len(samples) < 1:
            return None
        now, good_now, total_now = samples[-1]
        cutoff = now - window_seconds
        # Latest sample at or before the cutoff; the run's start (zero
        # counts) anchors windows longer than the history.
        base = (0.0, 0.0, 0.0)
        for entry in samples:
            if entry[0] <= cutoff:
                base = entry
            else:
                break
        _t, good_then, total_then = base
        dt_total = total_now - total_then
        if dt_total <= 0:
            return None
        dt_bad = (total_now - good_now) - (total_then - good_then)
        return max(0.0, dt_bad) / dt_total

    def burn_rates(self, spec):
        """Per-window burn rates + alert state for one SLO."""
        budget = 1.0 - spec.budget_target()
        out = []
        for window in spec.windows:
            long_frac = self._window_bad_fraction(
                spec.name, window.long_seconds)
            short_frac = self._window_bad_fraction(
                spec.name, window.short_seconds)
            long_burn = (long_frac / budget) if long_frac is not None else None
            short_burn = (short_frac / budget) if short_frac is not None else None
            out.append({
                "long_seconds": window.long_seconds,
                "short_seconds": window.short_seconds,
                "factor": window.factor,
                "long_burn": long_burn,
                "short_burn": short_burn,
                "alert": (long_burn is not None and short_burn is not None
                          and long_burn >= window.factor
                          and short_burn >= window.factor),
            })
        return out

    def error_budget_remaining(self, spec):
        """Run-to-date budget left, in [0, 1] (None before any data)."""
        samples = self._samples.get(spec.name, ())
        if not samples:
            return None
        _t, good, total = samples[-1]
        if total <= 0:
            return None
        budget = 1.0 - spec.budget_target()
        consumed = ((total - good) / total) / budget if budget > 0 else 0.0
        return max(0.0, 1.0 - consumed)

    def alerts(self):
        """Every (slo, window) pair currently in the alerting state."""
        firing = []
        for spec in self.specs:
            for entry in self.burn_rates(spec):
                if entry["alert"]:
                    firing.append((spec.name, entry))
        return firing


@dataclass
class SLOReport:
    """Per-scenario judgement: every declared SLO, evaluated once."""

    scenario: str
    results: list = field(default_factory=list)
    time: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def met(self):
        return all(r.met for r in self.results)

    def violated(self):
        return [r for r in self.results if not r.met]

    def to_json(self):
        return {
            "scenario": self.scenario,
            "time": self.time,
            "met": self.met,
            "objectives": [r.to_json() for r in self.results],
            "meta": dict(self.meta),
        }

    def describe(self):
        lines = [f"SLO report: {self.scenario} at t={self.time:.3f}s "
                 f"-> {'ALL MET' if self.met else 'VIOLATIONS'}"]
        for result in self.results:
            lines.append("  " + result.describe())
        return "\n".join(lines)


def evaluate(specs, registry, tracker=None, scenario="", env=None, meta=None):
    """Evaluate every spec against the registry; returns an :class:`SLOReport`.

    :class:`TraceLatencySLO` specs are skipped (they need a tracer; use
    ``evaluate_trace``) -- mixing vocabularies is allowed, judging them
    together is not.
    """
    registry.collect()
    results = [
        spec.evaluate(registry, tracker=tracker)
        for spec in specs
        if not isinstance(spec, TraceLatencySLO)
    ]
    now = env.now if env is not None else getattr(registry.env, "now", 0.0)
    return SLOReport(scenario=scenario, results=results, time=now,
                     meta=dict(meta or {}))
