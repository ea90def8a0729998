"""Network links with pluggable latency models.

The substrates (stores, RPC channels, brokers) communicate over
:class:`Link` objects.  A link samples a latency from its
:class:`LatencyModel` and delivers the message by invoking a handler (or
fulfilling an event) after that delay.  FIFO links additionally guarantee
per-link ordering even when sampled latencies would reorder messages, which
matches TCP-like transports.

Fault model (:mod:`repro.faults`): a :class:`Network` carries per-pair
fault rules -- partitions, probabilistic drop windows, latency spikes --
that links consult on every delivery.  One-way ``send`` deliveries are
silently lost (datagram semantics; reliable streams layered on top, like
store watches, detect the break and resync).  Round-trip ``transfer``
events *fail* with a retryable
:class:`~repro.errors.UnavailableError` (connection-reset semantics), so
client code can retry through :class:`repro.faults.RetryPolicy`.
"""

import math
import random

from repro.errors import ConfigurationError, UnavailableError


class LatencyModel:
    """Base class: samples per-message one-way delays in seconds."""

    def sample(self):
        raise NotImplementedError

    def mean(self):
        """Analytic mean of the distribution (used by planners/tests)."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant delay."""

    def __init__(self, delay):
        if delay < 0:
            raise ConfigurationError(f"negative latency {delay}")
        self.delay = float(delay)

    def sample(self):
        return self.delay

    def mean(self):
        return self.delay

    def __repr__(self):
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high]``."""

    def __init__(self, low, high, seed=None):
        if low < 0 or high < low:
            raise ConfigurationError(f"invalid uniform range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self._rng = random.Random(seed)

    def sample(self):
        return self._rng.uniform(self.low, self.high)

    def mean(self):
        return (self.low + self.high) / 2.0

    def __repr__(self):
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Exponential delay with the given mean, plus an optional floor."""

    def __init__(self, mean, floor=0.0, seed=None):
        if mean <= 0 or floor < 0:
            raise ConfigurationError(
                f"invalid exponential parameters mean={mean} floor={floor}"
            )
        self._mean = float(mean)
        self.floor = float(floor)
        self._rng = random.Random(seed)

    def sample(self):
        return self.floor + self._rng.expovariate(1.0 / self._mean)

    def mean(self):
        return self.floor + self._mean

    def __repr__(self):
        return f"ExponentialLatency(mean={self._mean}, floor={self.floor})"


class LogNormalLatency(LatencyModel):
    """Log-normal delay parameterized by its *actual* median and sigma.

    Real network / service-time distributions are heavy-tailed; the paper's
    shipment-processing stage (FedEx API, ~446 ms) is modelled this way.
    """

    def __init__(self, median, sigma=0.1, seed=None):
        if median <= 0 or sigma < 0:
            raise ConfigurationError(
                f"invalid lognormal parameters median={median} sigma={sigma}"
            )
        self.median = float(median)
        self.sigma = float(sigma)
        self._mu = math.log(median)
        self._rng = random.Random(seed)

    def sample(self):
        if self.sigma == 0:
            return self.median
        return self._rng.lognormvariate(self._mu, self.sigma)

    def mean(self):
        return math.exp(self._mu + self.sigma**2 / 2.0)

    def __repr__(self):
        return f"LogNormalLatency(median={self.median}, sigma={self.sigma})"


class Link:
    """One-way message pipe with latency and optional FIFO ordering.

    Links created through a :class:`Network` know their endpoints and
    consult the network's fault rules on every delivery.
    """

    def __init__(self, env, latency=None, fifo=True, name="",
                 network=None, src=None, dst=None):
        self.env = env
        self.latency = latency if latency is not None else FixedLatency(0.0)
        self.fifo = fifo
        self.name = name
        self.network = network
        self.src = src
        self.dst = dst
        self._last_delivery = -math.inf
        self.delivered = 0
        self.dropped = 0
        #: Payload bytes carried (senders that know their wire size pass
        #: ``size=``; store watch fan-out does).  Zero-sized sends are
        #: control traffic.
        self.bytes_sent = 0

    def _fault_verdict(self):
        """``(lost, extra_delay)`` from the owning network's fault rules."""
        if self.network is None or self.src is None:
            return False, 0.0
        return self.network.fault_verdict(self.src, self.dst)

    def send(self, handler, message, size=0):
        """Deliver ``message`` to ``handler(message)`` after sampled latency.

        Returns the arrival time, or ``None`` when a fault rule dropped
        the message (the handler never runs).  ``size`` is the payload's
        wire size in bytes, accounted on the link (dropped messages still
        hit the wire).
        """
        lost, extra = self._fault_verdict()
        self.bytes_sent += size
        if lost:
            self.dropped += 1
            return None
        delay = self.latency.sample() + extra
        if self.fifo:
            # Never deliver before a previously sent message on this link.
            arrival = max(self.env.now + delay, self._last_delivery)
            self._last_delivery = arrival
            delay = arrival - self.env.now
        event = self.env.event()

        def fire(_evt):
            self.delivered += 1
            handler(message)

        event.callbacks.append(fire)
        event._ok = True
        event._value = None
        self.env.schedule(event, delay=delay)
        return self.env.now + delay

    def transfer(self, value=None, size=0):
        """Event that fires with ``value`` after sampled latency.

        Convenience for process code: ``result = yield link.transfer(x)``.
        Under an active fault rule the event *fails* with
        :class:`~repro.errors.UnavailableError` after the sampled delay
        (connection reset), so the yielding process sees a retryable
        exception rather than hanging forever.
        """
        lost, extra = self._fault_verdict()
        self.bytes_sent += size
        delay = self.latency.sample() + extra
        if lost:
            self.dropped += 1
            failed = self.env.timeout(delay)
            failed._ok = False
            failed._value = UnavailableError(
                f"link {self.name or '?'} is unreachable"
            )
            return failed
        if self.fifo:
            arrival = max(self.env.now + delay, self._last_delivery)
            self._last_delivery = arrival
            delay = arrival - self.env.now
        self.delivered += 1
        return self.env.timeout(delay, value)

    def __repr__(self):
        return f"<Link {self.name or id(self):#x} latency={self.latency!r}>"


class Network:
    """A registry of named endpoints and the links between them.

    Links are created lazily with a default latency model; specific pairs
    can be overridden (e.g. the integrator may be co-located with the DE).
    """

    def __init__(self, env, default_latency=None):
        self.env = env
        self.default_latency = (
            default_latency if default_latency is not None else FixedLatency(0.0005)
        )
        self._links = {}
        self._overrides = {}
        # Fault rules (managed by repro.faults.FaultInjector, or directly).
        # Pairs may use "*" as a wildcard endpoint.
        self._partitions = set()  # {(src, dst)} currently severed
        self._drop_rules = {}  # (src, dst) -> (rate, random.Random)
        self._latency_spikes = {}  # (src, dst) -> extra seconds
        self.messages_lost = 0

    def set_latency(self, src, dst, latency, symmetric=True):
        """Override the latency model for ``src -> dst`` (and back)."""
        self._overrides[(src, dst)] = latency
        if symmetric:
            self._overrides[(dst, src)] = latency
        # Drop any cached links so the override takes effect.
        self._links.pop((src, dst), None)
        if symmetric:
            self._links.pop((dst, src), None)

    def link(self, src, dst):
        """The (cached) FIFO link from ``src`` to ``dst``."""
        key = (src, dst)
        if key not in self._links:
            latency = self._overrides.get(key, self.default_latency)
            self._links[key] = Link(
                self.env, latency, name=f"{src}->{dst}",
                network=self, src=src, dst=dst,
            )
        return self._links[key]

    def transfer(self, src, dst, value=None, size=0):
        """Event firing with ``value`` after the ``src -> dst`` latency."""
        return self.link(src, dst).transfer(value, size=size)

    @property
    def bytes_sent(self):
        """Total accounted payload bytes across every link."""
        return sum(link.bytes_sent for link in self._links.values())

    # -- fault rules (see repro.faults) -----------------------------------

    @staticmethod
    def _pairs(src, dst, symmetric):
        return [(src, dst), (dst, src)] if symmetric else [(src, dst)]

    def _matching(self, rules, src, dst):
        """First rule key covering ``src -> dst`` (with ``"*"`` wildcards).

        ``rules`` may be any container supporting ``in`` (set or dict).
        """
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            if key in rules:
                return key
        return None

    def partition(self, src, dst, symmetric=True):
        """Sever ``src -> dst`` (and back): every message is lost."""
        self._partitions.update(self._pairs(src, dst, symmetric))

    def heal(self, src, dst, symmetric=True):
        """Remove a partition installed by :meth:`partition`."""
        self._partitions.difference_update(self._pairs(src, dst, symmetric))

    def is_partitioned(self, src, dst):
        return self._matching(self._partitions, src, dst) is not None

    def set_drop_rate(self, src, dst, rate, seed=0, symmetric=True):
        """Lose a seeded-random fraction of messages on ``src -> dst``."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"drop rate {rate} not in [0, 1]")
        rng = random.Random(seed)
        for pair in self._pairs(src, dst, symmetric):
            self._drop_rules[pair] = (rate, rng)

    def clear_drop_rate(self, src, dst, symmetric=True):
        for pair in self._pairs(src, dst, symmetric):
            self._drop_rules.pop(pair, None)

    def set_extra_latency(self, src, dst, extra, symmetric=True):
        """Add ``extra`` seconds to every delivery on ``src -> dst``."""
        if extra < 0:
            raise ConfigurationError(f"negative extra latency {extra}")
        for pair in self._pairs(src, dst, symmetric):
            self._latency_spikes[pair] = float(extra)

    def clear_extra_latency(self, src, dst, symmetric=True):
        for pair in self._pairs(src, dst, symmetric):
            self._latency_spikes.pop(pair, None)

    def heal_all(self):
        """Drop every fault rule (end of a chaos experiment)."""
        self._partitions.clear()
        self._drop_rules.clear()
        self._latency_spikes.clear()

    def fault_verdict(self, src, dst):
        """``(lost, extra_delay)`` for one delivery on ``src -> dst``.

        Consumes one sample from the drop rule's RNG when one applies,
        so verdicts are deterministic given the event schedule.
        """
        if not (self._partitions or self._drop_rules or self._latency_spikes):
            return False, 0.0  # no rules: nothing to match, no RNG to draw
        if self.is_partitioned(src, dst):
            self.messages_lost += 1
            return True, 0.0
        rule_key = self._matching(self._drop_rules, src, dst)
        if rule_key is not None:
            rate, rng = self._drop_rules[rule_key]
            if rng.random() < rate:
                self.messages_lost += 1
                return True, 0.0
        spike_key = self._matching(self._latency_spikes, src, dst)
        extra = self._latency_spikes[spike_key] if spike_key is not None else 0.0
        return False, extra
