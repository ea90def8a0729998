"""Event loop and event primitives for the simulation kernel.

The design follows the classic discrete-event pattern: a priority queue of
``(time, priority, sequence, event)`` entries, popped in order.  Events carry
callbacks; a :class:`~repro.simnet.process.Process` registers itself as a
callback on whatever event its generator yields.

Times are floats in **seconds** of virtual time.
"""

from heapq import heappop, heappush
from itertools import count

#: Scheduling priorities.  URGENT is used internally for process resumption
#: so that, at equal timestamps, resumed processes run before fresh timeouts.
URGENT = 0
NORMAL = 1

_PENDING = object()


class SimulationError(RuntimeError):
    """The simulation reached an invalid state (e.g. negative delay)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes may wait on.

    An event is *triggered* once scheduled, and *processed* once its
    callbacks have run.  ``succeed`` and ``fail`` both trigger the event;
    the distinction only affects what a waiting process sees (a value is
    sent into the generator, an exception is thrown into it).

    Events are slotted: they take no ad-hoc attributes.  ``_defused`` is
    the one defuse flag -- a failure handled by whoever set it does not
    re-raise out of :meth:`Environment.step`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False

    @property
    def triggered(self):
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded; only valid once triggered."""
        return self._ok

    @property
    def value(self):
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise AttributeError("event has not been triggered yet")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception):
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self):
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` seconds of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Born triggered: set every slot here rather than via Event.__init__.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay)


class _Condition(Event):
    """Shared implementation of :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        self._pending = sum(1 for e in self._events if not e.processed)
        for event in self._events:
            if event.processed:
                if not event.ok and not self.triggered:
                    self.fail(event.value)
            else:
                event.callbacks.append(self._observe)
        if not self.triggered and self._done():
            self.succeed(self._collect())

    def _observe(self, event):
        self._pending -= 1
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._done():
            self.succeed(self._collect())

    def _done(self):
        raise NotImplementedError

    def _collect(self):
        """Map each already-delivered event to its value.

        Uses ``processed`` rather than ``triggered``: a Timeout carries its
        value from creation (so it reads as triggered), but it has not
        *fired* until its callbacks ran.
        """
        return {e: e._value for e in self._events
                if e.callbacks is None and e._ok}


class AllOf(_Condition):
    """Fires when *all* given events have fired (fails fast on failure)."""

    __slots__ = ()

    def _done(self):
        return self._pending == 0


class AnyOf(_Condition):
    """Fires when *any* one of the given events has fired."""

    __slots__ = ()

    def _done(self):
        return self._pending < len(self._events) or not self._events


class Environment:
    """The simulation environment: virtual clock plus event queue.

    Typical use::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=10.0)
    """

    #: Which execution backend this kernel is (``repro.realtime`` ships a
    #: wall-clock ``"realtime"`` environment with the same surface).
    backend = "sim"

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._queue = []
        self._eid = count()
        self.active_process = None

    @property
    def now(self):
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Queue ``event`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def event(self):
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` firing after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def all_of(self, events):
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that fires when any event in ``events`` has fired."""
        return AnyOf(self, events)

    def process(self, generator):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self):
        """Process the single next event.

        Raises :class:`SimulationError` when the queue is empty.
        """
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: re-raise so bugs don't pass silently.
            raise event._value

    def run(self, until=None):
        """Run until no events remain, or until virtual time ``until``.

        If ``until`` is an :class:`Event`, run until it fires and return its
        value (raising its exception if it failed).
        """
        if isinstance(until, Event):
            stop = until
            if stop.processed:
                if stop.ok:
                    return stop.value
                raise stop.value
            done = []
            stop.callbacks.append(done.append)
            while not done and self._queue:
                self.step()
            if not done:
                raise SimulationError("event queue empty before target event fired")
            if stop.ok:
                return stop.value
            stop._defused = True
            raise stop.value

        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon}: clock already at {self._now}"
            )
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        if horizon != float("inf"):
            self._now = horizon
        return None

    def __repr__(self):
        return f"<Environment now={self._now} queued={len(self._queue)}>"


# Process subclasses Event, so it can only be imported once this module is
# complete; binding it here spares Environment.process() an import per call.
from repro.simnet.process import Process  # noqa: E402
