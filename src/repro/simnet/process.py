"""Generator-based simulation processes.

A process wraps a generator.  Each ``yield <event>`` suspends the process
until the event fires; the event's value is sent back into the generator
(or its failure exception is thrown into it).  A process is itself an
:class:`~repro.simnet.events.Event` that fires when the generator returns,
so processes can wait on one another::

    def child(env):
        yield env.timeout(1.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        assert result == "done"
"""

from repro.simnet.events import (
    _PENDING,
    URGENT,
    Event,
    Interrupt,
    SimulationError,
)


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env, generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target = None
        # Kick off the generator at the current simulation time.
        init = Event(env)
        init._ok = True
        init._value = None
        env.schedule(init, priority=URGENT)
        init.callbacks.append(self._resume)
        self._target = init

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self):
        """The event this process is currently waiting on (or None)."""
        return self._target

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event):
        if self._value is not _PENDING:
            return  # already finished (e.g. interrupted after completing)
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target may fire later and must not resume us again).
        target = self._target
        if target is not None and target is not event:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        env = self.env
        env.active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env.active_process = None
            self._target = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env.active_process = None
            self._target = None
            self.fail(exc)
            return
        env.active_process = None
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
        if next_event.callbacks is None:
            # The event already fired; resume on the next scheduler tick.
            redo = Event(env)
            redo._ok = next_event._ok
            redo._value = next_event._value
            if not redo._ok:
                redo._defused = True
            redo.callbacks.append(self._resume)
            env.schedule(redo, priority=URGENT)
            self._target = redo
        else:
            self._target = next_event
            next_event.callbacks.append(self._resume)

    def __repr__(self):
        name = getattr(self._generator, "__name__", "process")
        state = "alive" if self.is_alive else "finished"
        return f"<Process {name} {state}>"
