"""Host-time spans recorded around calls into the program's layers.

A :class:`SpanRecorder` keeps a stack of open spans on the one thread
the program runs on.  Each span has a name, a layer, a start and end on
the host's monotonic clock, its parent span and an op id.  Self time
is aggregated online -- a span's duration minus the time its direct
children cover -- and the first ``keep`` spans are retained in memory
for the Chrome-trace export written when the run ends.

Generator and coroutine bodies run in slices between the kernel's
resumes, so they are timed per resume: each ``send``/``throw`` into the
body is one span.  Nothing here touches the program's event queue, so
virtual time and event order are the same with tracing on or off.

No ``repro`` imports: the helpers are tested in a bare checkout.
"""

import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class SpanRecorder:
    """Open-span stack plus per-layer self time and per-name counts."""

    def __init__(self, keep=50_000):
        self.keep = keep
        self._stack = []  # [id, name, layer, start_ns, child_ns, op]
        self._next_id = 0
        self.self_ns = defaultdict(int)  # layer -> ns
        self.calls = defaultdict(int)  # span name -> count
        self.counts = defaultdict(float)  # free-form counters
        self.vt_samples = []  # virtual durations of store calls (s)
        self.spans = []  # (id, name, layer, start_ns, end_ns, parent, op)
        self.dropped = 0
        self.origin_ns = _clock()

    @property
    def current_op(self):
        return self._stack[-1][5] if self._stack else None

    def enter(self, name, layer, op=None):
        if op is None and self._stack:
            op = self._stack[-1][5]
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, name, layer, _clock(), 0, op])

    def exit(self):
        end = _clock()
        span_id, name, layer, start, child, op = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        self.calls[name] += 1
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[4] += duration
            parent = top[0]
        if span_id < self.keep:
            self.spans.append((span_id, name, layer, start, end, parent, op))
        else:
            self.dropped += 1

    def count(self, name, amount=1):
        self.counts[name] += amount

    @property
    def depth(self):
        return len(self._stack)

    def reset(self):
        """Forget everything measured so far (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.vt_samples.clear()
        self.spans.clear()
        self.dropped = 0
        self._next_id = 0
        self.origin_ns = _clock()


def timed_generator(gen, recorder, name, layer, op=None, on_return=None):
    """Drive ``gen`` and time each resume of it as one span.

    ``on_return`` (optional) sees the generator's return value.
    """
    value, error = None, None
    while True:
        recorder.enter(name, layer, op)
        try:
            if error is None:
                out = gen.send(value)
            else:
                out = gen.throw(error)
        except StopIteration as stop:
            recorder.exit()
            if on_return is not None:
                on_return(stop.value)
            return stop.value
        except BaseException:
            recorder.exit()
            raise
        recorder.exit()
        value, error = None, None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the body next resume
            error = exc


class _TimedAwaitable:
    """Awaitable proxy timing each resume of a coroutine as one span."""

    __slots__ = ("_coro", "_recorder", "_name", "_layer", "_op")

    def __init__(self, coro, recorder, name, layer, op):
        self._coro = coro
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._op = op

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._recorder.enter(self._name, self._layer, self._op)
        try:
            return self._coro.send(value)
        finally:
            self._recorder.exit()

    def throw(self, *args):
        self._recorder.enter(self._name, self._layer, self._op)
        try:
            return self._coro.throw(*args)
        finally:
            self._recorder.exit()

    def close(self):
        self._coro.close()


async def timed_coroutine(coro, recorder, name, layer, op=None):
    """A real coroutine (asyncio accepts it) timing each resume of ``coro``."""
    return await _TimedAwaitable(coro, recorder, name, layer, op)


# -- offline analysis ----------------------------------------------------


def self_times(spans):
    """Self time per layer from retained spans, by interval coverage.

    ``spans`` are ``(id, name, layer, start, end, parent, op)`` tuples.
    A span's self time is its duration minus the union of the intervals
    its direct children cover, clipped to the span itself; overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            children[span[5]].append((span[3], span[4]))
    out = defaultdict(int)
    for span_id, _name, layer, start, end, _parent, _op in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[layer] += (end - start) - covered
    return dict(out)


def chrome_trace(spans, origin_ns, process_name):
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto) for spans.

    Each op gets its own track (thread) named after the op id, so a
    reader can open one op and see where its host time went; spans
    with no op sit on the ``kernel`` track.
    """
    tracks = {None: 0}
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": process_name}},
              {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "kernel"}}]
    for span_id, name, layer, start, end, parent, op in spans:
        tid = tracks.get(op)
        if tid is None:
            tid = tracks[op] = len(tracks)
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"op {op}"}})
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": (start - origin_ns) / 1000.0,
            "dur": (end - start) / 1000.0,
            "args": {"id": span_id, "parent": parent, "op": op},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans, origin_ns, process_name):
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans, origin_ns, process_name), handle)
