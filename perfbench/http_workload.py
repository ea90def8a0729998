"""``checkout-http``: the retail gateway served over a real socket.

The server side runs in a child process (``python3 http_workload.py
--serve``): ``serve_retail`` on the realtime backend (``factor=1``),
K-apiserver, one shard.  The benchmark adds three routes of its own
under ``/perfbench/`` to read the child's CPU clock, its layer spans and
to stop it.  The client side (this process) holds two keep-alive
connections, one thread each, and sends ``POST /orders``:

1. open loop -- Poisson arrivals at ``RATE`` per second, each request
   timed from the instant it was due, so a stall shows in later
   requests too;
2. closed loop -- each connection sends its next request as soon as the
   previous one answers, for the capacity figure ``max_rps``; its tail
   must stay under ``TAIL_LIMIT_MS``.
"""

import http.client
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RATE = 100.0  # open-loop requests per second
CONNECTIONS = 2
OPEN_SHARE = 0.6  # share of --seconds spent in the open-loop phase
TAIL_LIMIT_MS = 50.0
#: The open loop counts only if the generator kept to its schedule: at
#: most 1% of requests may leave more than one mean inter-arrival gap
#: after they were due, and none may stall past the latency limit.
LATE_P99_LIMIT_MS = 1e3 / RATE
LATE_MAX_LIMIT_MS = TAIL_LIMIT_MS
CHILD_TIMEOUT = 170.0
WINDOW = 0.25  # seconds per cost window; the report takes the median


# -- server side (child process) -----------------------------------------


def serve_main(seed, trace, out_dir, cpu):
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.apps.retail.rest_gateway import serve_retail
    from repro.core.optimizer import K_APISERVER
    from run import SETUPS, timed_build
    from stats import Marker, percentile

    recorder = instrumentation = None
    if trace:
        from layers import Instrumentation
        from spans import SpanRecorder

        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder).install()

    builds = []
    for attempt in range(SETUPS):
        (app, gateway, listener), *timing = timed_build(
            lambda: serve_retail(profile=K_APISERVER, shards=1, factor=1.0,
                                 seed=seed))
        builds.append(timing)
        if attempt < SETUPS - 1:
            listener.stop()
            app.env.close()
    env = app.env
    stop = env.event()
    snapshots = []  # one per /perfbench/mark call

    # Every WINDOW seconds the server takes a mark as a request arrives:
    # the clocks, the requests served so far, and a probe of the speed
    # of the core that serves requests.  (A kernel timer would fire
    # seconds late once the closed loop saturates the kernel.)
    marker = Marker()
    dispatch = gateway.server.dispatch
    next_mark = [0.0]

    def marking_dispatch(request):
        now = time.perf_counter()
        if now >= next_mark[0]:
            next_mark[0] = now + WINDOW
            if recorder is not None:
                recorder.enter("load:mark", "load")
            try:
                marker.mark(gateway.server.requests_served)
            finally:
                if recorder is not None:
                    recorder.exit()
        return dispatch(request)

    gateway.server.dispatch = marking_dispatch

    def snapshot():
        state = {"cpu_s": time.process_time(), "wall_s": time.perf_counter(),
                 "rss_mb": resource.getrusage(
                     resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        copies = app.de.backend.copy_stats
        copies = copies() if callable(copies) else copies
        state["copied_bytes"] = copies["copied_bytes"]
        state["shared_bytes"] = copies["shared_bytes_avoided"]
        if recorder is not None:
            state["self_ns"] = dict(recorder.self_ns)
            state["counts"] = dict(recorder.counts)
            state["vt_calls"] = len(recorder.vt_samples)
        return state

    def mark(_request):
        snapshots.append(snapshot())
        return {key: snapshots[-1][key] for key in ("cpu_s", "wall_s",
                                                     "rss_mb")}

    def finish(_request):
        """Figures between the first and the last /perfbench/mark."""
        first, last = snapshots[0], snapshots[-1]
        final = {
            "cpu_s": last["cpu_s"] - first["cpu_s"],
            "copied_bytes": last["copied_bytes"] - first["copied_bytes"],
            "shared_bytes": last["shared_bytes"] - first["shared_bytes"],
            "lateness_max_ms": env.max_lateness * 1e3,
            "builds": builds,
            "marks": [m for m in marker.marks
                      if first["wall_s"] <= m[4] <= last["wall_s"]],
        }
        if recorder is not None:
            final["self_ns"] = _minus(last["self_ns"], first["self_ns"])
            final["counts"] = _minus(last["counts"], first["counts"])
            calls = sorted(
                recorder.vt_samples[first["vt_calls"]:last["vt_calls"]])
            final["vt_calls_n"] = len(calls)
            final["vt_call_p50_ms"] = (
                percentile(calls, 50.0) * 1e3 if calls else 0.0)

        def later(env):
            yield env.timeout(0.2)  # let this response reach the socket
            stop.succeed()

        env.process(later(env))
        return final

    gateway.server.route("GET", "/perfbench/mark", mark)
    gateway.server.route("POST", "/perfbench/stop", finish)
    print(json.dumps({"port": listener.port}), flush=True)
    try:
        env.run(until=stop)
    finally:
        listener.stop()
        env.close()
        if instrumentation is not None:
            instrumentation.uninstall()
    if recorder is not None:
        from spans import write_chrome_trace

        out_dir.mkdir(exist_ok=True)
        write_chrome_trace(out_dir / f"checkout-http-seed{seed}.trace.json",
                           recorder.spans, recorder.origin_ns,
                           f"perfbench checkout-http seed {seed}")
    return 0


def _minus(after, before):
    return {k: v - before.get(k, 0) for k, v in after.items()}


# -- client side ------------------------------------------------------------


class _Client:
    """Two keep-alive connections driving the child's gateway."""

    def __init__(self, port, seed):
        self.port = port
        self.payloads = random.Random(f"{seed}/checkout-http/payloads")
        self.lock = threading.Lock()
        self.sent = 0
        self.results = []  # (phase, due, done, status, ok)
        self.lates = []  # seconds each open-loop request left after due

    def connect(self):
        return [http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                for _ in range(CONNECTIONS)]

    def next_body(self):
        from workloads import order_payload

        with self.lock:
            self.sent += 1
            body = order_payload(self.payloads)
            body["key"] = f"h{self.sent:07d}"
        return body

    def post(self, conn, body):
        conn.request("POST", "/orders", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read() or b"{}")
        ok = (response.status == 201
              and payload.get("key") == f"order/{body['key']}"
              and payload.get("order", {}).get("cost") == body["cost"])
        return response.status, ok

    def open_loop(self, conns, schedule):
        """Poisson arrivals; each request is timed from its due instant."""
        start = time.perf_counter()
        queue = iter(schedule)

        def worker(conn):
            while True:
                with self.lock:
                    due = next(queue, None)
                if due is None:
                    return
                due += start
                free_at = time.perf_counter()
                if due > free_at:
                    time.sleep(due - free_at)
                sent = time.perf_counter()
                # Late only when the generator oversleeps, not when both
                # connections were still busy with earlier requests.
                late = sent - max(due, free_at)
                status, ok = self.post(conn, self.next_body())
                done = time.perf_counter()
                with self.lock:
                    self.lates.append(late)
                    self.results.append(("open", due, done, status, ok))

        self._run_threads(worker, conns)
        return time.perf_counter() - start

    def closed_loop(self, conns, seconds):
        start = time.perf_counter()
        stop_at = start + seconds

        def worker(conn):
            while time.perf_counter() < stop_at:
                sent = time.perf_counter()
                status, ok = self.post(conn, self.next_body())
                done = time.perf_counter()
                with self.lock:
                    self.results.append(("closed", sent, done, status, ok))

        self._run_threads(worker, conns)
        return time.perf_counter() - start

    @staticmethod
    def _run_threads(worker, conns):
        threads = [threading.Thread(target=worker, args=(conn,))
                   for conn in conns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(CHILD_TIMEOUT)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")

    def call(self, conn, method, path):
        conn.request(method, path, body="{}" if method == "POST" else None,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")


def _schedule(seed, seconds):
    rng = random.Random(f"{seed}/checkout-http/arrivals")
    times, t = [], 0.0
    while True:
        t += rng.expovariate(RATE)
        if t >= seconds:
            return times
        times.append(t)


def drive(seed, seconds, trace):
    """Spawn the server, run both phases, stop it; returns the figures."""
    # Server and client each keep a core of their own (when there are
    # two), so the server's probes measure the core that serves.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--serve",
         "--seed", str(seed), "--trace", str(int(trace)),
         "--cpu", str(max(cpus))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, child.kill)
    watchdog.start()
    try:
        line = child.stdout.readline()
        if not line:
            raise RuntimeError("server process exited before it was ready")
        ready = json.loads(line)
        client = _Client(ready["port"], seed)
        conns = client.connect()
        schedule = _schedule(seed, seconds * OPEN_SHARE)
        cpu0 = time.process_time()
        marks = [client.call(conns[0], "GET", "/perfbench/mark")[1]]
        open_wall = client.open_loop(conns, schedule)
        marks.append(client.call(conns[0], "GET", "/perfbench/mark")[1])
        closed_wall = client.closed_loop(conns, seconds * (1 - OPEN_SHARE))
        marks.append(client.call(conns[0], "GET", "/perfbench/mark")[1])
        client_cpu = time.process_time() - cpu0
        _status, stored = client.call(conns[0], "GET", "/metrics")
        _status, final = client.call(conns[0], "POST", "/perfbench/stop")
        for conn in conns:
            conn.close()
        child.wait(timeout=30)
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
        os.sched_setaffinity(0, cpus)
    return {
        "client": client, "final": final, "stored": stored, "marks": marks,
        "open_wall": open_wall, "closed_wall": closed_wall,
        "client_cpu": client_cpu, "offered": len(schedule),
    }


def _figures(run):
    from stats import summarize

    results = run["client"].results
    marks = run["marks"]
    open_lat = [done - due for phase, due, done, _s, _ok in results
                if phase == "open"]
    closed = [(sent, done) for phase, sent, done, _s, _ok in results
              if phase == "closed"]
    # The server's own marks (clocks, requests served, probe) split the
    # run into windows: CPU over both phases, wall over the closed loop.
    # Both phases hold a steady load (the open loop at about half of
    # capacity, the closed loop at fixed concurrency), so no backlog
    # forms, every window serves a like share of requests, and the
    # median window keeps one host stall out of the figure.
    server = [tuple(m) for m in run["final"]["marks"]]
    closed_marks = [m for m in server if m[4] >= marks[1]["wall_s"]]
    everything = _window_costs(server)
    capacity = _window_costs(closed_marks)
    return {
        "open": summarize(open_lat),
        "closed": summarize([done - sent for sent, done in closed]),
        "closed_n": len(closed),
        "requests": len(results),
        "windows": (len(capacity), len(everything)),
        "max_rps": len(closed) / run["closed_wall"],
        "costs": {
            key: statistics.median(window[key] for window in windows) * 1e6
            for key, windows in (("wall", capacity), ("wall_ref", capacity),
                                 ("cpu", everything),
                                 ("cpu_ref", everything))
        },
        "rss_mb": marks[1]["rss_mb"],
    }


def _window_costs(marks):
    """Per-request costs of each window in which requests were served."""
    from stats import scaled_costs

    windows = (scaled_costs(pair) for pair in zip(marks, marks[1:]))
    return [window for window in windows if window is not None]


def _checks(run, figures):
    failures = []
    client = run["client"]
    bad = [r for r in client.results if not r[4]]
    if bad:
        failures.append(f"{len(bad)} requests without a 201 and their order "
                        f"(first status {bad[0][3]})")
    if run["stored"].get("orders_stored") != client.sent:
        failures.append(f"/metrics shows {run['stored'].get('orders_stored')} "
                        f"stored orders, {client.sent} were sent")
    tail = figures["closed"]["tail"]
    if tail is None or tail * 1e3 >= TAIL_LIMIT_MS:
        failures.append(f"closed-loop tail {tail} s is not under "
                        f"{TAIL_LIMIT_MS} ms")
    late_p99, late_max = _lateness_ms(client)
    if late_p99 > LATE_P99_LIMIT_MS or late_max > LATE_MAX_LIMIT_MS:
        failures.append(f"the load generator ran late (p99 {late_p99:.3f} ms, "
                        f"limit {LATE_P99_LIMIT_MS:g}; max {late_max:.3f} ms, "
                        f"limit {LATE_MAX_LIMIT_MS:g}): the run does not count")
    return failures


def _lateness_ms(client):
    """p99 and max of how late open-loop requests left, in ms."""
    from stats import percentile

    return (percentile(client.lates, 99.0) * 1e3, max(client.lates) * 1e3)


def run_http(seed, seconds, trace):
    from run import (cost_lines, emit, import_seconds, latency_lines,
                     metric, setup_line)
    from stats import failure_counts

    if trace:
        return run_http_traced(seed, seconds)
    imports = import_seconds("repro.apps.retail.rest_gateway")
    run = drive(seed, seconds, trace=False)
    figures = _figures(run)
    failures = _checks(run, figures)
    final = run["final"]
    setup_s = imports[0] + statistics.median(
        ref for ref, _raw in final["builds"])
    attempted, failed = failure_counts(
        "ok" if r[4] else "failed" for r in run["client"].results)
    open_lat = figures["open"]
    metrics = {
        "wall_ref_us_per_op": metric(figures["costs"]["wall_ref"], "us"),
        "cpu_ref_us_per_op": metric(figures["costs"]["cpu_ref"], "us"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(figures["rss_mb"], "MB"),
    }
    closed = figures["closed"]
    lines = [
        f"workload checkout-http seed {seed}: {run['offered']} open-loop "
        f"requests at {RATE:g}/s in {run['open_wall']:.3f} s, "
        f"{figures['closed_n']} closed-loop in {run['closed_wall']:.3f} s "
        f"over {CONNECTIONS} connections",
        *cost_lines(
            figures["costs"],
            f"median of {figures['windows'][0]} closed-loop (wall) and "
            f"{figures['windows'][1]} (server CPU) windows of {WINDOW:g} s, "
            f"n={figures['requests']} requests"),
        *latency_lines("wall", open_lat, "host, from due time, open loop"),
        f"max_rps = {figures['max_rps']:.1f} 1/s  [host, closed loop, "
        f"tail p{closed['tail_q']:g} {closed['tail'] * 1e3:.3f} ms, limit "
        f"{TAIL_LIMIT_MS:g} ms, n={closed['n']}]",
        setup_line(setup_s, imports, final["builds"]),
        f"peak_rss_mb = {figures['rss_mb']:.1f} MB  [host, server process, "
        "after the open-loop phase]",
        f"failed_frac = {failed / attempted:.6f}  [{failed} of {attempted}]",
        "load.gen_late_p99_ms = {:.3f} ms, load.gen_late_max_ms = {:.3f} ms"
        "  [host, n={}, limits {:g} / {:g} ms]".format(
            *_lateness_ms(run["client"]), len(run["client"].lates),
            LATE_P99_LIMIT_MS, LATE_MAX_LIMIT_MS),
        f"realtime.lateness_max_ms = {final['lateness_max_ms']:.3f} ms",
    ]
    lines += [f"CHECK FAILED: {failure}" for failure in failures]
    return emit(not failures, attempted, failed, metrics, lines)


def run_http_traced(seed, seconds):
    """An untraced run for the overhead baseline, then the traced run."""
    from run import emit, per_layer_metrics
    from stats import failure_counts

    plain = _figures(drive(seed, seconds, trace=False))
    run = drive(seed, seconds, trace=True)
    figures = _figures(run)
    failures = _checks(run, figures)
    final = run["final"]
    attempted, failed = failure_counts(
        "ok" if r[4] else "failed" for r in run["client"].results)
    n = figures["requests"]
    snapshot = {
        "self_ns": final["self_ns"], "counts": final["counts"],
        "vt_calls": {"n": final["vt_calls_n"],
                     "p50_ms": final["vt_call_p50_ms"]},
        "wall_ns": final["cpu_s"] * 1e9,
    }
    extra = {
        "store.cow.copied_bytes": final["copied_bytes"],
        "store.cow.shared_bytes": final["shared_bytes"],
        "realtime.lateness_max_ms": final["lateness_max_ms"],
        "load.self_us_per_op": run["client_cpu"] / max(n, 1) * 1e6,
        "load.gen_late_max_ms": max(run["client"].lates) * 1e3,
        "trace.overhead_ratio": (figures["costs"]["wall_ref"]
                                 / plain["costs"]["wall_ref"]),
    }
    metrics, lines = per_layer_metrics(snapshot, n, extra)
    lines.insert(0, f"workload checkout-http seed {seed} traced: {n} "
                    f"requests; server CPU {final['cpu_s']:.3f} s is the "
                    "total the shares divide")
    lines.append(f"chrome trace: {HERE / 'out'}/checkout-http-seed{seed}"
                 ".trace.json (written by the server process)")
    lines += [f"CHECK FAILED: {failure}" for failure in failures]
    return emit(not failures, attempted, failed, metrics, lines)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="checkout-http server side")
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    raise SystemExit(serve_main(args.seed, args.trace, HERE / "out", args.cpu))
