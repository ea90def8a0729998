"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# -- the percentile / n rule -------------------------------------------------


@pytest.mark.parametrize("n, q", [
    (10_000, 99.9), (9_999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0),
    (20, 50.0), (19, None), (0, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q


def test_summarize_records_n_and_flags_small_tails():
    values = list(range(1, 101))
    summary = stats.summarize(values)
    assert summary["n"] == 100
    assert summary["p50"] == 50
    assert summary["tail_q"] == 90.0
    assert summary["tail"] == 90
    assert not summary["flagged"]
    small = stats.summarize(values[:50])
    assert small["flagged"] and small["tail_q"] == 75.0


def test_percentile_is_nearest_rank():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 50) == 2
    assert stats.percentile([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- failure counting --------------------------------------------------------


def test_failure_counts_treat_everything_but_ok_as_failed():
    outcomes = ["ok", "ok", "failed: NotFoundError", None, "ok", "rejected"]
    assert stats.failure_counts(outcomes) == (6, 3)
    assert stats.failure_counts([]) == (0, 0)


# -- windows and the reference speed ---------------------------------------


def test_scaled_costs_weigh_every_op_and_scale_by_probes():
    ref = stats.REFERENCE_S
    marks = [
        (0.0, 0.0, 0, ref),
        (1.0, 0.5, 0, ref),  # a backlog window: nothing finished yet
        (2.0, 1.0, 4, ref),
        (4.0, 2.5, 6, 3 * ref),  # the core ran at half speed here
    ]
    costs = stats.scaled_costs(marks)
    assert costs["wall"] == pytest.approx(4.0 / 6)
    assert costs["cpu"] == pytest.approx(2.5 / 6)
    # The last window's 1.5 s of CPU count as 0.75 s.  Only time on the
    # core is scaled: the 1.5 s off it across the windows stays.
    assert costs["wall_ref"] == pytest.approx(3.25 / 6)
    assert costs["cpu_ref"] == pytest.approx(1.75 / 6)
    assert stats.scaled_costs([]) is None
    assert stats.scaled_costs([(0.0, 0.0, 3, ref), (1.0, 1.0, 3, ref)]) is None


def test_at_reference_divides_by_the_mean_probe():
    ref = stats.REFERENCE_S
    assert stats.at_reference(2.0, (ref, ref)) == pytest.approx(2.0)
    assert stats.at_reference(2.0, (ref, 3 * ref)) == pytest.approx(1.0)


def test_marker_keeps_probe_time_out_of_the_windows():
    marker = stats.Marker()
    marker.mark(0)
    marker.mark(0)
    (w0, _c0, _n0, p0, raw0), (w1, _c1, _n1, _p1, raw1) = marker.marks
    # Back-to-back marks: the window between them is (almost) empty even
    # though a whole probe ran in it.
    assert p0 > 0 and w1 - w0 < p0 / 2 and raw1 - raw0 >= p0


# -- the checkout-http run checks -------------------------------------------


def _http_run(lates):
    import types

    client = types.SimpleNamespace(
        results=[("open", 0.0, 0.003, 201, True)] * len(lates),
        sent=len(lates), lates=lates)
    return ({"client": client, "stored": {"orders_stored": len(lates)}},
            {"closed": {"tail": 0.010}})


@pytest.mark.parametrize("late_ms, ok", [
    ([0.1] * 199 + [12.0], True),  # one late request: under the p99 limit
    ([0.1] * 180 + [12.0] * 20, False),  # 10% left over a gap late
    ([0.1] * 199 + [60.0], False),  # one stall past the latency limit
])
def test_a_late_generator_fails_the_http_run(late_ms, ok):
    import http_workload

    run, figures = _http_run([ms / 1e3 for ms in late_ms])
    failures = http_workload._checks(run, figures)
    assert (failures == []) is ok
    assert all("late" in failure for failure in failures)


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "wall_us_per_op", "store.cow.self_us_per_op", "9lives", "a-b.c_d",
])
def test_legal_metric_names(name):
    assert stats.check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "has space", "slash/no", "x" * 65, None, "µs",
])
def test_illegal_metric_names(name):
    with pytest.raises(ValueError):
        stats.check_metric_name(name)


def test_benchmark_json_matches_what_the_run_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        stats.check_metric_name(metric["name"])


# -- spans and self time -----------------------------------------------------


def test_self_time_subtracts_child_coverage_once():
    # parent 0..100 with children 10..30 and 20..50 (overlapping), and
    # a child 90..120 that overruns the parent.
    recorded = [
        (0, "p", "a", 0, 100, None, None),
        (1, "c1", "b", 10, 30, 0, None),
        (2, "c2", "b", 20, 50, 0, None),
        (3, "c3", "c", 90, 120, 0, None),
    ]
    self_ns = spans.self_times(recorded)
    assert self_ns["a"] == 100 - 40 - 10
    assert self_ns["b"] == 20 + 30
    assert self_ns["c"] == 30


@pytest.fixture
def fake_clock(monkeypatch):
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(spans, "_clock", lambda: next(ticks))


def test_online_self_time_matches_offline(fake_clock):
    rec = spans.SpanRecorder()
    rec.enter("outer", "a", op="o1")
    rec.enter("inner", "b")
    rec.enter("leaf", "c")
    rec.exit()
    rec.exit()
    rec.enter("inner2", "b")
    rec.exit()
    rec.exit()
    assert dict(rec.self_ns) == spans.self_times(rec.spans)
    assert {s[1]: s[6] for s in rec.spans} == {
        "outer": "o1", "inner": "o1", "leaf": "o1", "inner2": "o1"}
    assert rec.depth == 0


def test_recorder_keeps_only_the_first_spans(fake_clock):
    rec = spans.SpanRecorder(keep=2)
    for _ in range(5):
        rec.enter("s", "a")
        rec.exit()
    assert len(rec.spans) == 2 and rec.dropped == 3
    assert rec.calls["s"] == 5


def test_timed_generator_is_transparent():
    rec = spans.SpanRecorder()
    returned = []

    def body():
        got = yield "first"
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    gen = spans.timed_generator(body(), rec, "g", "layer", op="x",
                                on_return=returned.append)
    assert next(gen) == "first"
    assert gen.send(21) == 42
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done" and returned == ["done"]
    assert rec.calls["g"] == 4 and rec.depth == 0


def test_timed_coroutine_runs_under_asyncio():
    import asyncio

    rec = spans.SpanRecorder()

    async def body():
        await asyncio.sleep(0)
        return 7

    assert asyncio.run(spans.timed_coroutine(body(), rec, "c", "l")) == 7
    assert rec.calls["c"] == 2 and rec.depth == 0


def test_chrome_trace_puts_each_op_on_its_own_track(fake_clock):
    rec = spans.SpanRecorder()
    rec.enter("kernel", "simnet")
    rec.enter("work", "store", op="o7")
    rec.exit()
    rec.exit()
    trace = spans.chrome_trace(rec.spans, rec.origin_ns, "t")
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"]: e["tid"] for e in complete} == {"kernel": 0, "work": 1}
    names = {e["tid"]: e["args"]["name"] for e in trace["traceEvents"]
             if e["name"] == "thread_name"}
    assert names[1] == "op o7"


# -- the layer map -------------------------------------------------------------


def test_every_wrapped_module_is_in_a_layer():
    for module, _cls, _attr, _options in layers.TARGETS:
        assert layers.layer_of(module) in layers.LAYERS
    for module, _attr, _options in layers.LOOKED_UP:
        assert layers.layer_of(module) in layers.LAYERS


def test_layer_of_takes_the_longest_prefix():
    assert layers.layer_of("repro.store.cow") == "store.cow"
    assert layers.layer_of("repro.store.memkv") == "store"
    assert layers.layer_of("repro.apps.retail.rest_gateway") == "rest"
    assert layers.layer_of("repro.apps.retail.knactors") == "apps"
    with pytest.raises(KeyError):
        layers.layer_of("json")


# -- determinism guard ---------------------------------------------------------


def _short_orders(seed, recorder=None):
    from workloads import OrdersWorkload

    workload = OrdersWorkload(seed, recorder=recorder)
    workload.prefix = 15.0
    workload.setup()
    workload.start()
    workload.run_until(workload.prefix_end)
    return workload


def test_same_seed_repeats_and_tracing_changes_nothing():
    plain = _short_orders(3)
    again = _short_orders(3)
    recorder = spans.SpanRecorder()
    instrumentation = layers.Instrumentation(recorder).install()
    try:
        traced = _short_orders(3, recorder)
    finally:
        instrumentation.uninstall()
    digests = [(w.fingerprint(), w.event_digest(w.prefix_end),
                [(op.due, op.done) for op in w.ops])
               for w in (plain, again, traced)]
    assert digests[0] == digests[1] == digests[2]
    assert recorder.counts["simnet.events"] > 0
    assert recorder.depth == 0


@pytest.mark.parametrize("share", [0.25, 1 / 41, 0.5])
def test_fixed_shares_are_exact_and_even(share):
    from workloads import _every

    hits = [i for i in range(4100) if _every(i, share)]
    assert len(hits) == int(4100 * share)
    gaps = {b - a for a, b in zip(hits, hits[1:])}
    assert max(gaps) - min(gaps) <= 1


def test_another_seed_changes_the_offered_load():
    assert _short_orders(3).fingerprint() != _short_orders(4).fingerprint()


def test_uninstall_restores_every_original():
    from repro.simnet.events import Environment
    from repro.store import cow, objectops

    step, estimate = Environment.step, objectops.estimate_size
    instrumentation = layers.Instrumentation(spans.SpanRecorder()).install()
    assert Environment.step is not step
    assert objectops.estimate_size is not estimate
    assert cow.estimate_size is estimate  # the home module is left alone
    instrumentation.uninstall()
    assert Environment.step is step and objectops.estimate_size is estimate
