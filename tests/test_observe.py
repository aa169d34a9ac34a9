"""Tests for the observability layer (:mod:`repro.observe`).

Covers the tracer's span trees (nesting, timing under a fake clock,
exception safety, sampling), thread isolation of the active tracer,
the Chrome trace round trip, the profile table's reconciliation
property, the unified metrics registry and its back-compat shims
(engine ``Metrics``, ``MetricsScope`` deltas, ``NamedCounters``), and
a hypothesis property over counter monotonicity.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, strategies as st

from repro.engine.metrics import Metrics, MetricsScope
from repro.observe import (
    NULL_SPAN,
    MetricsRegistry,
    NamedCounters,
    Span,
    Tracer,
    current_tracer,
    get_registry,
    load_trace,
    profile_rows,
    registry_delta,
    render_profile,
    sampled_span,
    span,
    spans_from_chrome,
    to_chrome,
    write_trace,
)


class FakeClock:
    """A deterministic clock: every reading advances by ``step``."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading


def empty_registry() -> MetricsRegistry:
    """A dedicated registry so tests do not see global bundles."""
    return MetricsRegistry()


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


def test_span_nesting_follows_call_structure():
    tracer = Tracer(clock=FakeClock(), registry=empty_registry())
    with tracer:
        with span("outer") as outer:
            with span("inner-a"):
                pass
            with span("inner-b") as inner_b:
                inner_b.set_attr("rows", 7)
    assert [root.name for root in tracer.roots] == ["outer"]
    assert [child.name for child in outer.children] == ["inner-a", "inner-b"]
    assert inner_b.attrs == {"rows": 7}
    assert not outer.children[0].children


def test_span_timing_with_fake_clock():
    # FakeClock advances 1s per reading; span open and close each take
    # one reading, so "outer" spans readings 0..5 and the two children
    # 1..2 and 3..4.
    tracer = Tracer(clock=FakeClock(), registry=empty_registry())
    with tracer:
        with span("outer"):
            with span("a"):
                pass
            with span("b"):
                pass
    outer = tracer.roots[0]
    assert outer.start == 0.0 and outer.end == 5.0
    assert outer.duration == 5.0
    assert [child.duration for child in outer.children] == [1.0, 1.0]
    assert outer.self_seconds() == 3.0


def test_span_closes_on_exception():
    tracer = Tracer(clock=FakeClock(), registry=empty_registry())
    with tracer:
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
    doomed = tracer.roots[0]
    assert doomed.end is not None
    # The current-span var was restored: a new span is a root, not a
    # child of the failed one.
    with tracer:
        with span("after"):
            pass
    assert [root.name for root in tracer.roots] == ["doomed", "after"]


def test_multiple_roots():
    tracer = Tracer(clock=FakeClock(), registry=empty_registry())
    with tracer:
        with span("first"):
            pass
        with span("second"):
            pass
    assert [root.name for root in tracer.roots] == ["first", "second"]


def test_no_active_tracer_yields_null_span():
    assert current_tracer() is None
    with span("ignored") as handle:
        handle.set_attr("anything", 1)  # must not raise
    assert handle is NULL_SPAN
    assert not handle


def test_sampled_span_records_every_nth():
    tracer = Tracer(clock=FakeClock(), registry=empty_registry(),
                    sample_every=3)
    with tracer:
        for _ in range(7):
            with sampled_span("dml.NetGet"):
                pass
    # Calls 1, 4 and 7 are recorded; all seven are counted.
    assert len(tracer.roots) == 3
    assert [root.attrs["sample_index"] for root in tracer.roots] == [1, 4, 7]
    assert tracer.sample_counts == {"dml.NetGet": 7}


def test_sample_every_validation():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


def test_thread_does_not_see_main_thread_tracer():
    tracer = Tracer(registry=empty_registry())
    seen: list[object] = []

    def worker() -> None:
        seen.append(current_tracer())
        with span("thread-span"):
            pass

    with tracer:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # Threads start from a fresh context: no tracer, nothing recorded.
    assert seen == [None]
    assert tracer.roots == []


def test_thread_with_own_tracer_records_independently():
    main_tracer = Tracer(registry=empty_registry())
    thread_tracer = Tracer(registry=empty_registry())

    def worker() -> None:
        with thread_tracer:
            with span("thread-root"):
                pass

    with main_tracer:
        with span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
    assert [root.name for root in main_tracer.roots] == ["main-root"]
    assert [root.name for root in thread_tracer.roots] == ["thread-root"]


# ---------------------------------------------------------------------------
# Export round trips and the profile table
# ---------------------------------------------------------------------------


def make_trace() -> Tracer:
    tracer = Tracer(clock=FakeClock(0.5), registry=empty_registry())
    with tracer:
        with span("convert", program="REPORT"):
            with span("phase.analyze"):
                pass
            with span("phase.generate"):
                with span("operator.Interpose"):
                    pass
    return tracer


def test_native_round_trip(tmp_path):
    tracer = make_trace()
    path = write_trace(tracer, tmp_path / "trace.json")
    loaded = load_trace(path)
    assert [span.to_dict() for span in loaded] == \
        [root.to_dict() for root in tracer.roots]


def test_chrome_document_shape():
    tracer = make_trace()
    document = to_chrome(tracer)
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}
    assert [event["name"] for event in events] == [
        "convert", "phase.analyze", "phase.generate", "operator.Interpose",
    ]
    convert = events[0]
    assert convert["ts"] == 0.0
    assert convert["args"]["program"] == "REPORT"


def test_chrome_containment_reconstruction():
    tracer = make_trace()
    rebuilt = spans_from_chrome(to_chrome(tracer)["traceEvents"])
    assert len(rebuilt) == 1
    convert = rebuilt[0]
    assert convert.name == "convert"
    assert [child.name for child in convert.children] == \
        ["phase.analyze", "phase.generate"]
    assert [g.name for g in convert.children[1].children] == \
        ["operator.Interpose"]


def test_load_trace_accepts_bare_chrome_events(tmp_path):
    tracer = make_trace()
    path = tmp_path / "bare.json"
    import json
    path.write_text(json.dumps({"traceEvents":
                                to_chrome(tracer)["traceEvents"]}))
    loaded = load_trace(path)
    assert loaded[0].name == "convert"
    assert [child.name for child in loaded[0].children] == \
        ["phase.analyze", "phase.generate"]


def test_profile_reconciles_with_root_duration():
    tracer = make_trace()
    rows = profile_rows(tracer)
    root_total = sum(root.duration for root in tracer.roots)
    assert sum(row.self_seconds for row in rows) == pytest.approx(root_total)
    rendered = render_profile(tracer)
    assert "self times sum to" in rendered
    assert "1 root span(s)" in rendered


def test_profile_aggregates_by_name():
    tracer = Tracer(clock=FakeClock(), registry=empty_registry())
    with tracer:
        for _ in range(3):
            with span("repeated"):
                pass
    (row,) = profile_rows(tracer)
    assert row.name == "repeated" and row.calls == 3
    assert row.total_seconds == pytest.approx(3.0)


def test_span_dict_round_trip():
    original = Span("s", {"k": 1}, start=1.0, end=2.5,
                    children=[Span("c", start=1.2, end=1.4)],
                    metrics_delta={"engine.dml_calls": 2})
    assert Span.from_dict(original.to_dict()) == original
    # Trace files written before 9.0.0 also carry each span's registry
    # snapshot under "metrics"; they still load.
    old = dict(original.to_dict(), metrics={"engine.dml_calls": 3})
    assert Span.from_dict(old) == original


# ---------------------------------------------------------------------------
# Metrics registry and the back-compat shims
# ---------------------------------------------------------------------------


def test_named_counters_namespace_and_aggregation():
    registry = empty_registry()
    a = NamedCounters("emulation", registry=registry)
    b = NamedCounters("emulation", registry=registry)
    a.bump("store")
    a.bump("store")
    b.bump("store")
    b.bump("erase", 3)
    assert a.get("store") == 2 and a.get("never") == 0
    assert a.snapshot() == {"store": 2}
    assert registry.snapshot() == {"emulation.erase": 3,
                                   "emulation.store": 3}


def test_engine_metrics_register_globally():
    registry = get_registry()
    before = registry.snapshot()
    bundle = Metrics()
    bundle.records_read += 5
    bundle.dml_calls += 2
    delta = registry_delta(before, registry.snapshot())
    assert delta["engine.records_read"] == 5
    assert delta["engine.dml_calls"] == 2


def test_derived_metrics_do_not_double_count():
    registry = get_registry()
    bundle = Metrics()
    bundle.records_read += 4
    before = registry.snapshot()
    # Subtraction results and scope deltas copy counts that the
    # aggregate has already seen; they must not register.
    difference = bundle - Metrics(registered=False)
    with MetricsScope(bundle) as scope:
        bundle.records_read += 1
    assert difference.records_read == 4
    assert scope.delta.records_read == 1
    delta = registry_delta(before, registry.snapshot())
    assert delta == {"engine.records_read": 1}


def test_registry_holds_sources_weakly():
    registry = empty_registry()
    counters = NamedCounters("tmp", registry=registry)
    counters.bump("x")
    assert registry.snapshot() == {"tmp.x": 1}
    del counters
    import gc
    gc.collect()
    assert registry.snapshot() == {}


def test_registry_delta_semantics():
    assert registry_delta({}, {"a": 2}) == {"a": 2}
    assert registry_delta({"a": 2}, {"a": 2}) == {}
    # Vanished counters (collected bundle) are dropped, not negative.
    assert registry_delta({"a": 2}, {}) == {}
    assert registry_delta({"a": 2}, {"a": 5, "b": 1}) == {"a": 3, "b": 1}


def test_span_captures_metrics_delta():
    registry = empty_registry()
    counters = NamedCounters("verbs", registry=registry)
    tracer = Tracer(clock=FakeClock(), registry=registry)
    with tracer:
        with span("work"):
            counters.bump("find", 4)
    work = tracer.roots[0]
    assert work.metrics_delta == {"verbs.find": 4}
    assert "metrics" not in work.to_dict()


@given(st.lists(st.tuples(st.sampled_from(["read", "write", "probe"]),
                          st.integers(min_value=0, max_value=10)),
                max_size=30))
def test_counter_snapshots_never_decrease(bumps):
    registry = MetricsRegistry()
    counters = NamedCounters("prop", registry=registry)
    previous = registry.snapshot()
    for name, amount in bumps:
        counters.bump(name, amount)
        current = registry.snapshot()
        for key, value in previous.items():
            assert current.get(key, 0) >= value
        assert all(v >= 0 for v in
                   registry_delta(previous, current).values())
        previous = current
