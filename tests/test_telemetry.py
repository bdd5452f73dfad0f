"""The unified telemetry subsystem: metrics registry, span tracer,
exporters, and the end-to-end lifecycle trace.

The load-bearing invariants (ISSUE acceptance criteria):

* a traced blur compile()+run produces a span tree that nests correctly,
  whose compile span's phase children tile it and sum to the cost
  model's phase totals *exactly*, and whose chrome export is a valid
  trace-event JSON document;
* the ``report.*_stats()`` readers track the registry;
* ``fallback_stats()["events"]`` is bounded while the count stays exact.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import report
from repro.apps import ALL_APPS
from repro.apps.harness import measure
from repro.telemetry import export, metrics, trace
from repro.telemetry.metrics import (
    DEFAULT_EVENT_CAPACITY,
    EventLog,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
)
from repro.telemetry.trace import NULL, Tracer, resolve_mode
from tests.conftest import compile_c


@pytest.fixture(autouse=True)
def _fresh_registry():
    report.reset()
    yield
    report.reset()


# -- metric types -------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("g")
        g.set(7)
        g.set(3)
        assert g.value == 3
        reg.reset()
        assert c.value == 0 and g.value == 0

    def test_registry_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_labeled_counter_preset_survives_reset(self):
        lc = LabeledCounter("layers", preset=("a", "b"))
        lc.inc("a")
        lc.inc("c", 3)
        assert lc.snapshot() == {"a": 1, "b": 0, "c": 3}
        lc.reset()
        assert lc.snapshot() == {"a": 0, "b": 0}

    def test_histogram_buckets_and_mean(self):
        h = Histogram("h", (10, 100))
        for v in (5, 50, 500):
            h.record(v)
        assert h.buckets == [1, 1, 1]
        assert h.count == 3 and h.total == 555
        assert h.min == 5 and h.max == 500
        assert h.mean == pytest.approx(185.0)
        snap = h.snapshot()
        assert snap["bounds"] == [10, 100]
        with pytest.raises(ValueError):
            Histogram("bad", (100, 10))

    def test_histogram_percentile_edge_cases(self):
        h = Histogram("p", (10, 100))
        # Empty: no sample to report, not a crash and not a zero.
        assert h.percentile(0.5) is None
        h.record(42)
        # A single sample IS every percentile.
        assert h.percentile(0.0) == 42
        assert h.percentile(0.5) == 42
        assert h.percentile(1.0) == 42
        for v in (1, 7, 900):
            h.record(v)
        # p=0 and p=100 pin to the exact extremes, not bucket bounds.
        assert h.percentile(0.0) == 1
        assert h.percentile(1.0) == 900
        mid = h.percentile(0.5)
        assert 1 <= mid <= 900

    def test_histogram_percentile_interpolates_within_a_bucket(self):
        h = Histogram("x", (10, 100, 1000))
        for v in (1, 2, 3):
            h.record(v)
        # All three samples sit in the first bucket: the estimate comes
        # from inside [min, max], never from the bucket's upper bound.
        assert h.percentile(0.5) == 2
        assert 2 < h.percentile(0.99) <= 3 == h.max

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60),
           st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8,
                    unique=True))
    def test_histogram_percentiles_stay_ordered_within_min_max(
            self, samples, bounds):
        h = Histogram("p", sorted(bounds))
        for v in samples:
            h.record(v)
        p50, p99 = h.percentile(0.5), h.percentile(0.99)
        assert h.min <= p50 <= p99 <= h.max

    def test_histogram_percentile_rejects_bad_quantiles(self):
        h = Histogram("p", (10,))
        h.record(1)
        for bad in (-0.1, 1.5, 100):
            with pytest.raises(ValueError, match="quantile"):
                h.percentile(bad)

    def test_event_log_is_bounded_with_exact_total(self):
        log = EventLog("e", capacity=4)
        for i in range(10):
            log.append(("ev", i))
        assert log.total == 10
        assert len(log) == 4
        assert log.dropped == 6
        assert list(log) == [("ev", i) for i in (6, 7, 8, 9)]
        assert log[0] == ("ev", 6)
        log.reset()
        assert log.total == 0 and len(log) == 0

    def test_record_compile_feeds_three_histograms(self):
        metrics.record_compile("cold", 12_000, 40)
        snap = metrics.REGISTRY.snapshot()
        assert snap["compile.codegen_cycles"]["count"] == 1
        assert snap["compile.generated_instructions"]["sum"] == 40
        assert snap["compile.latency.cold"]["sum"] == 12_000

    def test_event_log_resize_keeps_newest(self):
        log = EventLog("e", capacity=8)
        for i in range(8):
            log.append(i)
        log.resize(4)
        assert log.capacity == 4
        assert list(log) == [4, 5, 6, 7]
        assert log.total == 8                  # exact total survives
        log.resize(16)
        log.append(99)
        assert list(log) == [4, 5, 6, 7, 99]
        with pytest.raises(ValueError):
            log.resize(0)

    def test_histogram_exemplars_capture_trace_ids(self):
        h = Histogram("lat", (10, 100))
        h.record(5)                            # no ambient context: none
        with metrics.exemplar_context("req#1"):
            h.record(50)
        snap = h.snapshot()
        assert snap["exemplars"] == {1: [50, "req#1"]}
        assert metrics.current_exemplar() is None
        h.reset()
        assert "exemplars" not in h.snapshot()


# -- report readers over the registry -----------------------------------------


class TestLegacyViews:
    def test_fallback_events_are_capped(self):
        for i in range(DEFAULT_EVENT_CAPACITY + 10):
            report.record_fallback("icode", "vcode", f"reason {i}")
        stats = report.fallback_stats()
        assert stats["count"] == DEFAULT_EVENT_CAPACITY + 10
        events = stats["events"]
        assert len(events) == DEFAULT_EVENT_CAPACITY
        # oldest dropped, newest kept, tuple shape preserved
        assert events[-1] == ("icode", "vcode",
                              f"reason {DEFAULT_EVENT_CAPACITY + 9}")

    def test_views_track_registry(self):
        report.record_cache_hit(100)
        report.record_verify("ticklint", 0, 0.5)
        assert report.cache_stats()["hits"] == 1
        assert report.verify_stats()["checks_run"] == 1
        assert report.verify_stats()["diagnostics"]["ticklint"] == 0
        report.reset()
        assert report.cache_stats()["cycles_saved"] == 0
        assert metrics.REGISTRY.get("cache.hits").value == 0


# -- the tracer ---------------------------------------------------------------


class TestTracer:
    def test_resolve_mode(self):
        assert resolve_mode(None) == "off"
        assert resolve_mode("on") == "on"
        assert resolve_mode("sample:3") == "sample:3"
        for bad in ("sometimes", "sample:0", "sample:x"):
            with pytest.raises(ValueError):
                resolve_mode(bad)

    def test_spans_nest_and_advance(self):
        t = Tracer("on")
        outer = t.begin("outer", cat="spec")
        t.advance(10)
        with t.span("inner", cat="compile"):
            t.advance(5)
        t.end(outer)
        assert t.cursor == 15
        inner, outer = t.spans
        assert inner.parent == outer.sid
        assert (inner.ts, inner.dur) == (10, 5)
        assert (outer.ts, outer.end) == (0, 15)
        assert "wall_us" in outer.args

    def test_end_advances_by_modeled_cost(self):
        t = Tracer("on")
        s = t.begin("exec:f", cat="exec")
        t.end(s, advance=140, trap=None)
        assert s.dur == 140 and s.args["trap"] is None

    def test_instant_and_add_complete(self):
        t = Tracer("on")
        parent = t.begin("run", cat="spec")
        mark = t.instant("fallback", reason="x")
        assert mark.parent == parent.sid and mark.dur == 0
        t.advance(100)
        t.end(parent)
        child = t.add_complete("compile#1", "compile", ts=-5, end=60,
                               parent=parent)
        assert child.parent == parent.sid
        assert child.ts == parent.ts  # clamped into the parent
        assert child.end == 60

    def test_sampling_keeps_every_nth(self):
        t = Tracer("sample:2")
        assert [t.sample("compile") for _ in range(5)] == \
            [True, False, True, False, True]
        # independent counters per key
        assert t.sample("exec") is True

    def test_span_cap_drops_but_counts(self):
        t = Tracer("on")
        t.MAX_SPANS = 2
        for i in range(4):
            t.instant(f"e{i}")
        assert len(t.spans) == 2 and t.dropped == 2
        t.clear()
        assert t.spans == [] and t.dropped == 0 and t.cursor == 0

    def test_dropped_spans_feed_the_registry_counter(self):
        # Silent span loss was a bug: retention-capped drops must be
        # visible in scrapes, not only on the tracer instance.
        counter = metrics.REGISTRY.counter("telemetry.trace.dropped_spans")
        base = counter.value
        t = Tracer("on")
        t.MAX_SPANS = 1
        for i in range(4):
            t.instant(f"e{i}")
        assert counter.value - base == 3

    def test_dropped_spans_surface_in_export_summary(self):
        t = Tracer("on")
        t.MAX_SPANS = 2
        for i in range(5):
            t.instant(f"e{i}")
        text = export.summary(t)
        assert "3 spans dropped" in text
        t2 = Tracer("on")
        t2.instant("kept")
        assert "spans dropped" not in export.summary(t2)

    def test_null_tracer_is_inert(self):
        assert not NULL.enabled
        assert NULL.sample() is False
        with NULL.span("x") as s:
            assert s is None
        assert trace.active() is NULL
        real = Tracer("on")
        with trace.activate(real):
            assert trace.active() is real
        assert trace.active() is NULL


# -- end-to-end lifecycle trace -----------------------------------------------


def _span_index(tracer):
    return {s.sid: s for s in tracer.spans}


class TestLifecycleTrace:
    @pytest.fixture(scope="class")
    def blur(self):
        report.reset()
        return measure(ALL_APPS["blur"], backend="icode", telemetry="on")

    def test_measure_attaches_tracer_only_when_asked(self, blur):
        assert isinstance(blur.tracer, Tracer)
        off = measure(ALL_APPS["pow"], backend="icode")
        assert off.tracer is None

    def test_spans_nest_correctly(self, blur):
        by_sid = _span_index(blur.tracer)
        for span in blur.tracer.spans:
            if span.parent is None:
                continue
            parent = by_sid[span.parent]
            assert parent.ts <= span.ts <= span.end <= parent.end, \
                f"{span.name} escapes {parent.name}"

    def test_phase_children_tile_compile_span_exactly(self, blur):
        spans = blur.tracer.spans
        compiles = [s for s in spans if s.cat == "compile"]
        assert len(compiles) == 1, "blur performs exactly one compile()"
        (c,) = compiles
        kids = sorted((s for s in spans
                       if s.cat == "phase" and s.parent == c.sid),
                      key=lambda s: s.ts)
        assert kids[0].ts == c.ts and kids[-1].end == c.end
        for a, b in zip(kids, kids[1:]):
            assert a.end == b.ts, "phase children must tile with no gaps"
        # ... and the tiling is the cost model's phase totals exactly.
        assert sum(k.dur for k in kids) == c.dur == blur.codegen_cycles
        assert c.args["path"] == "cold"
        assert c.args["backend"] == "icode"
        entry, end = c.args["code_range"]
        assert c.args["entry"] == entry < end

    def test_exec_span_matches_measured_cycles(self, blur):
        execs = [s for s in blur.tracer.spans if s.cat == "exec"]
        assert execs, "the timed dynamic run must appear on the trace"
        assert execs[-1].dur == blur.dynamic_cycles

    def test_spec_run_span_encloses_the_compile(self, blur):
        spans = blur.tracer.spans
        run = next(s for s in spans if s.cat == "spec")
        compile_span = next(s for s in spans if s.cat == "compile")
        assert compile_span.parent == run.sid

    def test_verify_layers_appear_as_instants(self, blur):
        names = {s.name for s in blur.tracer.spans if s.cat == "verify"}
        assert "verify:codeaudit" in names

    def test_chrome_export_schema(self, blur):
        doc = export.chrome_trace(blur.tracer, title="blur")
        # must round-trip as strict JSON (Perfetto requirement)
        doc = json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        assert doc["otherData"]["clock"] == "modeled cycles"
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        for e in events:
            assert {"name", "ph", "pid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0
        assert len([e for e in events if e["ph"] != "M"]) == \
            len(blur.tracer.spans)

    def test_jsonl_and_summary_render(self, blur):
        lines = export.to_jsonl(blur.tracer).strip().splitlines()
        assert len(lines) == len(blur.tracer.spans) + 1
        assert "metrics" in json.loads(lines[-1])
        text = export.summary(blur.tracer)
        assert "compile" in text and "timeline" in text


class TestKnobPlumbing:
    SRC = """
    int build(void) {
        int vspec a = param(int, 0);
        return (int)compile(`(a + 1), int);
    }
    """

    def test_sample_mode_traces_every_nth_compile(self):
        proc = compile_c(self.SRC, telemetry="sample:2", codecache=False)
        for _ in range(4):
            proc.run("build")
        compiles = [s for s in proc.tracer.spans if s.cat == "compile"]
        assert len(compiles) == 2
        # metrics stay exact regardless of sampling
        snap = metrics.REGISTRY.snapshot()
        assert snap["compile.codegen_cycles"]["count"] == 4

    def test_telemetry_off_by_default(self):
        proc = compile_c(self.SRC)
        proc.run("build")
        assert proc.tracer is None and proc.machine.tracer is None

    def test_cache_paths_reach_compile_span_args(self):
        proc = compile_c(self.SRC, telemetry="on", codecache=True)
        proc.run("build")
        proc.run("build")
        paths = [s.args["path"] for s in proc.tracer.spans
                 if s.cat == "compile"]
        assert paths == ["cold", "hit"]
        snap = metrics.REGISTRY.snapshot()
        assert snap["compile.latency.hit"]["count"] == 1

    def test_shared_tracer_spans_static_and_dynamic(self):
        from repro import TccCompiler

        tcc = TccCompiler(telemetry="on")
        proc = tcc.compile(self.SRC).start(codecache=False)
        proc.run("build")
        cats = {s.cat for s in proc.tracer.spans}
        assert {"static", "spec", "compile", "phase"} <= cats
        assert proc.tracer is tcc.tracer

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            compile_c(self.SRC, telemetry="loud")


class TestTelemetryCli:
    def test_summary_to_stdout(self, capsys):
        from repro.telemetry.__main__ import main

        assert main(["pow"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out and "compile" in out

    def test_chrome_output_file(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        path = tmp_path / "pow.json"
        assert main(["pow", "-f", "chrome", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["otherData"]["clock"] == "modeled cycles"
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_jsonl_output_file(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        path = tmp_path / "pow.jsonl"
        assert main(["pow", "-f", "jsonl", "-o", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_list_and_unknown_app(self, capsys):
        from repro.telemetry.__main__ import main

        assert main(["--list"]) == 0
        assert "blur" in capsys.readouterr().out
        assert main(["nonsense"]) == 1
        assert "unknown app" in capsys.readouterr().err
