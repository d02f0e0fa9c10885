"""The metrics registry: correctness, identity, gating and thread-safety."""

import threading

import pytest

from repro.telemetry.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry


@pytest.fixture()
def reg():
    return MetricsRegistry(enabled=True)


class TestInstruments:
    def test_counter_accumulates(self, reg):
        c = reg.counter("jobs_total", "Jobs.")
        c.inc()
        c.inc(3)
        assert c.value == 4.0

    def test_gauge_set_inc_dec(self, reg):
        g = reg.gauge("in_flight", "In flight.")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0

    def test_histogram_observe_and_cumulative_buckets(self, reg):
        h = reg.histogram("latency", "Latency.", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 99.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(102.7)
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 3), (float("inf"), 4)]

    def test_histogram_timer_observes_elapsed(self, reg):
        h = reg.histogram("t", "T.")
        with h.time():
            pass
        assert h.count == 1
        assert 0.0 <= h.sum < 1.0

    def test_same_identity_returns_same_object(self, reg):
        a = reg.counter("hits", "Hits.", backend="sqlite")
        b = reg.counter("hits", backend="sqlite")
        c = reg.counter("hits", backend="jsonl")
        assert a is b
        assert a is not c

    def test_kind_mismatch_raises(self, reg):
        reg.counter("x", "X.")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_default_buckets_cover_subseconds_to_minutes(self):
        assert DEFAULT_TIME_BUCKETS[0] <= 0.001
        assert DEFAULT_TIME_BUCKETS[-1] >= 60.0


class TestGating:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("n", "N.")
        h = reg.histogram("h", "H.")
        c.inc()
        h.observe(1.0)
        assert c.value == 0.0
        assert h.count == 0

    def test_enable_starts_recording_on_existing_instruments(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("n", "N.")
        c.inc()
        reg.enable()
        c.inc()
        assert c.value == 1.0

    def test_reset_zeroes_but_keeps_identity(self, reg):
        c = reg.counter("n", "N.")
        c.inc(7)
        reg.reset()
        assert c.value == 0.0
        assert reg.counter("n") is c


class TestExposition:
    def test_render_text_prometheus_format(self, reg):
        reg.counter("repro_hits_total", "Cache hits.", driver="batch").inc(2)
        reg.histogram("repro_seconds", "Durations.", buckets=(1.0,)).observe(0.5)
        text = reg.render_text()
        assert "# HELP repro_hits_total Cache hits." in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{driver="batch"} 2' in text
        assert 'repro_seconds_bucket{le="1"} 1' in text
        assert 'repro_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_seconds_count 1" in text

    def test_label_values_are_escaped(self, reg):
        reg.counter("c", "C.", label='say "hi"\\').inc()
        assert 'label="say \\"hi\\"\\\\"' in reg.render_text()

    def test_snapshot_structure(self, reg):
        reg.counter("a_total", "A.").inc()
        reg.histogram("b_seconds", "B.").observe(2.0)
        snap = reg.snapshot()
        assert snap["enabled"] is True
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["a_total"]["type"] == "counter"
        assert by_name["a_total"]["value"] == 1.0
        assert by_name["b_seconds"]["type"] == "histogram"
        assert by_name["b_seconds"]["count"] == 1
        assert by_name["b_seconds"]["sum"] == pytest.approx(2.0)

    def test_save_snapshot_roundtrips_json(self, reg, tmp_path):
        import json

        reg.counter("a_total", "A.").inc(3)
        path = reg.save_snapshot(tmp_path / "snap.json")
        data = json.loads(path.read_text())
        assert data["metrics"][0]["value"] == 3.0


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self, reg):
        c = reg.counter("n", "N.")
        h = reg.histogram("h", "H.", buckets=(0.5,))

        def worker():
            for _ in range(10_000):
                c.inc()
                h.observe(0.1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000.0
        assert h.count == 80_000
        assert h.cumulative_buckets()[0][1] == 80_000

    def test_concurrent_instrument_creation_yields_one_object(self, reg):
        seen = []

        def worker():
            seen.append(reg.counter("same", "S.", k="v"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestConcurrentDrivers:
    def test_two_async_calibrators_share_the_registry_safely(self):
        """Two drivers in threads record into the process-wide
        registry at once; dispatch counters must add up exactly."""
        from repro.core import AsyncCalibrator, EvaluationBudget
        from repro.core.parameters import Parameter, ParameterSpace
        from repro.telemetry.metrics import registry

        reg = registry()
        reg.reset()
        reg.enable()
        try:
            space = ParameterSpace([Parameter("x", 1.0, 2.0, scale="linear")])
            results = []

            def run(seed):
                result = AsyncCalibrator(
                    space, lambda v: v["x"], algorithm="random",
                    budget=EvaluationBudget(12), seed=seed,
                    workers=2, mode="serial", cache=False,
                ).run()
                results.append(result)

            threads = [threading.Thread(target=run, args=(s,)) for s in (1, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 2
            dispatched = reg.counter("repro_driver_dispatches_total", driver="async")
            assert dispatched.value == 24.0
        finally:
            reg.disable()
            reg.reset()
