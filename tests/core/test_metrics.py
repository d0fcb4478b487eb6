"""Unit tests for timing metrics collection."""

import pytest

from repro.core.metrics import MetricsCollector, TimingRecord


def record(servable="m", inf=0.01, inv=0.02, req=0.05, hit=False):
    return TimingRecord(
        servable=servable,
        inference_time=inf,
        invocation_time=inv,
        request_time=req,
        cache_hit=hit,
    )


class TestTimingRecord:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingRecord("m", -0.1, 0.2, 0.3)

    def test_frozen(self):
        r = record()
        with pytest.raises(AttributeError):
            r.inference_time = 1.0  # type: ignore[misc]


class TestCollector:
    def test_record_and_count(self):
        mc = MetricsCollector()
        mc.record(record())
        mc.record(record(servable="other"))
        assert mc.count() == 2
        assert mc.count("m") == 1
        assert mc.servables() == ["m", "other"]

    def test_summarize_percentiles(self):
        mc = MetricsCollector()
        for i in range(1, 101):
            mc.record(record(inv=i / 1000.0))
        summary = mc.summarize("m", "invocation_time")
        assert summary.count == 100
        assert summary.median == pytest.approx(0.0505, abs=1e-3)
        assert summary.p5 < summary.median < summary.p95

    def test_summary_of_one_record(self):
        mc = MetricsCollector()
        mc.record(record(inv=0.020))
        summary = mc.summarize("m", "invocation_time")
        assert summary.count == 1
        assert summary.median == summary.p5 == summary.p95 == pytest.approx(0.020)

    def test_unknown_metric(self):
        mc = MetricsCollector()
        mc.record(record())
        with pytest.raises(ValueError):
            mc.summarize("m", "wallclock")

    def test_unknown_servable(self):
        with pytest.raises(KeyError):
            MetricsCollector().summarize("ghost", "request_time")

    def test_summary_table_covers_all(self):
        mc = MetricsCollector()
        mc.record(record("a"))
        mc.record(record("b"))
        table = mc.summary_table()
        assert len(table) == 6  # 2 servables x 3 metrics

    def test_clear(self):
        mc = MetricsCollector()
        mc.record(record())
        mc.clear()
        assert mc.count() == 0

    def test_records_accessor_copies(self):
        mc = MetricsCollector()
        mc.record(record())
        records = mc.records("m")
        records.clear()
        assert mc.count("m") == 1


class TestStageLatencyCollector:
    def _collector(self):
        from repro.core.metrics import StageLatencyCollector

        collector = StageLatencyCollector()
        for wait in (0.001, 0.002, 0.003):
            collector.record("queue_wait", "noop", wait)
        collector.record("queue_wait", "cifar10", 0.010)
        collector.record("inference", "noop", 0.005)
        return collector

    def test_record_and_count(self):
        collector = self._collector()
        assert collector.count("queue_wait", "noop") == 3
        assert collector.count("queue_wait") == 4
        assert collector.count() == 5
        assert collector.servables() == ["cifar10", "noop"]

    def test_unknown_stage_rejected(self):
        collector = self._collector()
        with pytest.raises(ValueError):
            collector.record("teleport", "noop", 0.001)

    def test_negative_sample_rejected(self):
        collector = self._collector()
        with pytest.raises(ValueError):
            collector.record("dispatch", "noop", -0.1)

    def test_summarize_per_servable(self):
        collector = self._collector()
        summary = collector.summarize("queue_wait", "noop")
        assert summary.count == 3
        assert summary.median == pytest.approx(0.002)
        assert summary.metric == "queue_wait"

    def test_summarize_aggregates_across_servables(self):
        collector = self._collector()
        summary = collector.summarize("queue_wait")
        assert summary.count == 4
        assert summary.servable == "*"

    def test_summarize_empty_raises(self):
        collector = self._collector()
        with pytest.raises(KeyError):
            collector.summarize("dispatch")

    def test_clear(self):
        collector = self._collector()
        collector.clear()
        assert collector.count() == 0


class TestSamplesSince:
    def _collector_with(self, n):
        from repro.core.metrics import StageLatencyCollector

        collector = StageLatencyCollector()
        for i in range(n):
            collector.record("queue_wait", "noop", 0.001 * (i + 1))
        return collector

    def test_windowed_reads(self):
        collector = self._collector_with(3)
        cursor = collector.count("queue_wait", "noop")
        assert collector.samples_since("queue_wait", "noop", 0) == [
            0.001,
            0.002,
            0.003,
        ]
        collector.record("queue_wait", "noop", 0.004)
        assert collector.samples_since("queue_wait", "noop", cursor) == [0.004]

    def test_empty_window(self):
        collector = self._collector_with(2)
        assert collector.samples_since("queue_wait", "noop", 2) == []
        assert collector.samples_since("queue_wait", "ghost", 0) == []

    def test_validation(self):
        collector = self._collector_with(1)
        with pytest.raises(ValueError):
            collector.samples_since("ghost", "noop", 0)
        with pytest.raises(ValueError):
            collector.samples_since("queue_wait", "noop", -1)


class TestWindowedSamples:
    def _collector(self):
        from repro.core.metrics import StageLatencyCollector

        collector = StageLatencyCollector()
        for t, wait in ((1.0, 0.010), (2.0, 0.020), (3.0, 0.030)):
            collector.record("queue_wait", "noop", wait, at=t)
        collector.record("queue_wait", "noop", 0.999)  # untimestamped
        return collector

    def test_window_is_half_open(self):
        collector = self._collector()
        assert collector.samples_in_window("queue_wait", "noop", 1.0, 3.0) == [
            0.010,
            0.020,
        ]

    def test_untimestamped_samples_fall_outside_every_window(self):
        collector = self._collector()
        everything = collector.samples_in_window(
            "queue_wait", "noop", -1e9, 1e9
        )
        assert 0.999 not in everything
        assert len(everything) == 3

    def test_plain_reads_still_see_all_samples(self):
        collector = self._collector()
        assert len(collector.samples("queue_wait", "noop")) == 4

    def test_unknown_stage_rejected(self):
        collector = self._collector()
        with pytest.raises(ValueError):
            collector.samples_in_window("teleport", "noop", 0.0, 1.0)

    def test_clear_drops_times(self):
        collector = self._collector()
        collector.clear()
        assert collector.samples_in_window("queue_wait", "noop", 0.0, 10.0) == []


class TestPodUtilizationGauge:
    def _collector(self):
        from repro.core.metrics import StageLatencyCollector

        collector = StageLatencyCollector()
        collector.record_pod_share("m", "w0/m-1", 0.030)
        collector.record_pod_share("m", "w0/m-1", 0.010)
        collector.record_pod_share("m", "w0/m-2", 0.020)
        collector.record_pod_share("m", "w1/m-1", 0.020)
        collector.record_pod_share("other", "w0/other-1", 9.0)
        return collector

    def test_cumulative_busy_per_pod(self):
        collector = self._collector()
        assert collector.pod_busy("m") == {
            "w0/m-1": pytest.approx(0.040),
            "w0/m-2": pytest.approx(0.020),
            "w1/m-1": pytest.approx(0.020),
        }
        assert collector.pod_chunk_counts("m") == {
            "w0/m-1": 2,
            "w0/m-2": 1,
            "w1/m-1": 1,
        }

    def test_prefix_restricts_to_one_host(self):
        collector = self._collector()
        assert set(collector.pod_busy("m", prefix="w0/")) == {"w0/m-1", "w0/m-2"}

    def test_imbalance_is_max_over_mean(self):
        collector = self._collector()
        # w0 host: busy 0.040 vs 0.020 -> max/mean = 0.040/0.030.
        assert collector.pod_imbalance("m", prefix="w0/") == pytest.approx(
            0.040 / 0.030
        )

    def test_imbalance_none_without_chunks(self):
        from repro.core.metrics import StageLatencyCollector

        assert StageLatencyCollector().pod_imbalance("ghost") is None

    def test_balanced_pods_report_one(self):
        from repro.core.metrics import StageLatencyCollector

        collector = StageLatencyCollector()
        collector.record_pod_share("m", "w0/m-1", 0.5)
        collector.record_pod_share("m", "w0/m-2", 0.5)
        assert collector.pod_imbalance("m") == pytest.approx(1.0)

    def test_negative_share_rejected(self):
        from repro.core.metrics import StageLatencyCollector

        with pytest.raises(ValueError):
            StageLatencyCollector().record_pod_share("m", "w0/m-1", -0.1)

    def test_windowed_busy_overrides_cumulative_history(self):
        """A consumer passing per-interval deltas sees *current*
        imbalance: an ancient straggler no longer skews the gauge."""
        from repro.core.metrics import StageLatencyCollector

        collector = StageLatencyCollector()
        # Early transient: pod 1 was a 3x straggler.
        collector.record_pod_share("m", "w0/m-1", 3.0)
        collector.record_pod_share("m", "w0/m-2", 1.0)
        snapshot = collector.pod_busy("m")
        # Then a perfectly balanced interval.
        collector.record_pod_share("m", "w0/m-1", 1.0)
        collector.record_pod_share("m", "w0/m-2", 1.0)
        window = {
            pod: total - snapshot.get(pod, 0.0)
            for pod, total in collector.pod_busy("m").items()
        }
        assert collector.pod_imbalance("m") > 1.2  # cumulative: skewed
        assert collector.pod_imbalance("m", busy=window) == pytest.approx(1.0)
