"""Exporter formats: Prometheus text, metrics JSON, traces, profile table."""

import json

from repro.telemetry.clock import ManualClock
from repro.telemetry.exporters import (
    METRICS_SCHEMA_VERSION,
    PROFILE_STAGES,
    lint_prometheus_text,
    metrics_json,
    prometheus_text,
    render_profile,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.runtime import SECONDS_BUCKETS, STAGES, PipelineTelemetry
from repro.telemetry.tracer import Tracer


def populated_registry():
    registry = MetricRegistry()
    registry.counter("reads_total", "reads processed").inc(7)
    registry.gauge("peak_depth").set(3.5)
    hist = registry.histogram("latency_seconds", (0.1, 1.0), "span latency")
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    return registry


class TestPrometheusText:
    def test_empty_registry_exports_empty_text(self):
        assert prometheus_text(MetricRegistry()) == ""

    def test_counter_and_gauge_lines(self):
        text = prometheus_text(populated_registry())
        assert "# HELP reads_total reads processed" in text
        assert "# TYPE reads_total counter" in text
        assert "reads_total 7" in text
        assert "# TYPE peak_depth gauge" in text
        assert "peak_depth 3.5" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        lines = prometheus_text(populated_registry()).splitlines()
        bucket_lines = [l for l in lines if l.startswith("latency_seconds")]
        assert bucket_lines == [
            'latency_seconds_bucket{le="0.1"} 1',
            'latency_seconds_bucket{le="1"} 2',
            'latency_seconds_bucket{le="+Inf"} 3',
            "latency_seconds_sum 2.55",
            "latency_seconds_count 3",
        ]

    def test_help_line_omitted_without_help_text(self):
        registry = MetricRegistry()
        registry.counter("bare").inc()
        text = prometheus_text(registry)
        assert "# HELP" not in text
        assert "# TYPE bare counter" in text


class TestPrometheusLint:
    def test_exporter_output_is_lint_clean(self):
        assert lint_prometheus_text(prometheus_text(populated_registry())) == []

    def test_empty_output_is_lint_clean(self):
        assert lint_prometheus_text("") == []

    def test_missing_trailing_newline_flagged(self):
        problems = lint_prometheus_text("reads_total 7")
        assert any("newline" in p for p in problems)

    def test_bad_metric_name_flagged(self):
        problems = lint_prometheus_text("2reads 7\n")
        assert any("unparseable sample" in p for p in problems)

    def test_unknown_type_kind_flagged(self):
        problems = lint_prometheus_text("# TYPE reads_total meter\n")
        assert any("unknown TYPE" in p for p in problems)

    def test_duplicate_type_flagged(self):
        text = (
            "# TYPE reads_total counter\n"
            "# TYPE reads_total counter\n"
            "reads_total 7\n"
        )
        assert any("duplicate" in p for p in lint_prometheus_text(text))

    def test_metadata_after_sample_flagged(self):
        text = "reads_total 7\n# HELP reads_total late help\n"
        problems = lint_prometheus_text(text)
        assert any("after its first sample" in p for p in problems)

    def test_unparseable_value_flagged(self):
        text = "# TYPE reads_total counter\nreads_total seven\n"
        assert any("unparseable value" in p
                   for p in lint_prometheus_text(text))

    def test_unescaped_label_quote_flagged(self):
        text = 'latency_bucket{le="a"b"} 1\n'
        assert any("malformed labels" in p
                   for p in lint_prometheus_text(text))

    def test_escaped_label_value_accepted(self):
        text = (
            "# TYPE hits counter\n"
            'hits{path="C:\\\\logs\\"daily\\""} 3\n'
        )
        assert lint_prometheus_text(text) == []

    def test_bucket_without_le_label_flagged(self):
        text = (
            "# TYPE latency_seconds histogram\n"
            "latency_seconds_bucket 1\n"
            "latency_seconds_sum 1\n"
            "latency_seconds_count 1\n"
        )
        assert any('le="..."' in p for p in lint_prometheus_text(text))

    def test_bucket_series_missing_inf_flagged(self):
        text = (
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.1"} 1\n'
            "latency_seconds_sum 0.05\n"
            "latency_seconds_count 1\n"
        )
        problems = lint_prometheus_text(text)
        assert any("+Inf" in p for p in problems)

    def test_non_cumulative_buckets_flagged(self):
        text = (
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.1"} 5\n'
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 1\n"
            "latency_seconds_count 3\n"
        )
        problems = lint_prometheus_text(text)
        assert any("cumulative" in p for p in problems)

    def test_bucket_missing_sum_and_count_flagged(self):
        text = (
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="+Inf"} 3\n'
        )
        problems = lint_prometheus_text(text)
        assert any("_sum sample missing" in p for p in problems)
        assert any("_count sample missing" in p for p in problems)

    def test_untyped_bucket_series_flagged(self):
        text = (
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 1\n"
            "latency_seconds_count 3\n"
        )
        problems = lint_prometheus_text(text)
        assert any("without # TYPE" in p for p in problems)


class TestHistogramBucketEdges:
    """Golden bucket placement at exact boundary values.

    Prometheus ``le`` is inclusive: an observation exactly on a bucket
    bound must land in that bucket, not the next one.
    """

    def make_hist(self):
        registry = MetricRegistry()
        hist = registry.histogram("edge_seconds", (0.1, 1.0, 10.0))
        return registry, hist

    def test_observation_on_bound_lands_in_that_bucket(self):
        registry, hist = self.make_hist()
        hist.observe(0.1)
        lines = prometheus_text(registry).splitlines()
        assert 'edge_seconds_bucket{le="0.1"} 1' in lines
        assert 'edge_seconds_bucket{le="1"} 1' in lines

    def test_observation_just_above_bound_lands_in_next_bucket(self):
        registry, hist = self.make_hist()
        hist.observe(0.10000001)
        lines = prometheus_text(registry).splitlines()
        assert 'edge_seconds_bucket{le="0.1"} 0' in lines
        assert 'edge_seconds_bucket{le="1"} 1' in lines

    def test_observation_beyond_last_bound_only_in_inf(self):
        registry, hist = self.make_hist()
        hist.observe(99.0)
        lines = prometheus_text(registry).splitlines()
        assert 'edge_seconds_bucket{le="10"} 0' in lines
        assert 'edge_seconds_bucket{le="+Inf"} 1' in lines

    def test_edge_golden_text(self):
        registry, hist = self.make_hist()
        for value in (0.1, 0.1, 1.0, 10.0, 11.0):
            hist.observe(value)
        got = [
            line
            for line in prometheus_text(registry).splitlines()
            if line.startswith("edge_seconds")
        ]
        assert got == [
            'edge_seconds_bucket{le="0.1"} 2',
            'edge_seconds_bucket{le="1"} 3',
            'edge_seconds_bucket{le="10"} 4',
            'edge_seconds_bucket{le="+Inf"} 5',
            "edge_seconds_sum 22.2",
            "edge_seconds_count 5",
        ]
        assert lint_prometheus_text(prometheus_text(registry)) == []


class TestMetricsJson:
    def test_empty_registry_export(self):
        payload = metrics_json(MetricRegistry())
        assert payload == {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def test_payload_is_json_serialisable(self):
        payload = metrics_json(populated_registry())
        restored = json.loads(json.dumps(payload))
        assert restored["metrics"]["counters"]["reads_total"]["value"] == 7


class TestWriters:
    def test_prom_suffix_selects_text_format(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_metrics(path, populated_registry())
        assert "# TYPE reads_total counter" in path.read_text()

    def test_json_default_with_parent_creation(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "metrics.json"
        write_metrics(path, populated_registry())
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION

    def test_write_chrome_trace(self, tmp_path):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        tracer.begin("seed")
        clock.advance(0.001)
        tracer.end()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        trace = json.loads(path.read_text())
        assert [e["ph"] for e in trace["traceEvents"]] == ["B", "E"]


class TestRenderProfile:
    def test_stage_constant_matches_runtime(self):
        # The profile table and the runtime's histograms must agree on
        # the stage taxonomy, or stages silently vanish from the table.
        assert PROFILE_STAGES == STAGES

    def test_empty_registry_renders_zero_rows(self):
        table = render_profile(MetricRegistry(), 1.0)
        for stage in PROFILE_STAGES:
            assert stage in table
        assert "wall time: 1.000s" in table

    def test_totals_and_work_counters_rendered(self):
        telemetry = PipelineTelemetry(clock=ManualClock())
        registry = telemetry.metrics
        registry.get("pipeline_stage_seconds_extend_batch").observe(0.25)
        registry.get("pipeline_stage_seconds_extend_batch").observe(0.75)
        registry.get("pipeline_reads_total").inc(5)
        table = render_profile(registry, 2.0)
        lines = table.splitlines()
        extend_row = next(l for l in lines if l.startswith("extend_batch"))
        assert "2" in extend_row.split()  # calls
        assert "1.000" in extend_row  # total seconds
        assert "work: reads=5" in table

    def test_filter_stage_rows_rendered_from_published_cascade(self):
        # publish_cascade names: <backend>_filter_<stage>_<field>.
        registry = MetricRegistry()
        registry.counter("bitvector_filter_gate_checked").inc(31)
        registry.counter("bitvector_filter_gate_rejected").inc(0)
        registry.counter("bitvector_filter_gate_false_accepts").inc(12)
        registry.counter("bitvector_filter_gate_cycles").inc(62)
        registry.gauge(
            "bitvector_filter_gate_reject_fraction"
        ).set_max(0.0)
        registry.counter("bitvector_filter_myers_checked").inc(31)
        registry.counter("bitvector_filter_myers_rejected").inc(12)
        registry.gauge("bitvector_filter_myers_reject_fraction").set_max(
            12 / 31
        )
        table = render_profile(registry, 1.0)
        gate_row = next(
            l for l in table.splitlines()
            if l.startswith("bitvector/gate")
        )
        fields = gate_row.split()
        assert fields[1:] == ["31", "0", "12", "0.0%"]
        myers_row = next(
            l for l in table.splitlines() if l.startswith("bitvector/myers")
        )
        assert "38.7%" in myers_row

    def test_kernel_dedupe_line_rendered(self):
        registry = MetricRegistry()
        registry.counter("bitvector_kernel_batches").inc(2)
        registry.counter("bitvector_kernel_lanes").inc(40)
        registry.counter("bitvector_kernel_lanes_scored").inc(25)
        registry.counter("bitvector_kernel_windows_requested").inc(40)
        registry.counter("bitvector_kernel_windows_fetched").inc(30)
        registry.gauge(
            "bitvector_kernel_window_dedupe_rate"
        ).set_max(0.25)
        table = render_profile(registry, 1.0)
        kernel_line = next(
            l for l in table.splitlines() if l.startswith("kernel[bitvector]")
        )
        assert "2 batches" in kernel_line
        assert "25/40 lanes scored" in kernel_line
        assert "30/40 windows fetched" in kernel_line
        assert "25.0% deduped" in kernel_line

    def test_no_filter_or_kernel_lines_without_metrics(self):
        table = render_profile(MetricRegistry(), 1.0)
        assert "filter stage" not in table
        assert "kernel[" not in table

    def test_table_reconciles_with_merged_registry(self):
        # The --jobs N acceptance check in miniature: totals rendered from
        # a merged registry equal the sum of the shard registries.
        shard_a = PipelineTelemetry(clock=ManualClock())
        shard_b = PipelineTelemetry(clock=ManualClock())
        shard_a.metrics.get("pipeline_stage_seconds_seed").observe(0.5)
        shard_b.metrics.get("pipeline_stage_seconds_seed").observe(1.5)
        parent = PipelineTelemetry(clock=ManualClock())
        parent.merge_snapshot(shard_a.snapshot(), pid=1)
        parent.merge_snapshot(shard_b.snapshot(), pid=2)
        table = render_profile(parent.metrics, 1.0)
        seed_row = next(
            l for l in table.splitlines() if l.startswith("seed")
        )
        assert "2.000" in seed_row
        merged = parent.metrics.get("pipeline_stage_seconds_seed")
        assert merged.total == 2.0
        assert merged.count == 2
        assert merged.bounds == SECONDS_BUCKETS
