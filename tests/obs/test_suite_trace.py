"""Suite-level tracing: observation only, grafted per-subject shards.

``repro eval --trace`` must leave the compared surface untouched —
``canonical_metrics_bytes`` identical with tracing on or off — while
collecting every freshly learned subject's spans under a
``subject:<name>`` shard prefix in one timeline.
"""

import json

import pytest

from repro.artifacts.suite import (
    canonical_metrics_bytes,
    load_suite,
    save_suite,
)
from repro.evaluation import harness


@pytest.fixture(scope="module")
def suites():
    untraced = harness.run_suite(
        subjects=["sed"], cache=harness.SubjectArtifactCache()
    )
    traced = harness.run_suite(
        subjects=["sed"], cache=harness.SubjectArtifactCache(), trace=True
    )
    return untraced, traced


def test_tracing_does_not_move_canonical_metrics_bytes(suites):
    untraced, traced = suites
    assert canonical_metrics_bytes(traced) == canonical_metrics_bytes(
        untraced
    )
    assert untraced.telemetry is None


def test_suite_trace_has_subject_shards_and_spans(suites):
    _untraced, traced = suites
    spans = traced.telemetry["spans"]
    assert spans
    shards = {span["shard"] for span in spans}
    assert any(shard.startswith("subject:sed") for shard in shards)
    # The metric-derivation spans live in the suite's main shard.
    names = {span["name"] for span in spans if span["shard"] == ""}
    assert "subject:sed" in names
    metrics = traced.telemetry["metrics"]
    assert metrics["histograms"]["subject.seconds"]["count"] == 1


def test_metric_derivation_steps_are_child_spans(suites):
    _untraced, traced = suites
    spans = [span for span in traced.telemetry["spans"] if span["shard"] == ""]
    subject = [span for span in spans if span["name"] == "subject:sed"]
    assert len(subject) == 1
    children = [
        span["name"] for span in spans if span["parent"] == subject[0]["id"]
    ]
    assert children == [
        "derive.precision", "derive.recall", "derive.fuzz",
        "derive.coverage", "derive.sample",
    ]


def test_earley_work_counter_is_recorded_when_traced(suites):
    _untraced, traced = suites
    counters = traced.telemetry["metrics"]["counters"]
    assert counters["languages.earley.items"] > 0


def test_suite_telemetry_round_trips(tmp_path, suites):
    _untraced, traced = suites
    path = tmp_path / "BENCH_suite.json"
    save_suite(traced, path)
    loaded = load_suite(path)
    assert loaded.telemetry == traced.telemetry
    assert loaded.schema_version == traced.schema_version
    assert json.loads(json.dumps(traced.telemetry)) == traced.telemetry


def test_untraced_suite_files_without_telemetry_key_load(suites):
    # Committed baselines predate the telemetry section entirely.
    untraced, _traced = suites
    data = untraced.to_dict()
    data.pop("telemetry")
    from repro.artifacts.suite import SuiteResult

    loaded = SuiteResult.from_dict(data)
    assert loaded.telemetry is None
