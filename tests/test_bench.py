"""Benchmark harness tests: determinism, aggregation, report formats."""

import csv
import json

import numpy as np
import pytest

from hoselm.bench import MetricsReport, RunConfig, emit_report, run_benchmark
from hoselm.pipeline import PipelineConfig


def quick_cfg(**overrides):
    base = dict(
        pipeline=PipelineConfig(
            node_count=2, subspace_dim=20, classifier_nodes=5, chunk_size=30, seed=0
        ),
        modes=("batch",),
        synth_classes=3,
        synth_per_class=40,
        synth_dim=8,
        synth_spread=0.2,
        repetitions=2,
        seed=7,
        measure_time=False,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_single_repetition_single_entry():
    report = run_benchmark(quick_cfg(repetitions=1))
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.method == "batch" and entry.repetition == 0
    assert 0 <= entry.mean_per_class_rate <= 1
    assert entry.confusion.sum() == 60  # half of 120 samples held out


def test_both_modes_run_on_same_splits():
    report = run_benchmark(quick_cfg(modes=("batch", "sequential"), repetitions=2))
    assert len(report.entries) == 4
    methods = [e.method for e in report.entries]
    assert methods == ["batch", "sequential", "batch", "sequential"]
    assert set(report.aggregates) == {"batch", "sequential"}


def test_aggregates_match_hand_average():
    report = run_benchmark(quick_cfg(repetitions=3))
    rates = [e.mean_per_class_rate for e in report.entries]
    agg = report.aggregates["batch"]["mean_per_class_rate"]
    assert agg["mean"] == pytest.approx(np.mean(rates), abs=1e-12)
    assert agg["std"] == pytest.approx(np.std(rates), abs=1e-12)
    assert min(rates) <= agg["mean"] <= max(rates)


def test_fixed_seed_reports_are_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        report = run_benchmark(quick_cfg())
        path = tmp_path / f"r{i}.json"
        emit_report(report, path, "json")
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_timed_runs_differ_only_in_timing_fields():
    a = run_benchmark(quick_cfg(measure_time=True))
    b = run_benchmark(quick_cfg(measure_time=True))
    for ea, eb in zip(a.entries, b.entries):
        assert ea.mean_per_class_rate == eb.mean_per_class_rate
        assert ea.accuracy == eb.accuracy
        assert np.array_equal(ea.confusion, eb.confusion)
        assert ea.train_seconds > 0 and eb.train_seconds > 0


def test_different_seeds_change_splits():
    a = run_benchmark(quick_cfg(seed=1))
    b = run_benchmark(quick_cfg(seed=2))
    assert any(
        not np.array_equal(ea.confusion, eb.confusion)
        for ea, eb in zip(a.entries, b.entries)
    )


def test_json_report_round_trips(tmp_path):
    report = run_benchmark(quick_cfg())
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    loaded = json.loads(path.read_text())
    assert loaded["dataset"] == "synth"
    assert len(loaded["entries"]) == len(report.entries)
    for got, want in zip(loaded["entries"], report.entries):
        assert got["mean_per_class_rate"] == want.mean_per_class_rate
        assert got["confusion"] == [[int(v) for v in row] for row in want.confusion]
    assert loaded["aggregates"] == report.aggregates


def test_csv_report_layout(tmp_path):
    report = run_benchmark(quick_cfg(modes=("batch", "sequential"), repetitions=3))
    path = tmp_path / "report.csv"
    emit_report(report, path, "csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 * 2 + 1
    assert rows[0] == [
        "method",
        "dataset",
        "repetition",
        "mean_per_class_rate",
        "accuracy",
        "train_seconds",
        "infer_seconds",
    ]
    for row in rows[1:]:
        decimals = row[3].split(".")[1]
        assert len(decimals) >= 6
        assert float(row[3]) == pytest.approx(float(row[4]), abs=1.0)


def test_failures_carry_repetition_index():
    cfg = quick_cfg(train_size=1000)
    with pytest.raises(RuntimeError, match="repetition 0"):
        run_benchmark(cfg)


def test_csv_dataset_source(tmp_path):
    from hoselm.data import synth_blobs, write_csv

    group, labels = synth_blobs(3, 30, 6, 0.2, seed=5)
    path = tmp_path / "data.csv"
    write_csv(path, [group], labels)
    cfg = quick_cfg(dataset=str(path), dataset_name="file", repetitions=1)
    report = run_benchmark(cfg)
    assert report.dataset == "file"
    assert report.entries[0].confusion.shape == (3, 3)


def test_csv_dataset_with_non_contiguous_labels(tmp_path):
    from hoselm.data import synth_blobs, write_csv

    group, labels = synth_blobs(3, 30, 6, 0.2, seed=5)
    path = tmp_path / "data.csv"
    write_csv(path, [group], np.array([0, 2, 7])[labels])
    cfg = quick_cfg(
        dataset=str(path), dataset_name="file", modes=("batch", "sequential"), repetitions=1
    )
    report = run_benchmark(cfg)
    assert [e.method for e in report.entries] == ["batch", "sequential"]
    for entry in report.entries:
        assert entry.confusion.shape == (3, 3)
        assert entry.confusion.sum() == 45


def test_config_validation():
    with pytest.raises(ValueError):
        quick_cfg(repetitions=0)
    with pytest.raises(ValueError):
        quick_cfg(modes=())
    with pytest.raises(ValueError):
        quick_cfg(modes=("batch", "stream"))
    with pytest.raises(ValueError):
        emit_report(MetricsReport("d", (), {}), "/tmp/x", "yaml")


def test_run_config_takes_its_modes_from_the_pipeline():
    """An empty modes tuple, and a mode PipelineConfig does not know, are
    rejected when the run is configured, not when it reaches fit."""
    with pytest.raises(ValueError, match="modes is empty"):
        RunConfig(modes=())
    with pytest.raises(ValueError, match="mode must be one of"):
        RunConfig(modes=("online",))
