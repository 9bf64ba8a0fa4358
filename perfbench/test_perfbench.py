"""Tests of the benchmark harness itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_specs():
    import workloads as wl

    sizes = {
        "batch_plus": dict(widths=(12,), subspace_dim=8),
        "batch_concat": dict(widths=(6, 8, 12), subspace_dim=6),
        "stream_prequential": dict(widths=(8,), subspace_dim=8, request_cols=8),
    }
    return {
        name: dataclasses.replace(
            wl.WORKLOADS[name],
            classes=4,
            train_cols=80,
            eval_cols=80,
            mpcr_floor=0.5,
            **sizes.get(name, {}),
        )
        for name in wl.WORKLOADS
    }


def run_tiny(workload, trace, monkeypatch, tmp_path, capsys):
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    code = run.main(argv, specs=tiny_specs())
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    import workloads as wl

    assert sorted(wl.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, monkeypatch, tmp_path, capsys):
    code, lines, result = run_tiny(workload, trace, monkeypatch, tmp_path, capsys)
    assert code == 0, lines
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_corrupted_readout_trips_the_stream_check(monkeypatch, tmp_path, capsys):
    import hoselm.pipeline

    update = hoselm.pipeline.os_update

    def corrupted(state, h, targets):
        new = update(state, h, targets)
        return dataclasses.replace(new, beta=new.beta * (1 + 1e-3))

    monkeypatch.setattr(hoselm.pipeline, "os_update", corrupted)
    code, lines, result = run_tiny("stream_prequential", 0, monkeypatch, tmp_path, capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert any("from the batch ridge solution" in line for line in lines)


def test_readout_error_separates_exact_and_corrupted_readouts():
    import workloads as wl

    spec = tiny_specs()["stream_prequential"]
    inputs = wl.make_inputs(spec, 5)
    ref = wl.Reference()
    ledger = wl.Ledger()
    wl.stream_cycle(inputs, ref, ledger, wl.Samples())
    assert ledger.failed == 0
    assert wl.readout_error(ref.model, inputs.everything, inputs.targets) < wl.READOUT_TOLERANCE
    bad = dataclasses.replace(
        ref.model, readout=dataclasses.replace(ref.model.readout, beta=ref.model.readout.beta + 1e-4)
    )
    assert wl.readout_error(bad, inputs.everything, inputs.targets) > wl.READOUT_TOLERANCE


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "batch_plus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
