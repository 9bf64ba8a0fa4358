"""CLI tests: subcommand flows, config-file merging, report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hoselm
from hoselm.bench import RunConfig
from hoselm.cli import _parse, _pipeline_config, _run_config, main
from hoselm.pipeline import PipelineConfig

DATA = Path(__file__).resolve().parent / "data"


def run_cli(*argv):
    # The child imports the same hoselm as this process, installed or not.
    package_root = str(Path(hoselm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hoselm.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    code = main(
        [
            "synth",
            "--classes", "3",
            "--per-class", "40",
            "--dim", "8",
            "--spread", "0.2",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def small_flags():
    return ["--nodes", "2", "--hidden", "20", "--classifier-nodes", "5"]


def test_synth_writes_expected_rows(dataset):
    rows = dataset.read_text().strip().split("\n")
    assert len(rows) == 120
    assert len(rows[0].split(",")) == 9


def test_train_and_predict_round_trip(tmp_path, dataset, capsys):
    model_path = tmp_path / "model.npz"
    assert main(["train", "--data", str(dataset), "--out", str(model_path), *small_flags()]) == 0
    out = capsys.readouterr().out
    assert "120 samples" in out and "3 classes" in out
    assert model_path.exists()

    pred_path = tmp_path / "pred.txt"
    code = main(
        ["predict", "--model", str(model_path), "--data", str(dataset), "--out", str(pred_path)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "mean per-class rate" in err
    predictions = [int(line) for line in pred_path.read_text().split()]
    assert len(predictions) == 120
    assert set(predictions) <= {0, 1, 2}


def test_predict_without_labels(tmp_path, dataset, capsys):
    model_path = tmp_path / "model.npz"
    main(["train", "--data", str(dataset), "--out", str(model_path), *small_flags()])
    capsys.readouterr()

    features_only = tmp_path / "unlabeled.csv"
    rows = [line.rsplit(",", 1)[0] for line in dataset.read_text().strip().split("\n")]
    features_only.write_text("\n".join(rows[:10]) + "\n")
    code = main(["predict", "--model", str(model_path), "--data", str(features_only), "--no-labels"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.split()) == 10
    assert captured.err == ""


def test_sequential_train_flag(tmp_path, dataset, capsys):
    model_path = tmp_path / "model.npz"
    code = main(
        [
            "train",
            "--data", str(dataset),
            "--mode", "sequential",
            "--chunk-size", "40",
            "--out", str(model_path),
            *small_flags(),
        ]
    )
    assert code == 0
    assert "sequential" in capsys.readouterr().out


def test_bench_stdout_json(capsys):
    code = main(
        [
            "bench",
            "--per-class", "40",
            "--dim", "8",
            "--repetitions", "2",
            "--no-timing",
            *small_flags(),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["entries"]) == 2
    assert report["dataset"] == "synth"
    assert "batch" in report["aggregates"]


def test_bench_deterministic_bytes(tmp_path):
    args = [
        "bench",
        "--per-class", "40",
        "--dim", "8",
        "--repetitions", "2",
        "--seed", "11",
        "--no-timing",
        *small_flags(),
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_both_modes_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "bench",
            "--per-class", "40",
            "--dim", "8",
            "--repetitions", "2",
            "--both-modes",
            "--chunk-size", "30",
            "--no-timing",
            "--format", "csv",
            "--out", str(out),
            *small_flags(),
        ]
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 1 + 2 * 2
    assert rows[0].startswith("method,dataset,repetition,mean_per_class_rate")


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "per_class": 40,
                "dim": 8,
                "nodes": 2,
                "hidden": 20,
                "classifier_nodes": 5,
                "repetitions": 3,
                "no_timing": True,
            }
        )
    )
    # --repetitions on the command line overrides the file's 3.
    code = main(["bench", "--config", str(config), "--repetitions", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["entries"]) == 1
    assert report["entries"][0]["train_seconds"] == 0.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    """A file sets every bench option but --config and --both-modes."""
    config = tmp_path / "run.json"
    for contents, unknown in [
        ({"per_class": 40, "chunk": 10}, "chunk"),
        ({"both_modes": True}, "both_modes"),
    ]:
        config.write_text(json.dumps(contents))
        code = main(["bench", "--config", str(config)])
        assert code == 2
        assert f"unknown config keys: {unknown}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "contents, message",
    [
        ([1, 2], "must hold a JSON object"),
        ({"nodes": "3"}, "config key nodes must be of type int, got '3'"),
        ({"coeff": True}, "config key coeff must be of type float, got True"),
        ({"groups": [1, 2]}, "config key groups must list [start, stop] integer pairs"),
        ({"stratified": 1}, "config key stratified must be of type bool, got 1"),
    ],
)
def test_config_file_of_the_wrong_shape_is_reported(tmp_path, capsys, contents, message):
    """A config file that is not an object, or gives an option a value of
    the wrong type, is an error naming the key, not a traceback."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(contents))
    code = main(["bench", "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_config_file_keeps_null_options_and_integer_floats(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"chunk_size": None, "coeff": 50, "groups": [[0, 8]]}))
    args = _parse(["train", "--config", str(config)])
    assert args.chunk_size is None and args.groups == ((0, 8),)
    assert _pipeline_config(args).coeff == 50


def test_train_writes_the_model_file_it_names(tmp_path, dataset, capsys):
    """np.savez alone would write m.bin.npz; predict must find m.bin."""
    model_path = tmp_path / "m.bin"
    assert main(["train", "--data", str(dataset), "--out", str(model_path), *small_flags()]) == 0
    assert f"wrote {model_path}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "m.bin"]
    assert main(["predict", "--model", str(model_path), "--data", str(dataset)]) == 0
    assert len(capsys.readouterr().out.split()) == 120


def test_train_errors_are_reported(tmp_path, capsys):
    code = main(["train", "--out", str(tmp_path / "m.npz")])
    assert code == 2
    assert "needs --data" in capsys.readouterr().err
    code = main(["train", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m.npz")])
    assert code == 2


def test_predict_reports_a_damaged_model_file(tmp_path, dataset, capsys):
    model_path = tmp_path / "model.npz"
    main(["train", "--data", str(dataset), "--out", str(model_path), *small_flags()])
    capsys.readouterr()
    # Change one character of the stored header, so its CRC no longer matches.
    raw = bytearray(model_path.read_bytes())
    raw[raw.find("format_version".encode("utf-32-le"))] ^= 1
    model_path.write_bytes(bytes(raw))
    assert main(["predict", "--model", str(model_path), "--data", str(dataset)]) == 2
    assert "'header' is unreadable" in capsys.readouterr().err


def test_predict_rejects_labels_outside_the_model_classes(tmp_path, dataset, capsys):
    model_path = tmp_path / "model.npz"
    main(["train", "--data", str(dataset), "--out", str(model_path), *small_flags()])
    capsys.readouterr()
    rows = [line.rsplit(",", 1) for line in dataset.read_text().strip().split("\n")]
    for bad in ("-1", "3"):
        relabelled = tmp_path / f"relabelled{bad}.csv"
        relabelled.write_text(
            "".join(f"{x},{bad if y == '2' else y}\n" for x, y in rows)
        )
        assert main(["predict", "--model", str(model_path), "--data", str(relabelled)]) == 2
        assert "true labels span" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_train_and_predict_keep_the_label_values(tmp_path, dataset, capsys, mode):
    """Labels {0, 2, 7} train three classes; predict prints and scores the
    original values, and rejects a label the model has no class for."""
    relabel = {"0": "7", "1": "0", "2": "2"}
    rows = [line.rsplit(",", 1) for line in dataset.read_text().strip().split("\n")]
    data = tmp_path / "relabelled.csv"
    data.write_text("".join(f"{x},{relabel[y]}\n" for x, y in rows))
    model_path = tmp_path / "model.npz"
    args = ["train", "--data", str(data), "--out", str(model_path), "--mode", mode]
    assert main([*args, "--chunk-size", "40", *small_flags()]) == 0
    assert "3 classes" in capsys.readouterr().out
    pred_path = tmp_path / "pred.txt"
    args = ["predict", "--model", str(model_path), "--data", str(data)]
    assert main([*args, "--out", str(pred_path)]) == 0
    predicted = np.array([int(v) for v in pred_path.read_text().split()])
    truth = np.array([int(relabel[y]) for _, y in rows])
    assert set(predicted) <= {0, 2, 7}
    accuracy = np.mean(predicted == truth)
    assert accuracy > 0.9
    assert f"accuracy {accuracy:.4f}" in capsys.readouterr().err
    data.write_text("".join(f"{x},{relabel[y] if i else '1'}\n" for i, (x, y) in enumerate(rows)))
    assert main(args) == 2
    assert "labels [1] are not among the model's classes [0, 2, 7]" in capsys.readouterr().err


def test_predict_rejects_a_label_column_past_the_row(tmp_path, dataset, capsys):
    model_path = tmp_path / "model.npz"
    main(["train", "--data", str(dataset), "--out", str(model_path), *small_flags()])
    capsys.readouterr()
    args = ["predict", "--model", str(model_path), "--data", str(dataset)]
    assert main([*args, "--label-col", "9"]) == 2
    assert "label column 9 is out of range for width 9" in capsys.readouterr().err


def test_subprocess_entry_point(tmp_path):
    data = tmp_path / "d.csv"
    synth = run_cli(
        "synth", "--classes", "2", "--per-class", "20", "--dim", "4",
        "--spread", "0.15", "--out", str(data),
    )
    assert synth.returncode == 0, synth.stderr
    bench = run_cli(
        "bench", "--data", str(data), "--train-size", "0.5",
        "--nodes", "2", "--hidden", "12", "--classifier-nodes", "4",
        "--repetitions", "1", "--no-timing",
    )
    assert bench.returncode == 0, bench.stderr
    report = json.loads(bench.stdout)
    assert report["entries"][0]["mean_per_class_rate"] >= 0.9


def test_train_size_parsing(tmp_path, dataset, capsys):
    # Integer per-class counts and fractions both work.
    code = main(
        [
            "bench",
            "--data", str(dataset),
            "--train-size", "20",
            "--repetitions", "1",
            "--no-timing",
            *small_flags(),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    confusion = np.array(report["entries"][0]["confusion"])
    assert confusion.sum() == 120 - 3 * 20


GOLDEN_REPORTS = {
    "": ("bench_both_modes_chunk40_seed5", ["--chunk-size", "40"]),
    "narrow-": ("bench_narrow_both_modes_seed5", ["--hidden", "10"]),
}


@pytest.mark.parametrize(
    "fmt, golden, flags",
    [
        pytest.param(fmt, golden, flags, id=prefix + fmt)
        for prefix, (golden, flags) in GOLDEN_REPORTS.items()
        for fmt in ("json", "csv")
    ],
)
def test_bench_report_bytes_are_unchanged(tmp_path, fmt, golden, flags):
    """The fixed-seed, untimed report of the default synthetic run in both
    modes equals the committed one byte for byte, so a change meant to keep
    behaviour can show that it does.  The default batch readout has more
    combined rows (100) than inputs plus one (17); with --hidden 10 it has
    fewer, and both are fitted on rotated coordinates."""
    out = tmp_path / f"report.{fmt}"
    args = ["bench", "--both-modes", "--no-timing", *flags, "--seed", "5"]
    assert main([*args, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{golden}.{fmt}").read_bytes()


def bench_model_arrays(monkeypatch, tmp_path):
    """The fitted numbers of every model the golden bench runs train, keyed
    "<golden>.<mode>.<array>": the batch classifier's node weights, biases
    and steps, and the sequential readout's beta and P."""
    models = []
    real_fit = hoselm.bench.fit

    def spy(*args):
        models.append(real_fit(*args))
        return models[-1]

    monkeypatch.setattr(hoselm.bench, "fit", spy)
    arrays = {}
    for golden, flags in GOLDEN_REPORTS.values():
        models.clear()
        args = ["bench", "--both-modes", "--no-timing", *flags, "--seed", "5"]
        assert main([*args, "--out", str(tmp_path / "report.json")]) == 0
        for model in models:
            prefix = f"{golden}.{model.config.mode}."
            readout = model.readout
            if model.config.mode == "batch":
                arrays[prefix + "weights"] = readout.weights
                arrays[prefix + "biases"] = readout.bias
                arrays[prefix + "steps"] = readout.step
            else:
                arrays[prefix + "beta"] = readout.beta
                arrays[prefix + "p"] = readout.p
    return arrays


def test_bench_models_are_unchanged(monkeypatch, tmp_path):
    """The golden bench runs fit the same numbers, not only the same labels:
    a readout change that moves no held-out label still fails here.  The
    reference file holds bench_model_arrays saved with np.savez; a change
    that moves a key beyond rtol regenerates that key alone and names it in
    CHANGES.md."""
    got = bench_model_arrays(monkeypatch, tmp_path)
    with np.load(DATA / "bench_models_seed5.npz") as want:
        assert sorted(got) == sorted(want.files)
        for key in want.files:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-9, atol=0, err_msg=key)


def test_option_defaults_are_the_config_defaults():
    assert _pipeline_config(_parse(["train"])) == PipelineConfig()
    bench = _parse(["bench"])
    assert _run_config(bench, (bench.mode,)) == RunConfig()
    synth = _parse(["synth", "--out", "unused.csv"])
    run = RunConfig()
    assert (synth.classes, synth.per_class, synth.dim, synth.spread, synth.seed) == (
        run.synth_classes, run.synth_per_class, run.synth_dim, run.synth_spread, run.seed
    )
