"""Command-line interface: train, predict, bench, and synth subcommands.

Options can come from a JSON config file (--config) using the same names
as the long flags with dashes turned into underscores; flags given on the
command line override the file, and options set by neither take the
defaults of PipelineConfig and RunConfig.  All randomness flows from --seed.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bench import RunConfig, emit_report, run_benchmark, write_report
from .data import load_csv, one_hot, synth_blobs, write_csv
from .pipeline import (
    PipelineConfig,
    classification_metrics,
    evaluate,
    fit,
    load_model,
    predict,
    save_model,
)

# Option name -> PipelineConfig field for every field but norm_eps, which
# the CLI does not expose; two options are named differently.
_RENAMED = {"node_count": "nodes", "subspace_dim": "hidden"}
_PIPELINE_FIELDS = {
    _RENAMED.get(f.name, f.name): f.name
    for f in dataclasses.fields(PipelineConfig)
    if f.name != "norm_eps"
}
_PIPELINE_DEFAULTS = {o: getattr(PipelineConfig, name) for o, name in _PIPELINE_FIELDS.items()}

# Option name -> RunConfig field, for the synthetic-data and split options.
_RUN_FIELDS = {
    "classes": "synth_classes",
    "per_class": "synth_per_class",
    "dim": "synth_dim",
    "spread": "synth_spread",
    "train_size": "train_size",
    "stratified": "stratified",
    "repetitions": "repetitions",
}
_RUN_DEFAULTS = {o: getattr(RunConfig, name) for o, name in _RUN_FIELDS.items()}

_DATA_DEFAULTS = {"data": None, "groups": None, "label_col": RunConfig.label_col}

_BENCH_DEFAULTS = {
    **_DATA_DEFAULTS,
    **_PIPELINE_DEFAULTS,
    **_RUN_DEFAULTS,
    "dataset_name": None,
    "no_timing": False,
    "format": "json",
    "out": None,
}

_TRAIN_DEFAULTS = {**_DATA_DEFAULTS, **_PIPELINE_DEFAULTS, "out": None}


def _parse_ranges(text):
    # "0:2,2:4" -> ((0, 2), (2, 4))
    try:
        pairs = []
        for part in text.split(","):
            start, stop = part.split(":")
            pairs.append((int(start), int(stop)))
        return tuple(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ranges like 0:2,2:4, got {text!r}"
        ) from None


def _parse_train_size(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction or an integer count, got {text!r}"
        ) from None


def _add_data_options(parser):
    parser.add_argument("--data", help="CSV dataset path, one sample per row")
    parser.add_argument(
        "--groups",
        type=_parse_ranges,
        help="feature-group column ranges, e.g. 0:256,256:512 (default: all columns)",
    )
    parser.add_argument(
        "--label-col", type=int, help="label column index (default: last)"
    )


def _add_pipeline_options(parser):
    parser.add_argument("--nodes", type=int, help="extractor nodes per feature group")
    parser.add_argument("--hidden", type=int, help="neurons per extractor node")
    parser.add_argument(
        "--lambda", dest="damping", type=float, help="refinement damping weight"
    )
    parser.add_argument("--gamma", type=float, help="combiner weight for later features")
    parser.add_argument("--operator", choices=("plus", "concat"), help="combiner")
    parser.add_argument("--coeff", type=float, help="ridge coefficient")
    parser.add_argument("--classifier-nodes", type=int, help="additive readout nodes")
    parser.add_argument("--mode", choices=("batch", "sequential"), help="training mode")
    parser.add_argument("--chunk-size", type=int, help="sequential chunk length")
    parser.add_argument("--seed", type=int, help="master random seed")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hoselm",
        description="Hierarchical online-sequential ELM classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model on a CSV dataset")
    _add_data_options(train)
    _add_pipeline_options(train)
    train.add_argument("--config", help="JSON config file; flags override it")
    train.add_argument("--out", help="model file to write (.npz)")
    train.set_defaults(func=_cmd_train, defaults=_TRAIN_DEFAULTS)

    pred = sub.add_parser("predict", help="predict labels with a trained model")
    pred.add_argument("--model", required=True, help="model file from train")
    _add_data_options(pred)
    pred.add_argument(
        "--no-labels",
        action="store_true",
        help="the CSV has no label column, only features",
    )
    pred.add_argument("--out", help="write predictions here instead of stdout")
    pred.set_defaults(func=_cmd_predict)

    bench = sub.add_parser("bench", help="repeated split/train/test benchmark")
    _add_data_options(bench)
    _add_pipeline_options(bench)
    bench.add_argument("--config", help="JSON config file; flags override it")
    bench.add_argument("--dataset-name", help="dataset label used in reports")
    bench.add_argument("--classes", type=int, help="synthetic class count")
    bench.add_argument("--per-class", type=int, help="synthetic samples per class")
    bench.add_argument("--dim", type=int, help="synthetic feature dimension")
    bench.add_argument("--spread", type=float, help="synthetic cluster spread")
    bench.add_argument(
        "--train-size",
        type=_parse_train_size,
        help="train fraction in (0,1) or integer per-class count",
    )
    bench.add_argument(
        "--stratified", action="store_true", default=None, help="stratify fraction splits"
    )
    bench.add_argument("--repetitions", type=int, help="number of split/train runs")
    bench.add_argument(
        "--both-modes",
        action="store_true",
        default=None,
        help="run batch and sequential on the same splits",
    )
    bench.add_argument(
        "--no-timing",
        action="store_true",
        default=None,
        help="zero the timing fields so reports are byte-identical",
    )
    bench.add_argument("--format", choices=("json", "csv"), help="report format")
    bench.add_argument("--out", help="report file (default: stdout)")
    bench.set_defaults(func=_cmd_bench, defaults=_BENCH_DEFAULTS)

    synth = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    synth.add_argument("--classes", type=int, default=RunConfig.synth_classes)
    synth.add_argument("--per-class", type=int, default=RunConfig.synth_per_class)
    synth.add_argument("--dim", type=int, default=RunConfig.synth_dim)
    synth.add_argument("--spread", type=float, default=RunConfig.synth_spread)
    synth.add_argument("--seed", type=int, default=RunConfig.seed)
    synth.add_argument("--out", required=True, help="CSV file to write")
    synth.set_defaults(func=_cmd_synth)

    return parser


def _merged_options(args, defaults):
    """defaults < config file < explicitly passed flags."""
    values = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            file_values = json.load(fh)
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "groups" in file_values and file_values["groups"] is not None:
            file_values["groups"] = tuple(
                (int(a), int(b)) for a, b in file_values["groups"]
            )
        values.update(file_values)
    for key in defaults:
        given = getattr(args, key, None)
        if given is not None:
            values[key] = given
    return values


def _pipeline_config(values):
    return PipelineConfig(**{name: values[option] for option, name in _PIPELINE_FIELDS.items()})


def _run_config(values, modes):
    return RunConfig(
        pipeline=_pipeline_config({**values, "mode": modes[0]}),
        modes=modes,
        dataset=values["data"],
        dataset_name=values["dataset_name"] or values["data"] or RunConfig.dataset_name,
        group_ranges=values["groups"],
        label_col=values["label_col"],
        seed=values["seed"],
        measure_time=not values["no_timing"],
        **{name: values[option] for option, name in _RUN_FIELDS.items()},
    )


def _cmd_train(args):
    values = _merged_options(args, args.defaults)
    if not values["data"]:
        raise ValueError("train needs --data (or a config file setting it)")
    if not values["out"]:
        raise ValueError("train needs --out for the model file")
    groups, labels = load_csv(values["data"], values["groups"], values["label_col"])
    # Class k is the k-th smallest label present; the model keeps the values.
    classes, labels = np.unique(labels, return_inverse=True)
    targets = one_hot(labels, len(classes))
    model = fit(groups, targets, _pipeline_config(values))
    model = dataclasses.replace(model, class_labels=tuple(int(c) for c in classes))
    save_model(model, values["out"])
    training = evaluate(model, groups, targets)
    print(
        f"trained {model.config.mode} model on {labels.size} samples, "
        f"{len(classes)} classes; training mean per-class rate "
        f"{training.mean_per_class_rate:.4f}; wrote {values['out']}"
    )
    return 0


def _cmd_predict(args):
    model = load_model(args.model)
    label_col = None if args.no_labels else (
        _DATA_DEFAULTS["label_col"] if args.label_col is None else args.label_col
    )
    groups, labels = load_csv(args.data, args.groups, label_col)
    if labels is not None:
        index = {c: k for k, c in enumerate(model.class_labels)}
        unknown = sorted(set(labels.tolist()) - index.keys())
        if unknown:
            raise ValueError(
                f"true labels span [{labels.min()}, {labels.max()}]; labels {unknown} "
                f"are not among the model's classes {list(model.class_labels)}"
            )
        truth = [index[c] for c in labels.tolist()]
    predicted = predict(model, groups)
    lines = "".join(f"{model.class_labels[p]}\n" for p in predicted)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    if labels is not None:
        _, _, mean_rate, accuracy, _ = classification_metrics(
            truth, predicted, model.class_count
        )
        print(
            f"mean per-class rate {mean_rate:.4f}, accuracy {accuracy:.4f} "
            f"on {labels.size} labeled samples",
            file=sys.stderr,
        )
    return 0


def _cmd_bench(args):
    values = _merged_options(args, args.defaults)
    modes = ("batch", "sequential") if getattr(args, "both_modes", None) else (values["mode"],)
    cfg = _run_config(values, modes)
    report = run_benchmark(cfg)
    if values["out"]:
        emit_report(report, values["out"], values["format"])
        for method, stats in report.aggregates.items():
            rate = stats["mean_per_class_rate"]
            print(
                f"{method}: mean per-class rate {rate['mean']:.4f} "
                f"(std {rate['std']:.4f}, {cfg.repetitions} repetitions)",
                file=sys.stderr,
            )
    else:
        write_report(sys.stdout, report, values["format"])
    return 0


def _cmd_synth(args):
    group, labels = synth_blobs(
        args.classes, args.per_class, args.dim, args.spread, seed=args.seed
    )
    write_csv(args.out, [group], labels)
    print(
        f"wrote {labels.size} samples ({args.classes} classes, dim {args.dim}) "
        f"to {args.out}"
    )
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
