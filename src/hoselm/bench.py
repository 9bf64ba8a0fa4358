"""Experiment harness: repeated split/train/evaluate runs and report files.

A run draws its dataset once (CSV file or synthetic clusters), then for
each repetition re-splits it with a repetition-derived seed, trains one
model per requested mode, and evaluates on the held-out part.  Every source
of randomness descends from RunConfig.seed, so a fixed config reproduces
its report byte for byte when timing capture is turned off.
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import load_csv, one_hot, split, synth_blobs
from .kernels import _integer
from .pipeline import PipelineConfig, evaluate, fit

__all__ = [
    "RunConfig",
    "RepetitionEntry",
    "MetricsReport",
    "run_benchmark",
    "report_as_dict",
    "write_report",
    "emit_report",
]

_COUNTS = {"repetitions": 1, "synth_classes": 1, "synth_per_class": 1, "synth_dim": 1, "seed": 0}


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run depends on.

    dataset is a CSV path, or None to generate clusters from the synth_*
    fields.  modes lists the training modes to compare on identical splits;
    each must be one PipelineConfig accepts.
    measure_time=False zeroes the wall-clock fields so reports become
    byte-identical across runs.
    """

    pipeline: PipelineConfig = PipelineConfig()
    modes: tuple = ("batch",)
    dataset: str = None
    dataset_name: str = "synth"
    group_ranges: tuple = None
    label_col: int = -1
    synth_classes: int = 3
    synth_per_class: int = 400
    synth_dim: int = 16
    synth_spread: float = 0.2
    train_size: object = 0.5
    stratified: bool = False
    repetitions: int = 1
    seed: int = 0
    measure_time: bool = True

    def __post_init__(self):
        for name, low in _COUNTS.items():
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        if not self.modes:
            raise ValueError("modes is empty")
        for mode in self.modes:
            replace(self.pipeline, mode=mode)  # PipelineConfig rejects an unknown mode


@dataclass(frozen=True)
class RepetitionEntry:
    """Result of one (repetition, mode) cell."""

    method: str
    dataset: str
    repetition: int
    mean_per_class_rate: float
    accuracy: float
    train_seconds: float
    infer_seconds: float
    confusion: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """All repetition entries plus per-method aggregate statistics.

    aggregates maps method -> {metric -> {"mean", "std"}} with the
    population standard deviation over repetitions.
    """

    dataset: str
    entries: tuple
    aggregates: dict


def _load_dataset(cfg):
    if cfg.dataset is not None:
        groups, labels = load_csv(cfg.dataset, cfg.group_ranges, cfg.label_col)
        # Class k is the k-th smallest label present, so labels need not be
        # contiguous; labels 0..K-1 map to themselves.
        classes, labels = np.unique(labels, return_inverse=True)
        return groups, labels, len(classes)
    group, labels = synth_blobs(
        cfg.synth_classes,
        cfg.synth_per_class,
        cfg.synth_dim,
        cfg.synth_spread,
        seed=int(np.random.SeedSequence(cfg.seed).generate_state(1)[0]),
    )
    return [group], labels, cfg.synth_classes


def _aggregate(entries):
    aggregates = {}
    for method in sorted({e.method for e in entries}):
        rows = [e for e in entries if e.method == method]
        aggregates[method] = {
            metric: {
                "mean": float(np.mean([getattr(e, metric) for e in rows])),
                "std": float(np.std([getattr(e, metric) for e in rows])),
            }
            for metric in ("mean_per_class_rate", "accuracy")
        }
    return aggregates


def run_benchmark(cfg):
    """Run all repetitions and modes; returns the assembled report.

    Failures are re-raised with the repetition index prepended so a long
    run points at the offending split.
    """
    groups, labels, class_count = _load_dataset(cfg)
    rep_seeds = np.random.SeedSequence([cfg.seed, 1]).generate_state(cfg.repetitions * 2)
    entries = []
    for rep in range(cfg.repetitions):
        try:
            split_seed = int(rep_seeds[2 * rep])
            model_seed = int(rep_seeds[2 * rep + 1])
            (tr_groups, tr_labels), (te_groups, te_labels) = split(
                groups, labels, cfg.train_size, seed=split_seed, stratified=cfg.stratified
            )
            tr_targets = one_hot(tr_labels, class_count)
            te_targets = one_hot(te_labels, class_count)
            for mode in cfg.modes:
                pipe_cfg = replace(cfg.pipeline, mode=mode, seed=model_seed)
                start = time.perf_counter()
                model = fit(tr_groups, tr_targets, pipe_cfg)
                train_seconds = time.perf_counter() - start
                result = evaluate(model, te_groups, te_targets)
                if not cfg.measure_time:
                    train_seconds = 0.0
                    result = replace(result, infer_seconds=0.0)
                entries.append(
                    RepetitionEntry(
                        method=mode,
                        dataset=cfg.dataset_name,
                        repetition=rep,
                        mean_per_class_rate=result.mean_per_class_rate,
                        accuracy=result.accuracy,
                        train_seconds=train_seconds,
                        infer_seconds=result.infer_seconds,
                        confusion=result.confusion,
                    )
                )
        except Exception as exc:
            raise RuntimeError(f"repetition {rep} failed: {exc}") from exc
    return MetricsReport(
        dataset=cfg.dataset_name, entries=tuple(entries), aggregates=_aggregate(entries)
    )


def report_as_dict(report):
    """Plain-dict view of a report, ready for JSON serialization."""
    return {
        "dataset": report.dataset,
        "entries": [{**asdict(e), "confusion": e.confusion.tolist()} for e in report.entries],
        "aggregates": report.aggregates,
    }


def write_report(fh, report, format="json"):
    """Serialize a report to an open text stream.

    The CSV carries one row per (method, repetition), one column per
    RepetitionEntry field but the confusion matrix, with floats printed to
    nine decimal places; the JSON holds the full structure, keys sorted, so
    equal reports serialize identically.
    """
    if format == "json":
        json.dump(report_as_dict(report), fh, sort_keys=True, indent=2)
        fh.write("\n")
        return
    if format == "csv":
        names = [f.name for f in fields(RepetitionEntry) if f.name != "confusion"]
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for e in report.entries:
            values = [getattr(e, name) for name in names]
            writer.writerow([f"{v:.9f}" if isinstance(v, float) else v for v in values])
        return
    raise ValueError(f"format must be json or csv, got {format!r}")


def emit_report(report, path, format="json"):
    """Write a report file in the given format (see write_report)."""
    if format not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {format!r}")
    with open(path, "w", newline="") as fh:
        write_report(fh, report, format)
