"""Hierarchical online-sequential extreme learning machine.

The model stacks three layers: per-group subspace feature extraction by
error-feedback-refined random projections, elementwise or stacked feature
combination, and a readout trained either in closed form (greedy additive
classifier) or chunk by chunk (recursive least squares, provably equal to
the batch ridge solution).  See the pipeline module for the end-to-end
model and the bench module for the experiment harness.

Top-level fit/predict/evaluate are the pipeline-level entry points; the
building blocks live in their submodules (kernels, elm, oselm, extractor,
combine, classifier, data, bench).

Counts, config seeds and column indices are integers, numpy ones stored as
Python ints: a bool, a float (even 3.0), a string or a value below the
bound raises ValueError naming the argument.  Class labels are bool,
integer or integer-valued float arrays, taken as ints: a fraction, NaN,
infinity, a string or an object raises ValueError naming the labels
(ParseError for a CSV label column).  No input is converted lossily, so a
matrix that is not bool, integer or float (complex, strings, objects)
raises ValueError too, and an entry point given something other than a
model, a FeatureGroup or a PipelineConfig where it takes one raises
TypeError.
"""

from .bench import (
    MetricsReport,
    RepetitionEntry,
    RunConfig,
    emit_report,
    run_benchmark,
)
from .classifier import ClassifierModel, decode_labels, fit_classifier
from .combine import CombineSpec, combine
from .data import load_csv, one_hot, split, synth_blobs, write_csv
from .errors import (
    DegenerateNodeError,
    FormatError,
    ModeError,
    ParseError,
    ShapeError,
)
from .extractor import SubnetNode, extract_features
from .oselm import OselmState, os_boot, os_predict, os_update
from .pipeline import (
    Evaluation,
    FeatureGroup,
    HOselmModel,
    PipelineConfig,
    classification_metrics,
    evaluate,
    fit,
    load_model,
    partial_fit,
    predict,
    save_model,
    scores,
)

__version__ = "0.1.0"

__all__ = [
    "MetricsReport",
    "RepetitionEntry",
    "RunConfig",
    "emit_report",
    "run_benchmark",
    "ClassifierModel",
    "decode_labels",
    "fit_classifier",
    "CombineSpec",
    "combine",
    "load_csv",
    "one_hot",
    "split",
    "synth_blobs",
    "write_csv",
    "DegenerateNodeError",
    "FormatError",
    "ModeError",
    "ParseError",
    "ShapeError",
    "SubnetNode",
    "extract_features",
    "OselmState",
    "os_boot",
    "os_predict",
    "os_update",
    "Evaluation",
    "FeatureGroup",
    "HOselmModel",
    "PipelineConfig",
    "classification_metrics",
    "evaluate",
    "fit",
    "load_model",
    "partial_fit",
    "predict",
    "save_model",
    "scores",
]
