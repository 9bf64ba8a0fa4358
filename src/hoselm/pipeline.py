"""End-to-end model: extraction, combination, and a trained readout.

A model is built from one or more feature groups (matrices sharing sample
columns).  Each group gets its own layer of refined extractor nodes; all
subspace features are merged by the combiner; the readout over the combined
features is either the greedy additive classifier (batch mode) or the
online-sequential least-squares readout (sequential mode).

In sequential mode the extractor layers are fitted once on the initial
chunk and frozen; later chunks only advance the readout, so the model can
consume a stream without retaining any of it.  Fitted models are immutable;
partial_fit returns a new model sharing the frozen extractors.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .classifier import ClassifierModel, ClassifierNode, decode_labels
from .classifier import fit_classifier
from .classifier import score as classifier_score
from .combine import CombineSpec, combine
from .errors import ModeError, ShapeError
from .extractor import ExtractorConfig, SubnetNode, extract_features, project
from .kernels import NormParams, as_matrix
from .oselm import OselmState, os_boot, os_predict, os_update

__all__ = [
    "FeatureGroup",
    "PipelineConfig",
    "HOselmModel",
    "Evaluation",
    "fit",
    "partial_fit",
    "scores",
    "predict",
    "evaluate",
    "classification_metrics",
    "save_model",
    "load_model",
]

_MODES = ("batch", "sequential")
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FeatureGroup:
    """One named block of input features, samples as columns.

    Functions that take groups accept either a sequence of these or a
    lone group.
    """

    x: np.ndarray
    name: str = ""


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for the full model.

    node_count extractor nodes of subspace_dim neurons per group; damping
    and norm_eps feed the extractor refinement; operator and gamma select
    the combiner; coeff regularizes both readouts; classifier_nodes bounds
    the batch readout; chunk_size slices sequential training (None trains
    on a single boot chunk).
    """

    node_count: int = 3
    subspace_dim: int = 100
    damping: float = 0.5
    gamma: float = 1.0
    operator: str = "plus"
    coeff: float = 100.0
    classifier_nodes: int = 10
    mode: str = "batch"
    chunk_size: int = None
    seed: int = 0
    norm_eps: float = 1e-4

    def __post_init__(self):
        if min(self.node_count, self.subspace_dim, self.classifier_nodes) < 1:
            raise ValueError("node_count, subspace_dim, classifier_nodes must be >= 1")
        if self.coeff <= 0:
            raise ValueError(f"coeff must be positive, got {self.coeff}")
        if self.damping < 0:
            raise ValueError(f"damping must be >= 0, got {self.damping}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 or None, got {self.chunk_size}")
        if not 0 < self.norm_eps < 1:
            raise ValueError(f"norm_eps must lie in (0, 1), got {self.norm_eps}")


@dataclass(frozen=True)
class HOselmModel:
    """Fitted model: frozen extractor layers plus one trained readout.

    extractors holds one tuple of nodes per feature group, in group order;
    readout is a ClassifierModel in batch mode or an OselmState in
    sequential mode.
    """

    extractors: tuple
    group_names: tuple
    combine_spec: CombineSpec
    readout: object
    config: PipelineConfig
    class_count: int


@dataclass(frozen=True)
class Evaluation:
    """Classification quality of one model on one labeled set.

    confusion counts true classes (rows) against predictions (columns);
    per_class_recall holds None for classes with no true samples, which are
    excluded from mean_per_class_rate and listed in absent_classes.
    """

    confusion: np.ndarray
    per_class_recall: tuple
    mean_per_class_rate: float
    accuracy: float
    absent_classes: tuple
    train_seconds: float
    infer_seconds: float


def _checked_groups(groups):
    if isinstance(groups, FeatureGroup):
        groups = [groups]
    if not groups:
        raise ValueError("group list is empty")
    mats = [as_matrix(g.x, f"group {g.name or i}") for i, g in enumerate(groups)]
    cols = {m.shape[1] for m in mats}
    if len(cols) > 1:
        raise ShapeError(f"groups disagree on sample count: {sorted(cols)}")
    return mats


def _slice_groups(mats, lo, hi):
    return [m[:, lo:hi] for m in mats]


def _project_all(extractors, mats):
    # Group-major, node-minor feature order.
    feats = []
    for nodes, m in zip(extractors, mats):
        feats.extend(project(node, m) for node in nodes)
    return feats


def _check_layout(model, mats):
    if len(mats) != len(model.extractors):
        raise ShapeError(
            f"expected {len(model.extractors)} groups, got {len(mats)}"
        )
    for i, (nodes, m) in enumerate(zip(model.extractors, mats)):
        if m.shape[0] != nodes[0].input_dim:
            raise ShapeError(
                f"group {i} has {m.shape[0]} rows, extractor expects "
                f"{nodes[0].input_dim}"
            )


def _require_all_classes(targets, what):
    present = (targets != 0).any(axis=1)
    if not present.all():
        missing = [int(i) for i in np.flatnonzero(~present)]
        raise ValueError(
            f"{what} must contain every class; classes {missing} are absent"
        )


def _fit_extractors(mats, targets, cfg):
    group_seeds = np.random.SeedSequence(cfg.seed).generate_state(len(mats))
    extractors = []
    features = []
    for m, group_seed in zip(mats, group_seeds):
        ecfg = ExtractorConfig(
            node_count=cfg.node_count,
            subspace_dim=cfg.subspace_dim,
            damping=cfg.damping,
            norm_eps=cfg.norm_eps,
            seed=int(group_seed),
        )
        nodes, feats = extract_features(m, targets, ecfg)
        extractors.append(tuple(nodes))
        features.extend(feats)
    return tuple(extractors), features


def fit(groups, targets, cfg):
    """Train a model on aligned feature groups and one-hot targets.

    Batch mode extracts from the full set and fits the additive classifier.
    Sequential mode fits the extractors on the first chunk (which must
    contain every class), boots the sequential readout on it, and folds in
    the remaining chunks through the frozen extractors.
    """
    if isinstance(groups, FeatureGroup):
        groups = [groups]
    mats = _checked_groups(groups)
    tm = as_matrix(targets, "targets")
    if tm.shape[1] != mats[0].shape[1]:
        raise ShapeError(
            f"targets have {tm.shape[1]} columns, groups have {mats[0].shape[1]}"
        )
    spec = CombineSpec(operator=cfg.operator, gamma=cfg.gamma)
    names = tuple(g.name for g in groups)

    if cfg.mode == "batch":
        extractors, features = _fit_extractors(mats, tm, cfg)
        combined = combine(features, spec)
        # The per-node features are not needed past combination; release
        # them before the classifier forms its Gram.
        del features
        readout = fit_classifier(combined, tm, cfg.classifier_nodes, cfg.coeff, cfg.norm_eps)
    else:
        samples = mats[0].shape[1]
        boot = samples if cfg.chunk_size is None else min(cfg.chunk_size, samples)
        t0 = tm[:, :boot]
        _require_all_classes(t0, "the initial sequential chunk")
        extractors, features = _fit_extractors(_slice_groups(mats, 0, boot), t0, cfg)
        readout = os_boot(combine(features, spec), t0, cfg.coeff)
        for lo in range(boot, samples, cfg.chunk_size or samples):
            hi = min(lo + cfg.chunk_size, samples)
            chunk = combine(_project_all(extractors, _slice_groups(mats, lo, hi)), spec)
            readout = os_update(readout, chunk, tm[:, lo:hi])

    return HOselmModel(
        extractors=extractors,
        group_names=names,
        combine_spec=spec,
        readout=readout,
        config=cfg,
        class_count=tm.shape[0],
    )


def partial_fit(model, groups, targets):
    """Fold one new chunk into a sequential model; returns the new model.

    Extractor weights are frozen; only the readout advances.  The chunk is
    not retained.
    """
    if model.config.mode != "sequential":
        raise ModeError("partial_fit requires a sequential-mode model")
    mats = _checked_groups(groups)
    _check_layout(model, mats)
    tm = as_matrix(targets, "targets")
    chunk = combine(_project_all(model.extractors, mats), model.combine_spec)
    readout = os_update(model.readout, chunk, tm)
    return replace(model, readout=readout)


def scores(model, groups):
    """Raw readout scores (classes x samples) for aligned groups."""
    mats = _checked_groups(groups)
    _check_layout(model, mats)
    combined = combine(_project_all(model.extractors, mats), model.combine_spec)
    if model.config.mode == "batch":
        return classifier_score(model.readout, combined)
    return os_predict(model.readout, combined)


def predict(model, groups):
    """Class indices (per-column argmax of the readout scores)."""
    return decode_labels(scores(model, groups))


def classification_metrics(true_labels, predicted_labels, class_count):
    """Confusion counts, per-class recalls, their unweighted mean, accuracy.

    Classes with no true samples get recall None and are excluded from the
    mean; they are reported so callers can flag them.
    """
    true_labels = np.asarray(true_labels, dtype=int)
    predicted_labels = np.asarray(predicted_labels, dtype=int)
    if true_labels.shape != predicted_labels.shape:
        raise ShapeError(
            f"label shapes differ: {true_labels.shape} vs {predicted_labels.shape}"
        )
    confusion = np.zeros((class_count, class_count), dtype=int)
    np.add.at(confusion, (true_labels, predicted_labels), 1)
    row_totals = confusion.sum(axis=1)
    recalls = []
    for k in range(class_count):
        if row_totals[k] == 0:
            recalls.append(None)
        else:
            recalls.append(float(confusion[k, k] / row_totals[k]))
    present = [r for r in recalls if r is not None]
    mean_rate = float(np.mean(present)) if present else 0.0
    accuracy = float(np.trace(confusion) / max(len(true_labels), 1))
    absent = tuple(int(k) for k in range(class_count) if row_totals[k] == 0)
    return confusion, tuple(recalls), mean_rate, accuracy, absent


def evaluate(model, groups, targets):
    """Predict on a labeled set and report classification metrics.

    Targets must be one-hot; true labels are their per-column argmax.
    Inference wall-clock time is recorded; training time is left at zero
    for callers that measured it elsewhere to fill in.
    """
    tm = as_matrix(targets, "targets")
    start = time.perf_counter()
    predicted = predict(model, groups)
    infer_seconds = time.perf_counter() - start
    true_labels = np.argmax(tm, axis=0)
    confusion, recalls, mean_rate, accuracy, absent = classification_metrics(
        true_labels, predicted, model.class_count
    )
    return Evaluation(
        confusion=confusion,
        per_class_recall=recalls,
        mean_per_class_rate=mean_rate,
        accuracy=accuracy,
        absent_classes=absent,
        train_seconds=0.0,
        infer_seconds=infer_seconds,
    )


def _config_to_dict(cfg):
    return {
        "node_count": cfg.node_count,
        "subspace_dim": cfg.subspace_dim,
        "damping": cfg.damping,
        "gamma": cfg.gamma,
        "operator": cfg.operator,
        "coeff": cfg.coeff,
        "classifier_nodes": cfg.classifier_nodes,
        "mode": cfg.mode,
        "chunk_size": cfg.chunk_size,
        "seed": cfg.seed,
        "norm_eps": cfg.norm_eps,
    }


def _norm_to_row(p):
    return [p.lo, p.hi, p.eps]


def _norm_from_row(row):
    return NormParams(lo=float(row[0]), hi=float(row[1]), eps=float(row[2]))


def save_model(model, path):
    """Write a fitted model to an NPZ file with a versioned JSON header.

    Arrays: per group g, extractor_{g}_weights (nodes x dim x inputs) and
    extractor_{g}_biases; batch readouts add stacked classifier node arrays,
    sequential readouts their accumulator and weight matrices.  Everything
    else rides in the header.  See the README for the full layout.
    """
    if not isinstance(model, HOselmModel):
        raise TypeError(
            f"save_model takes (model, path), got {type(model).__name__} first"
        )
    header = {
        "format_version": _FORMAT_VERSION,
        "config": _config_to_dict(model.config),
        "group_names": list(model.group_names),
        "class_count": model.class_count,
        "combine": {"operator": model.combine_spec.operator, "gamma": model.combine_spec.gamma},
    }
    arrays = {}
    for g, nodes in enumerate(model.extractors):
        arrays[f"extractor_{g}_weights"] = np.stack([n.weights for n in nodes])
        arrays[f"extractor_{g}_biases"] = np.array([n.bias for n in nodes])
    if model.config.mode == "batch":
        m = model.readout
        header["readout"] = {
            "kind": "classifier",
            "coeff": m.coeff,
            "feature_dim": m.feature_dim,
            "node_count": len(m.nodes),
        }
        if m.nodes:
            arrays["classifier_weights"] = np.stack([n.weights for n in m.nodes])
            arrays["classifier_biases"] = np.array([n.bias for n in m.nodes])
            arrays["classifier_steps"] = np.array([n.step for n in m.nodes])
            arrays["classifier_norm_in"] = np.array([_norm_to_row(n.norm_in) for n in m.nodes])
            arrays["classifier_norm_out"] = np.array([_norm_to_row(n.norm_out) for n in m.nodes])
    else:
        s = model.readout
        header["readout"] = {"kind": "sequential", "coeff": s.coeff, "seen": s.seen}
        arrays["readout_p"] = s.p
        arrays["readout_beta"] = s.beta
    arrays["header"] = np.array(json.dumps(header, sort_keys=True))
    np.savez(path, **arrays)


def load_model(path):
    """Read back a model written by save_model."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version}")
        cfg = PipelineConfig(**header["config"])
        extractors = []
        for g in range(len(header["group_names"])):
            weights = data[f"extractor_{g}_weights"]
            biases = data[f"extractor_{g}_biases"]
            extractors.append(
                tuple(
                    SubnetNode(weights=w, bias=float(b))
                    for w, b in zip(weights, biases)
                )
            )
        meta = header["readout"]
        if meta["kind"] == "classifier":
            nodes = []
            for i in range(meta["node_count"]):
                nodes.append(
                    ClassifierNode(
                        weights=data["classifier_weights"][i],
                        bias=float(data["classifier_biases"][i]),
                        step=float(data["classifier_steps"][i]),
                        norm_in=_norm_from_row(data["classifier_norm_in"][i]),
                        norm_out=_norm_from_row(data["classifier_norm_out"][i]),
                    )
                )
            readout = ClassifierModel(
                nodes=tuple(nodes),
                coeff=meta["coeff"],
                feature_dim=meta["feature_dim"],
                class_count=header["class_count"],
            )
        else:
            readout = OselmState(
                p=data["readout_p"],
                beta=data["readout_beta"],
                seen=meta["seen"],
                coeff=meta["coeff"],
            )
    return HOselmModel(
        extractors=tuple(extractors),
        group_names=tuple(header["group_names"]),
        combine_spec=CombineSpec(**header["combine"]),
        readout=readout,
        config=cfg,
        class_count=header["class_count"],
    )
