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

Extractor nodes are affine (W x + b) and both combiners are linear, so once
fit returns everything below the readout is one frozen affine map per
feature group.  Each model derives those maps once (AffineMaps): the
combined feature is H = sum_g A_g x_g + c for plus and the row stack of
A_g x_g + a_g for concat.  Every model folds a left factor of its readout
into them, so a request costs one matrix product per group.  A batch model
folds its classifier's stacked affine half, F_g = W_stack A_g, and applies
the classifier's activation half after it; a sequential model folds U'
(below) and hands the result to its readout.  The maps are derived, never
stored in model files.

The same affinity bounds the rank of H.  With D combined rows and
k = sum of group widths + 1, H = B [x_1; ...; x_G; 1] (B is D x k) has rank
at most k.  A batch fit with D > k fits the classifier on a thin factor
H = F P' (see _readout_factor), from one QR of the stacked inputs, and
works on the k x k side; when D <= k the features are combined as usual.
A sequential model never forms H: its readout runs recursive least squares
on Y = U'H, with U an orthonormal D x r basis of the range of B, r =
min(D, k) (see _readout_basis and hoselm.oselm).  A chunk of m columns
then costs O(r^2 m) instead of O(D^2 m).
"""

import json
import time
import zipfile
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np
from scipy.linalg import block_diag, qr, svd

from .classifier import ClassifierModel, ClassifierNode, activate, decode_labels
from .classifier import fit_classifier, stack_nodes
from .combine import CombineSpec, combine
from .errors import FormatError, ModeError, ShapeError
from .extractor import ExtractorConfig, SubnetNode, extract_features
from .kernels import NormParams, as_matrix, augmented_inputs
from .oselm import OselmState, os_boot, os_predict, os_update

# Requests go through the affine maps; these two stay for perfbench/tracing.py.
from .classifier import score as classifier_score  # noqa: F401
from .extractor import project  # noqa: F401

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
_FORMAT_VERSION = 3
# What numpy and zipfile raise on a damaged archive member.  RuntimeError
# covers an encryption flag and, as its subclass NotImplementedError, an
# unsupported compression method.
_UNREADABLE = (ValueError, OSError, EOFError, RuntimeError, zipfile.BadZipFile)


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
    on a single boot chunk).  Construction rejects values fit cannot use:
    coeff must be finite and positive, damping finite and >= 0, gamma
    finite, and norm_eps inside (0, 0.5).
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
        if not 0 < self.coeff < np.inf:
            raise ValueError(f"coeff must be positive and finite, got {self.coeff}")
        if not 0 <= self.damping < np.inf:
            raise ValueError(f"damping must be finite and >= 0, got {self.damping}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 or None, got {self.chunk_size}")
        # normalize_unit maps into [eps, 1 - eps], which needs eps < 1/2.
        if not 0 < self.norm_eps < 0.5:
            raise ValueError(f"norm_eps must lie in (0, 0.5), got {self.norm_eps}")
        CombineSpec(operator=self.operator, gamma=self.gamma)  # a known operator, finite gamma


@dataclass(frozen=True)
class AffineMaps:
    """Frozen layers below the readout as one affine map per feature group.

    apply(mats) is sum_g weights[g] @ mats[g] + offset (a column).  A left
    factor of the readout is folded into the maps.  For a batch model it is
    the classifier's affine half, so apply gives its stacked pre-activations
    and stack holds the NodeStack whose activation half turns them into
    scores.  For a sequential model it is the transpose of the readout's
    basis U, so apply gives the basis coordinates U'H the readout works in,
    and stack is None.  source is the (extractors, config, batch readout or
    basis) the maps were derived from.
    """

    weights: tuple
    offset: np.ndarray
    stack: object
    source: tuple = field(repr=False)

    def apply(self, mats):
        out = self.weights[0] @ mats[0]
        for w, m in zip(self.weights[1:], mats[1:]):
            out += w @ m
        out += self.offset
        return out


def _input_maps(extractors, cfg):
    """Weights, offset and stacked flag of the maps whose apply() equals
    combine() of every node's projection of its group, with cfg's combiner."""
    if cfg.operator == "concat":
        weights = tuple(np.vstack([n.weights for n in nodes]) for nodes in extractors)
        offset = np.concatenate(
            [np.full(n.subspace_dim, n.bias) for nodes in extractors for n in nodes]
        )
        return weights, offset[:, None], True

    def gain(g, k):
        # plus weights every operand after the very first by gamma.
        return 1.0 if g == k == 0 else cfg.gamma

    weights = tuple(
        sum(gain(g, k) * n.weights for k, n in enumerate(nodes))
        for g, nodes in enumerate(extractors)
    )
    bias = sum(
        gain(g, k) * n.bias for g, nodes in enumerate(extractors) for k, n in enumerate(nodes)
    )
    return weights, np.full((extractors[0][0].subspace_dim, 1), bias), False


def _derive_maps(extractors, cfg, fold):
    """The model's AffineMaps; fold is the batch readout (a ClassifierModel)
    or the sequential readout's basis."""
    source = (extractors, cfg, fold)
    weights, offset, stacked = _input_maps(extractors, cfg)
    if isinstance(fold, ClassifierModel):
        stack = stack_nodes(fold)
        left, bias = stack.weights, stack.bias
    else:
        stack, left, bias = None, fold.T, 0.0
    if stacked:
        # Each group's rows of the combined feature meet their own columns.
        cuts = np.cumsum([w.shape[0] for w in weights])[:-1]
        blocks = np.split(left, cuts, axis=1)
    else:
        blocks = [left] * len(weights)
    folded = tuple(b @ w for b, w in zip(blocks, weights))
    return AffineMaps(folded, left @ offset + bias, stack, source)


@dataclass(frozen=True)
class HOselmModel:
    """Fitted model: frozen extractor layers plus one trained readout.

    extractors holds one tuple of nodes per feature group, in group order;
    readout is a ClassifierModel in batch mode or an OselmState in
    sequential mode.  maps is derived from the other fields when the model
    is built (see AffineMaps) and reused as long as the fields it was
    derived from are the same objects: partial_fit keeps the config and the
    readout's basis, so it shares the maps.
    """

    extractors: tuple
    group_names: tuple
    readout: object
    config: PipelineConfig
    class_count: int
    maps: AffineMaps = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        fold = self.readout if self.config.mode == "batch" else self.readout.basis
        source = (self.extractors, self.config, fold)
        if self.maps is None or any(a is not b for a, b in zip(self.maps.source, source)):
            object.__setattr__(self, "maps", _derive_maps(*source))

    @property
    def combine_spec(self):
        """The combiner the config selects."""
        return CombineSpec(operator=self.config.operator, gamma=self.config.gamma)


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


def _feature_rows(cfg, group_count):
    """Row count D of the combined feature the readout consumes."""
    return cfg.subspace_dim * (cfg.node_count * group_count if cfg.operator == "concat" else 1)


def _coefficients(extractors, cfg):
    """The D x k coefficient B of the input maps, H = B [x_1; ...; x_G; 1].

    Every extractor node is affine, so the combined feature is this one
    matrix (k = sum of group widths + 1) applied to the stacked inputs:
    [A_1 ... A_G, c] for plus, block rows [0 ... A_g ... 0, a_g] for concat.
    """
    weights, offset, stacked = _input_maps(extractors, cfg)
    return np.hstack((block_diag(*weights) if stacked else np.hstack(weights), offset))


def _readout_basis(extractors, cfg):
    """Orthonormal D x r basis U of the range of B (_coefficients), from its
    thin SVD, r = min(D, k).  Every combined feature column lies in that
    range, so the sequential readout works on U'H (see hoselm.oselm); no
    rank cutoff is taken, and when D <= k U is a D x D rotation."""
    u, _, _ = svd(_coefficients(extractors, cfg), full_matrices=False)
    return u


def _readout_factor(mats, extractors, cfg):
    """The combined feature as a thin factor (F, P) with H = F P'.

    H = B [x_1; ...; x_G; 1] (see _coefficients).  One thin QR
    [x_1; ...; x_G; 1]' = Q R gives H = C Q' with C = B R'.  The small C is
    then rotated to its singular vectors, C = U S V', and the factor
    returned is F = U S with the orthonormal basis P = Q V.  F has
    orthogonal columns, so the classifier's k x k Gram F'F is diagonal up to
    rounding and its ridge inverse stays accurate however ill-conditioned H
    is; an unrotated C'C squares H's condition number.
    """
    inputs = augmented_inputs(mats)
    q, r = qr(inputs, mode="economic", overwrite_a=True, check_finite=False)
    u, s, vt = svd(_coefficients(extractors, cfg) @ r.T, full_matrices=False, check_finite=False)
    return u * s, q @ vt.T


def fit(groups, targets, cfg):
    """Train a model on aligned feature groups and one-hot targets.

    Both modes boot on a first block: fit the extractors on it, then fit
    the readout (the additive classifier in batch mode, the sequential
    readout in sequential mode).  Batch mode boots on every column.
    Sequential mode boots on the first chunk_size columns (all of them when
    chunk_size is None), which must contain every class, and then folds
    each later chunk in through partial_fit, the last one possibly short.

    A batch fit whose combined feature has more rows D than the stacked
    inputs have plus one (k) never forms it: the classifier is fitted on
    the thin factor H = F P' (see _readout_factor and fit_classifier),
    which replaces the D x M feature, its D x D Gram and inverse with one
    M x k QR, the SVD of a D x k matrix and a k x k inverse.  Which path
    is taken depends on shapes only.  A sequential fit never forms it
    either: it takes the readout's basis U from one SVD of the D x k
    coefficient, derives the maps that give Y = U'H, and boots the readout
    on the boot chunk's Y.
    """
    if isinstance(groups, FeatureGroup):
        groups = [groups]
    mats = _checked_groups(groups)
    tm = as_matrix(targets, "targets")
    samples = mats[0].shape[1]
    if tm.shape[1] != samples:
        raise ShapeError(f"targets have {tm.shape[1]} columns, groups have {samples}")
    batch = cfg.mode == "batch"
    boot = samples if batch else min(cfg.chunk_size or samples, samples)
    head = tm[:, :boot]
    if not batch:
        _require_all_classes(head, "the initial sequential chunk")
    boot_mats = [m[:, :boot] for m in mats]
    extractors, features = _fit_extractors(boot_mats, head, cfg)
    narrow = _feature_rows(cfg, len(mats)) <= sum(m.shape[0] for m in mats) + 1
    combined = combine(features, CombineSpec(cfg.operator, cfg.gamma)) if batch and narrow else None
    # The per-node features are not needed past this point; release them
    # before the readout's QR or Gram.
    del features
    maps = None
    if combined is not None:
        readout = fit_classifier(combined, head, cfg.classifier_nodes, cfg.coeff, cfg.norm_eps)
    elif batch:
        f, p = _readout_factor(boot_mats, extractors, cfg)
        readout = fit_classifier(f, head, cfg.classifier_nodes, cfg.coeff, cfg.norm_eps, p)
    else:
        basis = _readout_basis(extractors, cfg)
        maps = _derive_maps(extractors, cfg, basis)
        readout = os_boot(maps.apply(boot_mats), head, cfg.coeff, basis)
    model = HOselmModel(
        extractors=extractors,
        group_names=tuple(g.name for g in groups),
        readout=readout,
        config=cfg,
        class_count=tm.shape[0],
        maps=maps,
    )
    # Later chunks have the boot chunk's length; batch mode has none.
    for lo in range(boot, samples, boot):
        chunk = [FeatureGroup(x=m[:, lo : lo + boot]) for m in mats]
        model = partial_fit(model, chunk, tm[:, lo : lo + boot])
    return model


def partial_fit(model, groups, targets):
    """Fold one new chunk into a sequential model; returns the new model.

    Extractor weights are frozen; only the readout advances, and the new
    model shares the parent's maps.  The chunk is not retained.
    """
    if model.config.mode != "sequential":
        raise ModeError("partial_fit requires a sequential-mode model")
    mats = _checked_groups(groups)
    _check_layout(model, mats)
    tm = as_matrix(targets, "targets")
    readout = os_update(model.readout, model.maps.apply(mats), tm)
    return replace(model, readout=readout)


def scores(model, groups):
    """Raw readout scores (classes x samples) for aligned groups."""
    mats = _checked_groups(groups)
    _check_layout(model, mats)
    z = model.maps.apply(mats)
    if model.config.mode == "batch":
        return activate(model.maps.stack, z)
    return os_predict(model.readout, z)


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
    Inference wall-clock time is recorded; callers that want training time
    measure fit themselves.
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
        infer_seconds=infer_seconds,
    )


def save_model(model, path):
    """Write a fitted model to an NPZ file with a versioned JSON header.

    Format v3 stores each fact once.  The header holds the full config
    (which also fixes the combiner and the readout's ridge coefficient),
    the group names, the class count, and the batch readout's node count or
    the sequential readout's sample count.  Arrays: per group g,
    extractor_{g}_weights (nodes x dim x inputs) and extractor_{g}_biases;
    batch readouts add stacked classifier node arrays, sequential readouts
    their r x r accumulator (in the readout's basis, which the extractors
    fix and load_model derives again) and D x classes weights.  See the
    README for the full layout and for what formats v1 and v2 stored.
    """
    if not isinstance(model, HOselmModel):
        raise TypeError(
            f"save_model takes (model, path), got {type(model).__name__} first"
        )
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "group_names": list(model.group_names),
        "class_count": model.class_count,
    }
    arrays = {}
    for g, nodes in enumerate(model.extractors):
        arrays[f"extractor_{g}_weights"] = np.stack([n.weights for n in nodes])
        arrays[f"extractor_{g}_biases"] = np.array([n.bias for n in nodes])
    if model.config.mode == "batch":
        nodes = model.readout.nodes
        header["readout"] = {"node_count": len(nodes)}
        if nodes:
            arrays["classifier_weights"] = np.stack([n.weights for n in nodes])
            arrays["classifier_biases"] = np.array([n.bias for n in nodes])
            arrays["classifier_steps"] = np.array([n.step for n in nodes])
            arrays["classifier_norm_in"] = np.array([astuple(n.norm_in) for n in nodes])
    else:
        s = model.readout
        header["readout"] = {"seen": s.seen}
        arrays["readout_p"] = s.p
        arrays["readout_beta"] = s.beta
    arrays["header"] = np.array(json.dumps(header, sort_keys=True))
    np.savez(path, **arrays)


def _member(data, name):
    """Member `name` of an open model file, read as an array."""
    if name not in data.files:
        raise FormatError(f"model file has no array {name!r}")
    try:
        a = data[name]
    except _UNREADABLE as exc:
        raise FormatError(f"model array {name!r} is unreadable: {exc}") from exc
    if not isinstance(a, np.ndarray):
        # NpzFile hands back the raw bytes of a member without the .npy magic.
        raise FormatError(f"model array {name!r} is not an .npy array")
    return a


def _header(data):
    text = str(_member(data, "header"))
    try:
        header = json.loads(text)
    except ValueError as exc:
        raise FormatError(f"model header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("model header is not a JSON object")
    version = header.get("format_version")
    if isinstance(version, bool) or version not in (1, 2, _FORMAT_VERSION):
        raise FormatError(f"unsupported model format version: {version!r}")
    return header


def _array(data, name, shape):
    """Array `name` of the given shape (None matches any positive size),
    float and finite."""
    a = _member(data, name)
    if a.ndim != len(shape) or any(
        n != want if want is not None else n < 1 for n, want in zip(a.shape, shape)
    ):
        want = tuple("*" if n is None else n for n in shape)
        raise FormatError(f"model array {name!r} has shape {a.shape}, header implies {want}")
    if a.dtype.kind != "f" or not np.all(np.isfinite(a)):
        raise FormatError(f"model array {name!r} is not all finite floats")
    return a


def _count(value, what, low=0):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise FormatError(f"model header {what} must be an integer >= {low}, got {value!r}")
    return value


def _read_extractor(data, g, cfg):
    weights = _array(data, f"extractor_{g}_weights", (cfg.node_count, cfg.subspace_dim, None))
    biases = _array(data, f"extractor_{g}_biases", (cfg.node_count,))
    return tuple(SubnetNode(weights=w, bias=float(b)) for w, b in zip(weights, biases))


def _read_classifier(data, count, cfg, classes, dim, version):
    count = _count(count, "readout node_count")
    if count > cfg.classifier_nodes:
        raise FormatError(f"readout has {count} nodes, config allows {cfg.classifier_nodes}")
    nodes = ()
    if count:
        weights = _array(data, "classifier_weights", (count, classes, dim))
        biases = _array(data, "classifier_biases", (count,))
        steps = _array(data, "classifier_steps", (count,))
        norms = _array(data, "classifier_norm_in", (count, 3))
        lo, hi, eps = norms.T
        # Denormalizing divides by 1 - eps and scales by hi - lo.
        if np.any(lo > hi) or np.any(eps <= 0) or np.any(eps >= 1):
            raise FormatError("classifier normalization rows need lo <= hi and 0 < eps < 1")
        if version == 1 and not np.array_equal(
            _array(data, "classifier_norm_out", (count, 3)), norms
        ):
            raise FormatError("format v1 classifier_norm_out disagrees with classifier_norm_in")
        nodes = tuple(
            ClassifierNode(
                weights=weights[i],
                bias=float(biases[i]),
                step=float(steps[i]),
                norm_in=NormParams(*map(float, norms[i])),
            )
            for i in range(count)
        )
    return ClassifierModel(
        nodes=nodes, coeff=float(cfg.coeff), feature_dim=dim, class_count=classes
    )


def _drop_v1_copies(header, meta, cfg, dim):
    """Format v1 also stored the combiner and the readout's kind, coeff and
    (batch) feature_dim; each must equal what the config and shapes fix."""
    batch = cfg.mode == "batch"
    copies = [
        ("combine", header.get("combine"), {"operator": cfg.operator, "gamma": cfg.gamma}),
        ("readout kind", meta.pop("kind", None), "classifier" if batch else "sequential"),
        ("readout coeff", meta.pop("coeff", None), cfg.coeff),
    ] + ([("readout feature_dim", meta.pop("feature_dim", None), dim)] if batch else [])
    for what, stored, kept in copies:
        if stored != kept:
            raise FormatError(f"format v1 {what} {stored!r} disagrees with {kept!r}")


def _load(data):
    header = _header(data)
    try:
        cfg = PipelineConfig(**header["config"])
        names = header["group_names"]
        classes = header["class_count"]
        meta = dict(header["readout"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model header is malformed: {exc!r}") from exc
    _count(classes, "class_count", 1)
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise FormatError(f"model header group_names must list group names, got {names!r}")
    batch = cfg.mode == "batch"
    dim = _feature_rows(cfg, len(names))
    version = header["format_version"]
    if version == 1:
        _drop_v1_copies(header, meta, cfg, dim)
    key = "node_count" if batch else "seen"
    if list(meta) != [key]:
        raise FormatError(f"model header readout holds {sorted(meta)}, not just {key!r}")
    extractors = tuple(_read_extractor(data, g, cfg) for g in range(len(names)))
    # Finite arrays can still overflow the maps; that is checked below, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        if batch:
            readout = _read_classifier(data, meta[key], cfg, classes, dim, version)
        else:
            try:
                basis = _readout_basis(extractors, cfg)
            except ValueError as exc:  # numpy's LinAlgError included
                raise FormatError(f"extractor weights give no readout basis: {exc}") from exc
            if version < 3:
                # Formats v1 and v2 stored the D x D accumulator U P U' + c (I - U U').
                p = _array(data, "readout_p", (dim, dim))
                p = basis.T @ p @ basis
                p = (p + p.T) / 2.0
            else:
                p = _array(data, "readout_p", (basis.shape[1],) * 2)
            readout = OselmState(
                p=p,
                beta=_array(data, "readout_beta", (dim, classes)),
                seen=_count(meta[key], "readout seen"),
                coeff=float(cfg.coeff),
                basis=basis,
            )
        model = HOselmModel(
            extractors=extractors,
            group_names=tuple(names),
            readout=readout,
            config=cfg,
            class_count=classes,
        )
    maps = model.maps
    derived = (*maps.weights, maps.offset) + ((maps.stack.span,) if batch else ())
    if not all(np.isfinite(a).all() for a in derived):
        raise FormatError("model arrays overflow the input maps derived from them")
    return model


def load_model(path):
    """Read back a model written by save_model, in format v1, v2 or v3.

    Every array is checked against the header before the model is built:
    presence, shape, node and group counts, and finiteness, which the maps
    derived from them must keep; a v1 file's duplicated facts must agree
    with the copies later formats keep.  A v1
    or v2 sequential file holds the D x D accumulator P_D; it is read back
    in the readout's basis U as U' P_D U.  A file that fails a check, or is
    not a readable NPZ archive, raises FormatError.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a model file: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError(f"{path}: not a model file (a bare array, not an NPZ archive)")
    with data:
        return _load(data)
