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

Extractor nodes are affine (W x + b) and both combiners are linear, so
once fit returns, the combined feature is H = B [x_1; ...; x_G; 1] with one
D x k coefficient B, D combined rows and k = sum of group widths + 1.
hoselm.combine.combine_affine builds B; the combiner's layout is written
nowhere else.  A model derives its serving maps (AffineMaps) when built, by
folding a left factor L of its readout into B: the columns of L B split
into one weight per group and an offset, so a request costs one matrix
product per group.  A batch model folds its classifier's stacked affine
half, L = W_stack, and applies the classifier's activation half after it;
a sequential model folds L = U' (below) and hands the result to its
readout.  The maps are derived, never stored in model files.

The same affinity bounds the rank of H by k.  A fit factors its boot
block once, with one R-only thin QR [x_1; ...; x_G; 1; T]' = Q R (the one
hoselm.extractor.factor_inputs takes), and every least-squares solve of
the fit reads that R: each extractor layer takes the R of a QR of its own
columns [x_g; 1; T] of it, the batch readout takes the basis U of its
coordinates from the SVD of B R_z' (R_z the stacked inputs' columns of R)
and the sequential boot runs on R's columns alone (see fit).  Neither mode
forms H: the classifier is fitted on Y = U'H and the sequential readout
runs recursive least squares on it, with U an orthonormal D x r basis of
H's columns, r <= min(D, k) (see hoselm.oselm).  A chunk of m columns then
costs O(r^2 m), not O(D^2 m).  Both readouts take their ridge solve from
an SVD, so no fit forms or inverts the Gram of its boot block.
"""

import json
import operator
import os
import time
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg import svd
from scipy.linalg.blas import dgemm

from .classifier import ClassifierModel, activate, decode_labels, fit_classifier
from .combine import CombineSpec, combine_affine
from .errors import FormatError, ModeError, ShapeError
from .extractor import ExtractorConfig, SubnetNode, extract_features
from .kernels import _integer, _labels, _qr_r, as_matrix, augmented_inputs
from .oselm import OselmState, os_boot, os_predict, os_update

# Requests go through the affine maps, and fit and load_model through B;
# these three stay only for perfbench/tracing.py, which wraps them.
from .classifier import score as classifier_score  # noqa: F401
from .combine import combine  # noqa: F401
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
# PipelineConfig's integer fields and their least values; chunk_size may be None.
_COUNTS = {"node_count": 1, "subspace_dim": 1, "classifier_nodes": 1, "chunk_size": 1, "seed": 0}
_FORMAT_VERSION = 6
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
    on a single boot chunk).  Construction rejects values fit cannot use,
    with the bounds of extractor_config and combine_spec; the counts and
    the seed (>= 0) follow the package's integer rule (see hoselm).
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
        for name, low in _COUNTS.items():
            if getattr(self, name) is not None or name != "chunk_size":
                object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        if not 0 < self.coeff < np.inf:
            raise ValueError(f"coeff must be positive and finite, got {self.coeff}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        self.extractor_config  # damping; norm_eps
        self.combine_spec  # a known operator, finite gamma

    @property
    def extractor_config(self):
        """Every group's extractor settings; fit seeds each group apart."""
        return ExtractorConfig(
            node_count=self.node_count,
            subspace_dim=self.subspace_dim,
            damping=self.damping,
            norm_eps=self.norm_eps,
        )

    @property
    def combine_spec(self):
        """The combiner operator and gamma select."""
        return CombineSpec(operator=self.operator, gamma=self.gamma)


@dataclass(frozen=True)
class AffineMaps:
    """Frozen layers below the readout as one affine map per feature group.

    apply(mats) is sum_g weights[g] @ mats[g] + offset (a column).  A left
    factor of the readout is folded into the maps.  For a batch model it is
    the classifier's affine half, its weights as one (nodes * classes) x D
    matrix, so apply gives the pre-activations that
    hoselm.classifier.activate turns into scores.  For a sequential model
    it is the transpose of the readout's basis U, so apply gives the basis
    coordinates U'H the readout works in.
    """

    weights: tuple
    offset: np.ndarray

    def apply(self, mats):
        return _apply(self.weights, self.offset, mats)


def _apply(weights, offset, mats, out=None):
    """sum_g weights[g] @ mats[g] + offset, one product per group, written
    into out (a C-ordered array of the result's shape) when one is given.

    Each group after the first is accumulated into the output in place,
    out' += m' w' on the Fortran-ordered out', so no output-sized
    temporary is made; a Fortran-ordered m is read transposed, not copied.
    dgemm rejects empty operands, so a map with no rows (a classifier with
    no nodes) adds nothing.
    """
    out = np.matmul(weights[0], mats[0], out=out)
    for w, m in zip(weights[1:], mats[1:] if out.size else ()):
        a, trans = (m, 1) if m.flags.f_contiguous else (m.T, 0)
        out = dgemm(1.0, a, w.T, beta=1.0, c=out.T, overwrite_c=True, trans_a=trans).T
    out += offset
    return out


def _split_maps(extractors, folded):
    """Split the columns of a folded coefficient L B into one weight per
    group and the offset column."""
    cuts = np.cumsum([nodes[0].input_dim for nodes in extractors])
    *weights, offset = np.split(folded, cuts, axis=1)
    return tuple(map(np.ascontiguousarray, weights)), offset


def _derive_maps(extractors, cfg, fold):
    """The model's AffineMaps; fold is the batch readout (a ClassifierModel)
    or the sequential readout's basis.  Its left factor meets the frozen
    layers' coefficient B (hoselm.combine.combine_affine) in one product,
    whose columns split into the groups' weights and the offset."""
    if isinstance(fold, ClassifierModel):
        left = fold.weights.reshape(-1, fold.feature_dim)
        bias = np.repeat(fold.bias, fold.class_count)[:, None]
    else:
        left, bias = fold.T, 0.0
    weights, offset = _split_maps(extractors, left @ combine_affine(extractors, cfg.combine_spec))
    return AffineMaps(weights, offset + bias)


@dataclass(frozen=True)
class HOselmModel:
    """Fitted model: frozen extractor layers plus one trained readout.

    extractors holds one tuple of nodes per feature group, in group order,
    and group_names one string per group; readout is a ClassifierModel in
    batch mode or an OselmState in sequential mode.  class_labels holds the
    distinct integer label value of each class index, such as the original
    labels of a dataset (fit gives 0 .. C - 1); numpy integers are stored
    as Python ints, and bools and floats are rejected.  class_count is its
    length, which must equal the readout's class count.  maps is not a
    constructor argument: building a model derives it from the other
    fields (see AffineMaps), and partial_fit's child shares its parent's.

    Building a model checks the rules on its structure that its file format
    relies on; a violation raises ValueError: the labels, the group names,
    the readout's kind (the one config.mode names; a sequential readout's
    coeff is config.coeff), that every group has config.node_count nodes of
    config.subspace_dim rows over one input width, and that a batch readout
    has at most config.classifier_nodes nodes and config.norm_eps as its
    eps.  save_model checks the rules on values, so any model it writes,
    load_model reads back.

    partial_fit's child model re-checks only what the step changed, the
    readout: its kind and coeff, its class count and that it keeps the
    parent's basis object.  Its labels, group names, extractors, config and
    maps are the parent's own objects, checked when the parent was built.
    """

    extractors: tuple
    group_names: tuple
    readout: object
    config: PipelineConfig
    class_labels: tuple
    maps: AffineMaps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "class_labels", _label_values(self.class_labels))
        _check_layers(self.extractors, self.config, self.readout)
        classes = self.readout.class_count
        if len(self.class_labels) != classes:
            raise ValueError(
                f"{len(self.class_labels)} class labels for a readout of {classes} classes"
            )
        names = self.group_names
        if len(names) != len(self.extractors) or not all(isinstance(n, str) for n in names):
            raise ValueError(
                f"group_names must hold one string per group ({len(self.extractors)}), "
                f"got {names!r}"
            )
        fold = self.readout if self.config.mode == "batch" else self.readout.basis
        object.__setattr__(self, "maps", _derive_maps(self.extractors, self.config, fold))

    @property
    def class_count(self):
        return len(self.class_labels)

    @property
    def combine_spec(self):
        """The combiner the config selects."""
        return self.config.combine_spec


def _label_values(labels):
    """labels as a non-empty tuple of distinct Python ints, or ValueError."""
    try:
        values = tuple(map(operator.index, labels))
    except TypeError:
        values = ()
    if (
        not values
        or any(isinstance(v, (bool, np.bool_)) for v in labels)
        or len(set(values)) != len(values)
    ):
        raise ValueError(f"class_labels must list distinct integers, got {labels!r}")
    return values


def _check_layers(extractors, cfg, readout):
    """The rules a model's extractors and readout must keep with its
    config; see HOselmModel."""
    kind = ClassifierModel if cfg.mode == "batch" else OselmState
    if not isinstance(readout, kind):
        raise ValueError(
            f"a {cfg.mode} model needs a {kind.__name__} readout, got {type(readout).__name__}"
        )
    if kind is OselmState and readout.coeff != cfg.coeff:
        raise ValueError(f"readout coeff {readout.coeff!r} is not config.coeff {cfg.coeff}")
    for g, nodes in enumerate(extractors):
        shapes = sorted({n.weights.shape for n in nodes})
        if len(nodes) != cfg.node_count or [rows for rows, _ in shapes] != [cfg.subspace_dim]:
            raise ValueError(
                f"group {g} has {len(nodes)} nodes of weight shapes {shapes}; config.node_count "
                f"{cfg.node_count} and config.subspace_dim {cfg.subspace_dim} need "
                f"{cfg.node_count} nodes of {cfg.subspace_dim} rows over one input width"
            )
    if kind is ClassifierModel:
        if len(readout.step) > cfg.classifier_nodes:
            raise ValueError(
                f"readout has {len(readout.step)} nodes, config.classifier_nodes allows "
                f"{cfg.classifier_nodes}"
            )
        if readout.eps != cfg.norm_eps:
            raise ValueError(
                f"classifier eps {readout.eps!r} is not config.norm_eps {cfg.norm_eps}"
            )


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


def _check_model(model):
    """TypeError unless model is an HOselmModel."""
    if not isinstance(model, HOselmModel):
        raise TypeError(f"model must be an HOselmModel, got {type(model).__name__}")


def _checked_groups(groups):
    if isinstance(groups, FeatureGroup):
        groups = [groups]
    if not groups:
        raise ValueError("group list is empty")
    mats = [as_matrix(g.x, f"group {g.name or i}") for i, g in enumerate(groups)]
    cols = {m.shape[1] for m in mats}
    if len(cols) > 1:
        raise ShapeError(f"groups disagree on sample count: {sorted(cols)}")
    return mats, tuple(g.name for g in groups)


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


def _boot_columns(targets, chunk):
    """The column count of the fewest whole chunks, the last possibly
    short, whose targets hold every class; ValueError if the targets lack
    a class altogether."""
    present = targets != 0
    held = present.any(axis=1)
    if not held.all():
        missing = [int(i) for i in np.flatnonzero(~held)]
        raise ValueError(
            f"the training targets must contain every class; classes {missing} are absent"
        )
    last_first = int(present.argmax(axis=1).max())
    return min(targets.shape[1], (last_first // chunk + 1) * chunk)


def _fit_extractors(mats, targets, r, cfg):
    """One layer per group from the shared factor r of the stacked inputs
    and targets: the R of a QR of the group's columns [x_g; 1; T] of r,
    which a lone group takes as it is.  The columns are gathered in Fortran
    order, so the QR factors them in place."""
    group_seeds = np.random.SeedSequence(cfg.seed).generate_state(len(mats))
    starts = np.cumsum([0] + [m.shape[0] for m in mats])
    extractors = []
    for m, lo, hi, group_seed in zip(mats, starts, starts[1:], group_seeds):
        factor = r
        if len(mats) > 1:
            cols = np.r_[lo:hi, starts[-1] : r.shape[1]]
            factor = _qr_r(r.T[cols].T)
        ecfg = replace(cfg.extractor_config, seed=int(group_seed))
        extractors.append(tuple(extract_features(m, targets, ecfg, factor)))
    return tuple(extractors)


def fit(groups, targets, cfg):
    """Train a model on aligned feature groups and one-hot targets.

    Both modes boot on a first block: fit the extractors on it, then fit
    the readout (the additive classifier in batch mode, the sequential
    readout in sequential mode).  Batch mode boots on every column.
    Sequential mode boots on the fewest whole chunks of chunk_size columns
    (all columns when chunk_size is None) whose targets hold every class,
    and then folds each later chunk of chunk_size columns into the readout
    as partial_fit does, the last one possibly short.  Only targets that
    lack a class altogether raise ValueError.

    Every solve reads one R-only thin QR of the boot block,
    [x_1; ...; x_G; 1; T]' = Q R (as factor_inputs takes it), and H = B z
    with z = [x_1; ...; x_G; 1] (hoselm.combine.combine_affine) is never
    formed.  With R_z the leading min(k, M) rows of R's first k columns
    (k = rows of z), H = (B R_z') Q_z'.  The QR factors the M x K stack in
    place, and a batch fit then writes its r x M classifier coordinates
    (r <= k < K) over the same buffer rather than into a new one.

    Batch: the SVD B R_z' = U S V' gives an orthonormal basis U of H's
    columns (D x r, r = min(D, k, M)); the classifier is fitted on
    Y = U'H = (U'B) z = S V' Q_z', one product per group, and the stacked
    weights W_Y map back to W_Y U' at once.  Y's Gram is S^2, so its ridge
    inverse diag(1 / (1/c + s^2)) comes off the same SVD.  Since
    (I/c + U G U')^-1 = U (I/c + G)^-1 U' + c (I - U U'), these are the
    ridge weights over H, and W_Y Y = W_Y U' H, so bias, activation and
    step are those of a fit on H.

    Sequential: U comes from the SVD of B alone, since later chunks can
    leave the range of B R_z' when M < k.  The readout boots on
    F = U'B R[:, :k]' and G = R[:, k:]', whose Grams F F' and F G' equal
    Y Y' and Y T' over the boot block.
    """
    mats, names = _checked_groups(groups)
    tm = as_matrix(targets, "targets")
    samples = mats[0].shape[1]
    if tm.shape[1] != samples:
        raise ShapeError(f"targets have {tm.shape[1]} columns, groups have {samples}")
    batch = cfg.mode == "batch"
    chunk = cfg.chunk_size or samples
    boot = samples if batch else _boot_columns(tm, chunk)
    head = tm[:, :boot]
    boot_mats = [m[:, :boot] for m in mats]
    stack = augmented_inputs(boot_mats, head)
    r = _qr_r(stack)
    extractors = _fit_extractors(boot_mats, head, r, cfg)
    b = combine_affine(extractors, cfg.combine_spec)
    k = r.shape[1] - tm.shape[0]
    if batch:
        u, s, _ = svd(b @ r[: min(k, boot), :k].T, full_matrices=False)
        y = _apply(*_split_maps(extractors, u.T @ b), boot_mats, out=stack[:, : u.shape[1]].T)
        gram_inv = np.diag(1.0 / (1.0 / cfg.coeff + s * s))
        readout = fit_classifier(y, head, cfg.classifier_nodes, gram_inv, cfg.norm_eps)
        readout = replace(readout, weights=readout.weights @ u.T)
    else:
        u, _, _ = svd(b, full_matrices=False)
        readout = os_boot(u.T @ b @ r[:, :k].T, r[:, k:].T, cfg.coeff, u, seen=boot)
    model = HOselmModel(
        extractors=extractors,
        group_names=names,
        readout=readout,
        config=cfg,
        class_labels=tuple(range(tm.shape[0])),
    )
    # Batch mode boots on every column, so it has no later chunk.
    for lo in range(boot, samples, chunk):
        model = _advance(model, [m[:, lo : lo + chunk] for m in mats], tm[:, lo : lo + chunk])
    return model


def _advance(model, mats, targets):
    """Fold one validated chunk into a sequential model's readout.

    The child model re-checks only the readout (see HOselmModel).  A readout
    that keeps the parent's kind, coeff, class count and basis object gets a
    child sharing every other field, the maps included; any other goes
    through the full constructor, which derives new maps or raises
    ValueError.
    """
    parent = model.readout
    readout = os_update(parent, model.maps.apply(mats), targets)
    if not (
        isinstance(readout, OselmState)
        and readout.coeff == parent.coeff
        and readout.basis is parent.basis
        and readout.class_count == model.class_count
    ):
        return replace(model, readout=readout)
    child = object.__new__(HOselmModel)
    child.__dict__.update(model.__dict__, readout=readout)
    return child


def partial_fit(model, groups, targets):
    """Fold one new chunk into a sequential model; returns the new model.

    Extractor weights are frozen; only the readout advances, and the new
    model shares the parent's maps.  The chunk is not retained.
    """
    _check_model(model)
    if model.config.mode != "sequential":
        raise ModeError("partial_fit requires a sequential-mode model")
    mats, _ = _checked_groups(groups)
    _check_layout(model, mats)
    return _advance(model, mats, as_matrix(targets, "targets"))


def scores(model, groups):
    """Raw readout scores (classes x samples) for aligned groups."""
    _check_model(model)
    mats, _ = _checked_groups(groups)
    _check_layout(model, mats)
    z = model.maps.apply(mats)
    if model.config.mode == "batch":
        return activate(model.readout, z)
    return os_predict(model.readout, z)


def predict(model, groups):
    """Class indices (per-column argmax of the readout scores)."""
    return decode_labels(scores(model, groups))


def classification_metrics(true_labels, predicted_labels, class_count):
    """Confusion counts, per-class recalls, their unweighted mean, accuracy.

    Classes with no true samples get recall None and are excluded from the
    mean; they are reported so callers can flag them.
    """
    true_labels = _labels(true_labels, "true_labels")
    predicted_labels = _labels(predicted_labels, "predicted_labels")
    if true_labels.shape != predicted_labels.shape:
        raise ShapeError(
            f"label shapes differ: {true_labels.shape} vs {predicted_labels.shape}"
        )
    for what, labels in (("true", true_labels), ("predicted", predicted_labels)):
        if labels.size and not 0 <= labels.min() <= labels.max() < class_count:
            span = f"[{labels.min()}, {labels.max()}]"
            raise ValueError(f"{what} labels span {span}, outside [0, {class_count})")
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

    Targets must be one-hot with one row per class of the model (ShapeError
    otherwise); true labels are their per-column argmax.  Inference
    wall-clock time is recorded; callers that want training time measure
    fit themselves.
    """
    _check_model(model)
    tm = as_matrix(targets, "targets")
    if tm.shape[0] != model.class_count:
        raise ShapeError(f"targets have {tm.shape[0]} rows, the model {model.class_count} classes")
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

    Format v6 stores each fact once.  The header holds the full config
    (which also fixes the combiner, the readout's ridge coefficient and the
    classifier's normalization eps), the group names, the classes' label
    values, and the batch readout's node count or the sequential readout's
    sample count.  Arrays: per group g, extractor_{g}_weights (nodes x dim
    x inputs) and extractor_{g}_biases; batch readouts add the classifier's
    stacked arrays, sequential readouts their r x r accumulator and
    r x classes weights gamma, both in the readout's basis (which the
    extractors fix and load_model derives again), so a loaded model
    continues bit for bit.  See the README for the full layout.

    path is a file name, written exactly as given (np.savez alone would
    append .npz) and only once whole, so a failed write leaves any old file
    there intact; or it is a binary file object.  The rules on the model's
    structure were checked when it was built (see HOselmModel); those on
    its values are checked before anything is written, raising ValueError.
    """
    _check_model(model)
    arrays = _checked_arrays(model)
    batch = model.config.mode == "batch"
    readout = model.readout
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "group_names": list(model.group_names),
        "class_labels": list(model.class_labels),
        "readout": {"node_count": len(readout.step)} if batch else {"seen": readout.seen},
    }
    arrays["header"] = np.array(json.dumps(header, sort_keys=True))
    if not isinstance(path, (str, os.PathLike)):
        np.savez(path, **arrays)
        return
    # A temporary beside path, created under the umask as path would be.
    temp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(temp, "xb")
    try:
        with fh:
            np.savez(fh, **arrays)
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def _checked_arrays(model):
    """The arrays save_model writes for model, by member name, once they
    keep the rules on values that the file relies on: every array is
    finite, a sequential readout's accumulator P is exactly symmetric, every
    classifier node has lo <= hi, and neither the maps derived from them nor
    the normalization spans hi - lo overflow.  A violation raises
    ValueError; save_model and load_model both call this."""
    arrays = {}
    for g, nodes in enumerate(model.extractors):
        arrays[f"extractor_{g}_weights"] = np.stack([n.weights for n in nodes])
        arrays[f"extractor_{g}_biases"] = np.array([n.bias for n in nodes])
    c = model.readout
    if model.config.mode == "sequential":
        arrays["readout_p"] = c.p
        arrays["readout_gamma"] = c.gamma
    elif len(c.step):
        arrays["classifier_weights"] = c.weights
        arrays["classifier_biases"] = c.bias
        arrays["classifier_steps"] = c.step
        arrays["classifier_norm_in"] = np.column_stack((c.lo, c.hi))
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"model array {name!r} is not all finite")
    p = arrays.get("readout_p")
    if p is not None and not np.array_equal(p, p.T):
        raise ValueError("model array 'readout_p' is not exactly symmetric")
    lo, hi = arrays.get("classifier_norm_in", np.empty((0, 2))).T
    if np.any(lo > hi):
        raise ValueError("classifier normalization rows need lo <= hi")
    with np.errstate(over="ignore"):
        derived = (*model.maps.weights, model.maps.offset, hi - lo)
    if not all(np.isfinite(a).all() for a in derived):
        raise ValueError("model arrays overflow the input maps derived from them")
    return arrays


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
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported model format version: {version!r}")
    return header


def _array(data, name, shape):
    """Float array `name` of the given shape (None matches any positive
    size); its values are checked on the model built from it."""
    a = _member(data, name)
    if a.ndim != len(shape) or any(
        n != want if want is not None else n < 1 for n, want in zip(a.shape, shape)
    ):
        want = tuple("*" if n is None else n for n in shape)
        raise FormatError(f"model array {name!r} has shape {a.shape}, header implies {want}")
    if a.dtype.kind != "f":
        raise FormatError(f"model array {name!r} is not a float array")
    return a


def _read_extractor(data, g, cfg):
    weights = _array(data, f"extractor_{g}_weights", (cfg.node_count, cfg.subspace_dim, None))
    biases = _array(data, f"extractor_{g}_biases", (cfg.node_count,))
    return tuple(SubnetNode(weights=w, bias=float(b)) for w, b in zip(weights, biases))


def _read_classifier(data, count, cfg, classes, dim):
    """The batch readout; its eps is the config's norm_eps."""
    count = _integer(count, "model header readout node_count", 0, FormatError)
    eps = cfg.norm_eps
    if not count:
        empty = np.empty(0)
        return ClassifierModel(np.empty((0, classes, dim)), empty, empty, empty, empty, eps)
    weights = _array(data, "classifier_weights", (count, classes, dim))
    biases = _array(data, "classifier_biases", (count,))
    steps = _array(data, "classifier_steps", (count,))
    norms = _array(data, "classifier_norm_in", (count, 2))
    return ClassifierModel(weights, biases, steps, norms[:, 0], norms[:, 1], eps)


def _load(data):
    header = _header(data)
    try:
        cfg = PipelineConfig(**header["config"])
        names = header["group_names"]
        labels = header["class_labels"]
        meta = dict(header["readout"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model header is malformed: {exc!r}") from exc
    for what, value in (("group_names", names), ("class_labels", labels)):
        if not isinstance(value, list) or not value:
            raise FormatError(f"model header {what} must be a non-empty list, got {value!r}")
    classes = len(labels)
    batch = cfg.mode == "batch"
    extractors = tuple(_read_extractor(data, g, cfg) for g in range(len(names)))
    # Arrays can overflow the maps, or hold NaN; that is checked below, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        b = combine_affine(extractors, cfg.combine_spec)
        key = "node_count" if batch else "seen"
        if list(meta) != [key]:
            raise FormatError(f"model header readout holds {sorted(meta)}, not just {key!r}")
        if batch:
            readout = _read_classifier(data, meta[key], cfg, classes, len(b))
        else:
            try:
                basis, _, _ = svd(b, full_matrices=False)
            except ValueError as exc:  # numpy's LinAlgError included
                raise FormatError(f"extractor weights give no readout basis: {exc}") from exc
            p = _array(data, "readout_p", (basis.shape[1],) * 2)
            gamma = _array(data, "readout_gamma", (basis.shape[1], classes))
            seen = _integer(meta[key], "model header readout seen", 0, FormatError)
            readout = OselmState(p, gamma, seen, float(cfg.coeff), basis)
        try:
            model = HOselmModel(
                extractors=extractors,
                group_names=tuple(names),
                readout=readout,
                config=cfg,
                class_labels=tuple(labels),
            )
            _checked_arrays(model)
        except ValueError as exc:
            raise FormatError(f"model file breaks a model rule: {exc}") from exc
    return model


def load_model(path):
    """Read back a model written by save_model, in format v6.

    Every array is checked against the header before the model is built:
    presence, shape, dtype, and node and group counts.  The model built
    from them must keep the rules on values that save_model checks.  A file
    in an older format, one that fails a check, or one that is not a
    readable NPZ archive raises FormatError.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a model file: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError(f"{path}: not a model file (a bare array, not an NPZ archive)")
    with data:
        return _load(data)
