"""Dataset plumbing: CSV ingestion, labels, splitting, synthetic clusters.

Files are headerless numeric CSV, one sample per row, features first and
the class label in a designated column.  In memory everything is
samples-as-columns, matching the rest of the package.
"""

import csv
import numbers

import numpy as np

from .errors import FormatError, ParseError, ShapeError
from .kernels import _integer
from .pipeline import FeatureGroup

__all__ = [
    "load_csv",
    "write_csv",
    "one_hot",
    "split",
    "synth_blobs",
]


def _parse_cell(text, row, col):
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column {col}: {text!r} is not a number"
        ) from None


def load_csv(path, group_ranges=None, label_col=-1):
    """Read a numeric CSV into feature groups and an integer label vector.

    group_ranges is a list of half-open (start, stop) column ranges, one
    FeatureGroup per range; None means a single group of every non-label
    column.  Row order is preserved as column order.  label_col=None reads
    a label-free file and returns labels as None.
    """
    rows = []
    with open(path, newline="") as fh:
        for r, record in enumerate(csv.reader(fh)):
            if not record:
                continue
            rows.append([_parse_cell(cell.strip(), r, c) for c, cell in enumerate(record)])
    if not rows:
        raise FormatError(f"{path}: no data rows")
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise FormatError(f"{path}: ragged rows, widths {sorted(widths)}")
    table = np.array(rows)
    width = table.shape[1]
    if label_col is None:
        labels, label_cols = None, set()
    else:
        label_col = _integer(label_col, "label_col", -width)
        if label_col >= width:
            raise ValueError(f"label column {label_col} is out of range for width {width}")
        label_col = label_col % width
        label_cols = {label_col}
        raw_labels = table[:, label_col]
        labels = raw_labels.astype(int)
        if not np.array_equal(labels, raw_labels):
            raise ParseError(f"label column {label_col} holds non-integer values")
    if group_ranges is None:
        feature_cols = [c for c in range(width) if c not in label_cols]
        return [FeatureGroup(x=table[:, feature_cols].T, name="features")], labels
    seen = set()
    groups = []
    for start, stop in group_ranges:
        start = _integer(start, "group_ranges start", 0)
        stop = _integer(stop, "group_ranges stop", start + 1)
        if stop > width:
            raise ValueError(f"range ({start}, {stop}) out of bounds for width {width}")
        span = set(range(start, stop))
        if span & label_cols:
            raise ValueError(f"range ({start}, {stop}) overlaps the label column")
        if span & seen:
            raise ValueError(f"range ({start}, {stop}) overlaps another group")
        seen |= span
        groups.append(FeatureGroup(x=table[:, start:stop].T, name=f"cols{start}-{stop}"))
    return groups, labels


def write_csv(path, groups, labels):
    """Write feature groups plus labels as one sample per row.

    Group columns appear in group order; the label is the last column.
    Floats are written with repr, so a written file reads back exactly.
    Every group needs one column per label (ShapeError otherwise), and the
    labels must be integer-valued (ValueError otherwise, as in one_hot).
    """
    if isinstance(groups, FeatureGroup):
        groups = [groups]
    mats = [np.asarray(g.x) for g in groups]
    labels = _integer_labels(labels)
    widths = [m.shape[1] for m in mats]
    if any(w != labels.size for w in widths):
        raise ShapeError(f"groups have {widths} columns for {labels.size} labels")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for j in range(labels.size):
            row = [repr(float(v)) for m in mats for v in m[:, j]]
            writer.writerow(row + [int(labels[j])])


def one_hot(labels, class_count):
    """Indicator targets: column i is the unit vector of labels[i].

    Labels must be integer-valued (ValueError otherwise); 1.0 is class 1,
    but 1.7 is not truncated to it.
    """
    labels = _integer_labels(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError(
            f"labels must lie in [0, {class_count}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    targets = np.zeros((class_count, labels.size))
    targets[labels.astype(int), np.arange(labels.size)] = 1.0
    return targets


def _integer_labels(labels):
    """labels as an array, or ValueError unless every one is integer-valued."""
    labels = np.asarray(labels)
    fractional = ~(np.isfinite(labels) & (labels == np.round(labels)))
    if fractional.any():
        raise ValueError(f"labels must be integer-valued, got {labels[fractional][:5]}")
    return labels


def _take(groups, labels, order):
    picked = [FeatureGroup(x=g.x[:, order], name=g.name) for g in groups]
    return picked, labels[order]


def split(groups, labels, train_size, seed=0, stratified=False):
    """Partition samples into disjoint train/test sets, deterministically.

    train_size is either a fraction in (0, 1) or an integer per-class train
    count (the latter is inherently stratified).  Both partitions come back
    in shuffled order, so a sequential consumer sees class-mixed chunks.
    """
    if isinstance(groups, FeatureGroup):
        groups = [groups]
    labels = np.asarray(labels, dtype=int)
    total = labels.size
    rng = np.random.default_rng(seed)
    per_class = fraction = None
    if isinstance(train_size, numbers.Integral):
        per_class = _integer(train_size, "train_size", 1)
    elif isinstance(train_size, numbers.Real) and 0 < train_size < 1:
        fraction = float(train_size)
    else:
        raise ValueError(f"train_size is neither in (0, 1) nor a positive integer: {train_size!r}")
    if per_class or stratified:
        train_idx = []
        for k in np.unique(labels):
            members = np.flatnonzero(labels == k)
            count = per_class or int(round(fraction * members.size))
            if count > members.size:
                raise ValueError(
                    f"class {k} has only {members.size} samples, "
                    f"cannot reserve {count} for training"
                )
            train_idx.append(rng.permutation(members)[:count])
        train_idx = np.concatenate(train_idx)
    else:
        train_idx = rng.permutation(total)[: int(round(fraction * total))]
    mask = np.zeros(total, dtype=bool)
    mask[train_idx] = True
    test_idx = np.flatnonzero(~mask)
    train_order = rng.permutation(np.sort(train_idx))
    test_order = rng.permutation(test_idx)
    return _take(groups, labels, train_order), _take(groups, labels, test_order)


def synth_blobs(classes, per_class, dim, spread, seed=0):
    """Gaussian clusters with class means on unit basis vectors.

    Needs dim >= classes so every class gets its own axis; spread is the
    per-coordinate standard deviation.  Sample order is shuffled.
    """
    classes = _integer(classes, "classes", 1)
    per_class = _integer(per_class, "per_class", 1)
    dim = _integer(dim, "dim", 1)
    if not 0 < spread < np.inf:
        raise ValueError(f"spread must be positive and finite, got {spread}")
    if dim < classes:
        raise ValueError(f"dim must be >= classes, got dim {dim} < {classes}")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    rng.shuffle(labels)
    # x = means[:, labels] + spread * noise, built in the noise array: the
    # class means are added in place, so only one dim x samples array is
    # allocated.
    x = rng.standard_normal((dim, labels.size))
    x *= spread
    x[labels, np.arange(labels.size)] += 1.0
    return FeatureGroup(x=x, name="synth"), labels
