"""Merging subspace features into one combined feature matrix.

Two operators: "plus" folds the features elementwise, weighting every
operand after the first by gamma (so gamma=1 is a plain sum); "concat"
stacks them row-wise, which permits features of different widths.  Neither
touches the sample axis.  The features arrive validated (the pipeline checked
the groups they were built from), so only their shapes are checked here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import as_matrix  # noqa: F401  (wrapped by perfbench/tracing.py)

__all__ = ["CombineSpec", "combine", "combined_dim"]

_OPERATORS = ("plus", "concat")


@dataclass(frozen=True)
class CombineSpec:
    operator: str = "plus"
    gamma: float = 1.0

    def __post_init__(self):
        if self.operator not in _OPERATORS:
            raise ValueError(
                f"operator must be one of {_OPERATORS}, got {self.operator!r}"
            )
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")


def _checked(features):
    """Callers pass validated float arrays; only shapes are checked here."""
    if not features:
        raise ValueError("feature list is empty")
    cols = {f.shape[1] for f in features}
    if len(cols) > 1:
        raise ShapeError(f"features disagree on sample count: {sorted(cols)}")
    return features


def combine(features, spec):
    """Merge features: plus -> F1 + gamma*F2 + ...; concat -> row stack."""
    mats = _checked(features)
    if spec.operator == "plus":
        shapes = {m.shape for m in mats}
        if len(shapes) > 1:
            raise ShapeError(f"plus needs equal shapes, got {sorted(shapes)}")
        out = mats[0].copy()
        for m in mats[1:]:
            out += spec.gamma * m
        return out
    return np.vstack(mats)


def combined_dim(features, spec):
    """Row count of combine(features, spec) without materializing it."""
    mats = _checked(features)
    if spec.operator == "plus":
        rows = {m.shape[0] for m in mats}
        if len(rows) > 1:
            raise ShapeError(f"plus needs equal row counts, got {sorted(rows)}")
        return mats[0].shape[0]
    return sum(m.shape[0] for m in mats)
