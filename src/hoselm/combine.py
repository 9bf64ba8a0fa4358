"""Merging subspace features into one combined feature matrix.

Two operators: "plus" folds the features elementwise, weighting every
operand after the first by gamma (so gamma=1 is a plain sum); "concat"
stacks them row-wise, which permits features of different widths.  Neither
touches the sample axis.  The features arrive validated (the pipeline checked
the groups they were built from), so only their shapes are checked here.

Both operators are linear and extractor nodes are affine, so combine_affine
applies the same rule to the nodes' coefficients: combine(features, spec) ==
B [x_1; ...; x_G; 1].  No other module writes the rule.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import as_matrix  # noqa: F401  (wrapped by perfbench/tracing.py)

__all__ = ["CombineSpec", "combine", "combine_affine"]

_OPERATORS = ("plus", "concat")

# Entries per block of gamma * M_i that plus adds into its result (512 KB).
_PLUS_BLOCK = 1 << 16


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


def _merge(mats, spec):
    """plus -> M1 + gamma*M2 + ...; concat -> row stack.

    Only the result is allocated in full: plus adds gamma * M_i into a copy
    of M1 one block of about _PLUS_BLOCK entries (whole rows) at a time, so
    its only temporary is one block, and every entry is the one the full
    expression gives.
    """
    if spec.operator == "plus":
        shapes = {m.shape for m in mats}
        if len(shapes) > 1:
            raise ShapeError(f"plus needs equal shapes, got {sorted(shapes)}")
        out = mats[0].copy()
        step = max(1, _PLUS_BLOCK // max(1, out.shape[1]))
        for m in mats[1:]:
            for lo in range(0, out.shape[0], step):
                out[lo : lo + step] += spec.gamma * m[lo : lo + step]
        return out
    return np.vstack(mats)


def combine(features, spec):
    """Merge features: plus -> F1 + gamma*F2 + ...; concat -> row stack.
    Either way the merged d x M matrix is the only sample-sized array
    allocated."""
    return _merge(_checked(features), spec)


def combine_affine(layers, spec):
    """The D x k coefficient B of the combined feature of affine layers.

    layers holds one sequence of extractor nodes per feature group.  Each
    node is written as the d x k block [0 ... W ... 0, b] on the stacked
    inputs (k = sum of group widths + 1) and the blocks are merged like
    features, so B [x_1; ...; x_G; 1] == combine([project(n, x_g) ...], spec).
    """
    starts = np.cumsum([0] + [nodes[0].input_dim for nodes in layers])
    blocks = []
    for g, nodes in enumerate(layers):
        for n in nodes:
            block = np.zeros((n.subspace_dim, starts[-1] + 1))
            block[:, starts[g] : starts[g + 1]] = n.weights
            block[:, -1] = n.bias
            blocks.append(block)
    return _merge(blocks, spec)
