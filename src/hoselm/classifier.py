"""Greedy residual-deflation classifier over combined features.

The readout is built additively: each node pulls the current residual back
through a logit (after normalizing it into the logit's domain), ridge-solves
those logits against the features, and pushes the fitted activation back to
the residual's scale.  The node then removes the best multiple of that
activation from the residual.  Because the step size is the exact 1-D
least-squares minimizer, the residual norm never increases, and the model's
score plus the final residual reconstructs the training targets exactly.
The ridge inverse (I/c + H H')^-1 depends only on the features, so the
caller hands it to a fit and every node reuses it.  Nothing here needs H
to be the combined feature itself: a batch fit passes its rotated
coordinates U'H, whose ridge inverse is a diagonal it read off an SVD, and
maps the weights back (see pipeline.fit).

A fitted model holds its nodes stacked: one nodes x classes x D weight
array, one bias, step and normalization range per node, and the eps every
node's normalization shares; fit_node returns a one-node model.  A score
is one matrix product for the affine half, then activate: one sigmoid, and
each node's denormalization and step folded into one scale per node and
one offset.  Fit and serve share it; the pipeline folds the affine half
into its frozen input maps.

The fitting functions take arrays the pipeline validated and check shapes
only; every matrix they normalize or map is one they built, so they call
the kernels' unchecked cores and scan nothing.  This layer is
deterministic: no randomness enters anywhere.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateNodeError, ShapeError
from .kernels import as_matrix, sigmoid_map
from .kernels import ridge_inverse  # noqa: F401  (wrapped by perfbench/tracing.py)

# The fit builds every matrix it normalizes or maps, so it calls the
# kernels' unchecked cores.
from .kernels import _logit_map, _normalize_unit

__all__ = [
    "ClassifierModel",
    "fit_node",
    "fit_classifier",
    "activate",
    "score",
    "decode_labels",
]


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted nodes, stacked in node order.

    weights is nodes x classes x D; bias, step, lo and hi hold one value
    per node, lo and hi being the range of the residual the node was fitted
    on (lo == hi marks the degenerate case); eps is the lower target of
    every node's normalization.
    """

    weights: np.ndarray
    bias: np.ndarray
    step: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    eps: float

    @property
    def class_count(self):
        return self.weights.shape[1]

    @property
    def feature_dim(self):
        return self.weights.shape[2]

    @cached_property
    def _folded(self):
        """activate's scale a and offset c; derived once, never stored."""
        a = self.step * (self.hi - self.lo) / (1.0 - self.eps)
        return a, float(np.sum(self.step * self.lo - a * self.eps))


def activate(model, z):
    """Scores (classes x samples) from stacked pre-activations z.

    z = weights @ h + bias per node, however it was computed, with node k's
    rows at k*C .. k*C + C - 1 (C = class_count).  Node k adds its sigmoid
    s_k denormalized and stepped, step_k (lo_k + (s_k - eps)(hi_k - lo_k) /
    (1 - eps)) = a_k s_k + step_k lo_k - a_k eps; the score is sum_k a_k s_k
    plus those constants summed into one offset c.  hi == lo gives a_k = 0.
    """
    classes, cols = model.class_count, z.shape[-1]
    a, c = model._folded
    return (a @ sigmoid_map(z).reshape(len(a), classes * cols)).reshape(classes, cols) + c


def fit_node(h, e_prev, gram_inv, eps=1e-4):
    """Fit one node against the current residual; return (node, next residual).

    The residual is normalized into (0, 1], pulled back through the logit,
    and ridge-solved against the features h (D x M) through gram_inv =
    (I/c + h h')^-1, the ridge inverse shared by every node of a fit.  The
    scalar bias centers the fit.  The node is a one-node ClassifierModel;
    its activation, activate at a step of 1, is removed from the residual
    with the least-squares step size, which becomes the node's step.

    Callers pass validated float arrays; only shapes are checked here.

    Raises DegenerateNodeError when the rescaled activation is identically
    zero (constant residual normalizing to a zero range), since no step can
    make progress; this layer is deterministic, so retrying cannot help.
    """
    rows, cols = h.shape
    if e_prev.shape[1] != cols:
        raise ShapeError(f"sample counts differ: features {cols}, residual {e_prev.shape[1]}")
    if gram_inv.shape != (rows, rows):
        raise ShapeError(f"ridge inverse shape {gram_inv.shape}, features have {rows} rows")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    scaled, lo, hi = _normalize_unit(e_prev, eps)
    z = _logit_map(scaled)
    weights = z @ h.T @ gram_inv
    pre = weights @ h
    bias = float(np.mean(z - pre))
    node = ClassifierModel(
        weights=weights[None],
        bias=np.array([bias]),
        step=np.ones(1),
        lo=np.array([lo]),
        hi=np.array([hi]),
        eps=float(eps),
    )
    v = activate(node, pre + bias)
    v_sq = float(np.sum(v * v))
    if v_sq == 0.0:
        raise DegenerateNodeError("node activation is identically zero")
    step = float(np.sum(e_prev * v) / v_sq)
    return replace(node, step=np.array([step])), e_prev - step * v


def fit_classifier(h, targets, node_count, gram_inv, eps=1e-4):
    """Fit up to node_count nodes greedily, threading the residual.

    gram_inv = (I/c + h h')^-1 is the caller's, shared by every node as in
    fit_node.  Starts from the targets themselves and deflates; stops early
    if a node degenerates (determinism would only reproduce it), then
    joins the one-node models once.  Callers pass validated float arrays;
    only shapes are checked here.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    e = targets
    nodes = []
    for _ in range(node_count):
        try:
            node, e = fit_node(h, e, gram_inv, eps)
        except DegenerateNodeError:
            break
        nodes.append(node)
    arrays = {
        name: np.array([getattr(n, name)[0] for n in nodes])
        for name in ("weights", "bias", "step", "lo", "hi")
    }
    arrays["weights"] = arrays["weights"].reshape(len(nodes), len(targets), len(h))
    return ClassifierModel(**arrays, eps=float(eps))


def score(model, h):
    """Sum of step-weighted node activations; zero nodes give zero scores."""
    hm = as_matrix(h, "combined features")
    if hm.shape[0] != model.feature_dim:
        raise ShapeError(
            f"features have {hm.shape[0]} rows, model expects {model.feature_dim}"
        )
    return activate(model, model.weights @ hm + model.bias[:, None, None])


def decode_labels(scores):
    """Per-column argmax; ties resolve to the lowest class index.

    scores come from a scoring call that validated its inputs, so only the
    layout is checked here.
    """
    sm = np.asarray(scores)
    if sm.ndim != 2 or sm.size == 0:
        raise ShapeError(f"scores must be a non-empty 2-D array, got shape {sm.shape}")
    return sm.argmax(axis=0)
