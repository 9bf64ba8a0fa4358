"""Greedy residual-deflation classifier over combined features.

The readout is built additively: each node pulls the current residual back
through a logit (after normalizing it into the logit's domain), ridge-solves
those logits against the features, and pushes the fitted activation back to
the residual's scale.  The node then removes the best multiple of that
activation from the residual.  Because the step size is the exact 1-D
least-squares minimizer, the residual norm never increases, and the model's
score plus the final residual reconstructs the training targets exactly.
The ridge inverse (I/c + H H')^-1 depends only on the features, so a fit
computes it once and every node reuses it.  Nothing here needs H to be
the combined feature itself: a batch fit passes its rotated coordinates
U'H instead and maps the weights back (see pipeline.fit).

A fitted model holds its nodes stacked: one nodes x classes x D weight
array, one bias, step and normalization range per node, and the eps every
node's normalization shares.  A score is then one matrix product for the
affine half and one broadcast sigmoid, denormalization and step-weighted
sum for the activation half.  The pipeline folds the affine half into its
frozen input maps and calls activate on the result.

The fitting functions take arrays the pipeline validated and check shapes
only; every matrix they normalize, map or invert is one they built, so they
call the kernels' unchecked cores and scan nothing.  This layer is
deterministic: no randomness enters anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNodeError, ShapeError
from .kernels import NormParams, as_matrix, sigmoid_map

# The fit builds every matrix it normalizes, maps or inverts, so it calls the
# kernels' unchecked cores.  The ridge inverse keeps the name
# perfbench/tracing.py wraps.
from .kernels import _denormalize_unit, _logit_map, _normalize_unit
from .kernels import _ridge_inverse as ridge_inverse

__all__ = [
    "ClassifierNode",
    "ClassifierModel",
    "fit_node",
    "fit_classifier",
    "activate",
    "score",
    "decode_labels",
]


@dataclass(frozen=True)
class ClassifierNode:
    """One additive node: affine map, sigmoid, rescale, weighted step.

    norm_in records the normalization applied to the residual the node was
    fitted on; its inverse maps the node's activation back to the
    residual's scale.  step scales the activation's contribution to the
    score.
    """

    weights: np.ndarray
    bias: float
    step: float
    norm_in: NormParams


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


def activate(model, z):
    """Scores (classes x samples) from stacked pre-activations z.

    z = weights @ h + bias per node, however it was computed, with node k's
    rows at k*C .. k*C + C - 1 (C = class_count).  Each node's rows go
    through the sigmoid, the inverse of its normalization (a zero span
    maps every entry to lo, the degenerate case) and its step; the nodes
    are then summed per class in node order.
    """
    z = z.reshape(len(model.step), model.class_count, z.shape[-1])
    lo, hi, step = (a[:, None, None] for a in (model.lo, model.hi, model.step))
    v = lo + (sigmoid_map(z) - model.eps) * (hi - lo) / (1.0 - model.eps)
    return (step * v).sum(axis=0)


def fit_node(h, e_prev, gram_inv, eps=1e-4):
    """Fit one node against the current residual; return (node, next residual).

    The residual is normalized into (0, 1], pulled back through the logit,
    and ridge-solved against the features h (D x M) through gram_inv =
    (I/c + h h')^-1, the ridge inverse shared by every node of a fit.  The
    scalar bias centers the fit.  The sigmoid activation is rescaled to the
    residual's range and removed from the residual with the least-squares
    step size.

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
    scaled, norm_in = _normalize_unit(e_prev, eps)
    z = _logit_map(scaled)
    weights = z @ h.T @ gram_inv
    pre = weights @ h
    bias = float(np.mean(z - pre))
    v = _denormalize_unit(sigmoid_map(pre + bias), norm_in)
    v_sq = float(np.sum(v * v))
    if v_sq == 0.0:
        raise DegenerateNodeError("node activation is identically zero")
    step = float(np.sum(e_prev * v) / v_sq)
    node = ClassifierNode(weights=weights, bias=bias, step=step, norm_in=norm_in)
    return node, e_prev - step * v


def fit_classifier(h, targets, node_count, coeff, eps=1e-4):
    """Fit up to node_count nodes greedily, threading the residual.

    The ridge inverse of the D x D Gram h h' is taken once and shared by
    every node.  Starts from the targets themselves and deflates; stops
    early if a node degenerates (determinism would only reproduce it), then
    stacks the fitted nodes once.  Callers pass validated float arrays;
    only shapes are checked here.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    if coeff <= 0:
        raise ValueError(f"ridge coefficient must be positive, got {coeff}")
    gram_inv = ridge_inverse(h @ h.T, coeff)
    e = targets
    nodes = []
    for _ in range(node_count):
        try:
            node, e = fit_node(h, e, gram_inv, eps)
        except DegenerateNodeError:
            break
        nodes.append(node)
    return ClassifierModel(
        weights=np.array([n.weights for n in nodes]).reshape(len(nodes), len(targets), len(h)),
        bias=np.array([n.bias for n in nodes]),
        step=np.array([n.step for n in nodes]),
        lo=np.array([n.norm_in.lo for n in nodes]),
        hi=np.array([n.norm_in.hi for n in nodes]),
        eps=float(eps),
    )


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
    return np.argmax(sm, axis=0)
