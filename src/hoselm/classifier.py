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
the combined feature itself: a wide batch fit passes its rotated
coordinates U'H instead and maps the weights back (see pipeline.fit).

For scoring, the nodes are stacked row-wise into one NodeStack: one
(nodes * classes) x D weight matrix with per-row bias, normalization and
step columns.  A score is then one matrix product for the affine half and
one vectorized sigmoid, denormalization and step-weighted sum for the
activation half.  The pipeline folds the affine half into its frozen
input maps and calls activate on the result.

The fitting functions take arrays the pipeline validated and check shapes
only.  This layer is deterministic: no randomness enters anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNodeError, ShapeError
from .kernels import (
    NormParams,
    as_matrix,
    denormalize_unit,
    logit_map,
    normalize_unit,
    ridge_inverse,
    sigmoid_map,
)

__all__ = [
    "ClassifierNode",
    "ClassifierModel",
    "NodeStack",
    "fit_node",
    "fit_classifier",
    "stack_nodes",
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
    """Ordered additive nodes plus the settings they were fitted under."""

    nodes: tuple
    coeff: float
    feature_dim: int
    class_count: int


@dataclass(frozen=True)
class NodeStack:
    """A classifier's nodes stacked row-wise for scoring all at once.

    Rows k*C .. k*C + C - 1 belong to node k (C = class_count).  weights is
    (nodes * C) x D; bias, lo, span (hi - lo), eps and step are
    (nodes * C) x 1 columns repeating each node's parameters on its rows.
    """

    weights: np.ndarray
    bias: np.ndarray
    lo: np.ndarray
    span: np.ndarray
    eps: np.ndarray
    step: np.ndarray
    class_count: int


def stack_nodes(model):
    """Stack a fitted model's nodes into a NodeStack (zero nodes: zero rows)."""
    nodes = model.nodes

    def rows(values):
        return np.repeat(np.asarray(values, dtype=np.float64), model.class_count)[:, None]

    weights = [n.weights for n in nodes] or [np.empty((0, model.feature_dim))]
    return NodeStack(
        weights=np.vstack(weights),
        bias=rows([n.bias for n in nodes]),
        lo=rows([n.norm_in.lo for n in nodes]),
        span=rows([n.norm_in.hi - n.norm_in.lo for n in nodes]),
        eps=rows([n.norm_in.eps for n in nodes]),
        step=rows([n.step for n in nodes]),
        class_count=model.class_count,
    )


def activate(stack, z):
    """Scores (classes x samples) from stacked pre-activations z.

    z = stack.weights @ h + stack.bias, however it was computed.  Each row
    goes through the sigmoid, the inverse of its node's normalization
    (a zero span maps every entry to lo, the degenerate case), and its
    node's step; the nodes' rows are then summed per class in node order.
    """
    v = stack.lo + (sigmoid_map(z) - stack.eps) * stack.span / (1.0 - stack.eps)
    return (stack.step * v).reshape(-1, stack.class_count, z.shape[1]).sum(axis=0)


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
    scaled, norm_in = normalize_unit(e_prev, eps)
    z = logit_map(scaled)
    weights = z @ h.T @ gram_inv
    pre = weights @ h
    bias = float(np.mean(z - pre))
    v = denormalize_unit(sigmoid_map(pre + bias), norm_in)
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
    early if a node degenerates (determinism would only reproduce it).
    Callers pass validated float arrays; only shapes are checked here.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
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
        nodes=tuple(nodes),
        coeff=float(coeff),
        feature_dim=h.shape[0],
        class_count=targets.shape[0],
    )


def score(model, h):
    """Sum of step-weighted node activations; zero nodes give zero scores."""
    hm = as_matrix(h, "combined features")
    if hm.shape[0] != model.feature_dim:
        raise ShapeError(
            f"features have {hm.shape[0]} rows, model expects {model.feature_dim}"
        )
    stack = stack_nodes(model)
    return activate(stack, stack.weights @ hm + stack.bias)


def decode_labels(scores):
    """Per-column argmax; ties resolve to the lowest class index.

    scores come from a scoring call that validated its inputs, so only the
    layout is checked here.
    """
    sm = np.asarray(scores)
    if sm.ndim != 2 or sm.size == 0:
        raise ShapeError(f"scores must be a non-empty 2-D array, got shape {sm.shape}")
    return np.argmax(sm, axis=0)
