"""Greedy residual-deflation classifier over combined features.

The readout is built additively: each node pulls the current residual back
through a logit (after normalizing it into the logit's domain), ridge-solves
those logits against the features, and pushes the fitted activation back to
the residual's scale.  The node then removes the best multiple of that
activation from the residual.  Because the step size is the exact 1-D
least-squares minimizer, the residual norm never increases, and the model's
score plus the final residual reconstructs the training targets exactly.
The ridge inverse (I/c + H H')^-1 depends only on the features, so a fit
computes it once and every node reuses it.

The features may also be given factored, H = C Q' with Q an M x k matrix
of orthonormal columns and k < D.  The ridge solve then moves to the k x k
side through the push-through identity H'(I/c + H H')^-1 = Q (I/c + C'C)^-1 C'
(the Gram inverted is the smaller of C C' and C'C), and each node meets H
only through products with C and Q.  The pipeline fits a batch readout
this way when the combined feature is wider than its inputs (see
pipeline.fit), with a C of orthogonal columns, so that C'C is diagonal up
to rounding and its inverse stays accurate.  Node weights are classes x D
either way.

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


def fit_node(h, e_prev, gram_inv, eps=1e-4, basis=None):
    """Fit one node against the current residual; return (node, next residual).

    The features are h (D x M) when basis is None, and h @ basis.T
    otherwise, with basis an M x k matrix of orthonormal columns (see
    fit_classifier).  The residual is normalized into (0, 1], pulled back
    through the logit, and ridge-solved against the features through
    gram_inv, the ridge inverse shared by every node of a fit; its shape
    says which Gram it inverts: (I/c + h h')^-1 when it has h's row count,
    else (I/c + h'h)^-1, applied through the push-through identity
    h'(I/c + h h')^-1 = (I/c + h'h)^-1 h'.  The scalar bias centers the fit.
    The sigmoid activation is rescaled to the residual's range and removed
    from the residual with the least-squares step size.

    Callers pass validated float arrays; only shapes are checked here.

    Raises DegenerateNodeError when the rescaled activation is identically
    zero (constant residual normalizing to a zero range), since no step can
    make progress; this layer is deterministic, so retrying cannot help.
    """
    rows, cols = h.shape
    if basis is not None and basis.shape[1] != cols:
        raise ShapeError(f"basis has {basis.shape[1]} columns, features have {cols}")
    samples = cols if basis is None else basis.shape[0]
    if e_prev.shape[1] != samples:
        raise ShapeError(
            f"sample counts differ: features {samples}, residual {e_prev.shape[1]}"
        )
    if gram_inv.shape not in ((rows, rows), (cols, cols)):
        raise ShapeError(
            f"ridge inverse shape {gram_inv.shape} matches neither {rows} nor {cols}"
        )
    scaled, norm_in = normalize_unit(e_prev, eps)
    z = logit_map(scaled)
    zq = z if basis is None else z @ basis
    if gram_inv.shape[0] == rows:
        weights = zq @ h.T @ gram_inv
    else:
        weights = zq @ gram_inv @ h.T
    pre = weights @ h
    if basis is not None:
        pre = pre @ basis.T
    bias = float(np.mean(z - pre))
    v = denormalize_unit(sigmoid_map(pre + bias), norm_in)
    v_sq = float(np.sum(v * v))
    if v_sq == 0.0:
        raise DegenerateNodeError("node activation is identically zero")
    step = float(np.sum(e_prev * v) / v_sq)
    node = ClassifierNode(weights=weights, bias=bias, step=step, norm_in=norm_in)
    return node, e_prev - step * v


def fit_classifier(h, targets, node_count, coeff, eps=1e-4, basis=None):
    """Fit up to node_count nodes greedily, threading the residual.

    The features are h (D x M) when basis is None.  Otherwise they are
    h @ basis.T, given as a D x k factor h and an M x k basis with
    orthonormal columns; the features are never formed.  The ridge inverse
    is taken once, of the smaller Gram: h h' (D x D) when h has at most as
    many rows as columns, else h'h.  Either way the node weights are
    classes x D.

    Starts from the targets themselves and deflates; stops early if a node
    degenerates (determinism would only reproduce it).  Callers pass
    validated float arrays; only shapes are checked here.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    rows, cols = h.shape
    gram_inv = ridge_inverse(h @ h.T if rows <= cols else h.T @ h, coeff)
    e = targets
    nodes = []
    for _ in range(node_count):
        try:
            node, e = fit_node(h, e, gram_inv, eps, basis)
        except DegenerateNodeError:
            break
        nodes.append(node)
    return ClassifierModel(
        nodes=tuple(nodes),
        coeff=float(coeff),
        feature_dim=rows,
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
