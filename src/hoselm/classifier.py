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

This layer is deterministic: no randomness enters anywhere.
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
    "fit_node",
    "fit_classifier",
    "score",
    "decode_labels",
]


@dataclass(frozen=True)
class ClassifierNode:
    """One additive node: affine map, sigmoid, rescale, weighted step.

    norm_in records the normalization applied to the residual the node was
    fitted on; norm_out is the map inverted on the node's activation (the
    same parameters, so the activation lands on the residual's scale).
    step scales the activation's contribution to the score.
    """

    weights: np.ndarray
    bias: float
    step: float
    norm_in: NormParams
    norm_out: NormParams


@dataclass(frozen=True)
class ClassifierModel:
    """Ordered additive nodes plus the settings they were fitted under."""

    nodes: tuple
    coeff: float
    feature_dim: int
    class_count: int


def _node_activation(weights, bias, h, norm_out):
    return denormalize_unit(sigmoid_map(weights @ h + bias), norm_out)


def fit_node(h, e_prev, gram_inv, eps=1e-4):
    """Fit one node against the current residual; return (node, next residual).

    The residual is normalized into (0, 1], pulled back through the logit,
    and ridge-solved against the features through gram_inv, the
    ridge_inverse(h @ h.T, coeff) shared by every node of a fit; the scalar
    bias centers the fit.
    The sigmoid activation is rescaled to the residual's range and removed
    from the residual with the least-squares step size.

    Raises DegenerateNodeError when the rescaled activation is identically
    zero (constant residual normalizing to a zero range), since no step can
    make progress; this layer is deterministic, so retrying cannot help.
    """
    hm = as_matrix(h, "combined features")
    em = as_matrix(e_prev, "residual")
    if hm.shape[1] != em.shape[1]:
        raise ShapeError(
            f"sample counts differ: features {hm.shape[1]}, residual {em.shape[1]}"
        )
    if gram_inv.shape != (hm.shape[0], hm.shape[0]):
        raise ShapeError(
            f"ridge inverse shape {gram_inv.shape} does not match {hm.shape[0]} feature rows"
        )
    scaled, norm_in = normalize_unit(em, eps)
    z = logit_map(scaled)
    weights = z @ hm.T @ gram_inv
    bias = float(np.mean(z - weights @ hm))
    v = _node_activation(weights, bias, hm, norm_in)
    v_sq = float(np.sum(v * v))
    if v_sq == 0.0:
        raise DegenerateNodeError("node activation is identically zero")
    step = float(np.sum(em * v) / v_sq)
    node = ClassifierNode(
        weights=weights, bias=bias, step=step, norm_in=norm_in, norm_out=norm_in
    )
    return node, em - step * v


def fit_classifier(h, targets, node_count, coeff, eps=1e-4):
    """Fit up to node_count nodes greedily, threading the residual.

    Starts from the targets themselves and deflates; stops early if a node
    degenerates (determinism would only reproduce it).
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    hm = as_matrix(h, "combined features")
    tm = as_matrix(targets, "targets")
    gram_inv = ridge_inverse(hm @ hm.T, coeff)
    e = tm
    nodes = []
    for _ in range(node_count):
        try:
            node, e = fit_node(hm, e, gram_inv, eps)
        except DegenerateNodeError:
            break
        nodes.append(node)
    return ClassifierModel(
        nodes=tuple(nodes),
        coeff=float(coeff),
        feature_dim=hm.shape[0],
        class_count=tm.shape[0],
    )


def score(model, h):
    """Sum of step-weighted node activations; zero nodes give zero scores."""
    hm = as_matrix(h, "combined features")
    if hm.shape[0] != model.feature_dim:
        raise ShapeError(
            f"features have {hm.shape[0]} rows, model expects {model.feature_dim}"
        )
    out = np.zeros((model.class_count, hm.shape[1]))
    for node in model.nodes:
        out += node.step * _node_activation(node.weights, node.bias, hm, node.norm_out)
    return out


def decode_labels(scores):
    """Per-column argmax; ties resolve to the lowest class index."""
    sm = as_matrix(scores, "scores")
    return np.argmax(sm, axis=0)
