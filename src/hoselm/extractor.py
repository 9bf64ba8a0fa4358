"""Subspace feature extraction via error-feedback-refined random projections.

Each extractor node is a small linear projection (weights, scalar bias) that
maps inputs into a d-dimensional subspace.  A node starts random and is
refined exactly once: fit a least-squares readout from its subspace features
to the targets, pull the readout residual back through the readout's
pseudoinverse, renormalize that feedback into (0, 1], and re-solve the
projection against the feedback target with a damped update.  A layer of L
such nodes yields L subspace features of identical shape d x M, ready for
elementwise combination.

The node-independent work is done once per layer.  Every node's feature is
h = [W, b] [x; 1], so one thin QR [x; 1]' = Q R of the group's inputs
factors every node's readout: pinv(h) = Q pinv([W, b] R'), a d x (n+1)
pseudoinverse in place of the d x M one, with the same singular values and
the same cutoff.  Likewise pinv(X X') is taken once per layer and shared by
every node's refinement.

Everything here is deterministic given the config seed and free of shared
state, so layers may be built concurrently.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr_multiply

from .errors import ShapeError
from .kernels import as_matrix, mse, normalize_unit, pinv

__all__ = [
    "SubnetNode",
    "LsReadout",
    "ExtractorConfig",
    "spawn_node",
    "project",
    "factor_inputs",
    "ls_readout",
    "residual",
    "error_feedback",
    "refine_node",
    "extract_features",
]


@dataclass(frozen=True)
class SubnetNode:
    """One extractor node: projection weights (d x n) and a scalar bias."""

    weights: np.ndarray
    bias: float

    @property
    def subspace_dim(self):
        return self.weights.shape[0]

    @property
    def input_dim(self):
        return self.weights.shape[1]


@dataclass(frozen=True)
class LsReadout:
    """Least-squares readout from a subspace feature to the targets.

    weights is t x d; bias is the root-mean-square of the unbiased fit
    residual, added as a scalar offset when the readout is evaluated.
    """

    weights: np.ndarray
    bias: float


@dataclass(frozen=True)
class ExtractorConfig:
    """Layer settings: node_count nodes of subspace_dim neurons each.

    damping controls how far the refined projection extrapolates past the
    least-squares solution; norm_eps is the lower edge of the (0, 1]
    normalization used on feedback targets.
    """

    node_count: int
    subspace_dim: int
    damping: float = 0.5
    norm_eps: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.node_count < 1 or self.subspace_dim < 1:
            raise ValueError(
                f"node_count and subspace_dim must be >= 1, got "
                f"{self.node_count} and {self.subspace_dim}"
            )
        if self.damping < 0:
            raise ValueError(f"damping must be >= 0, got {self.damping}")


def spawn_node(input_dim, subspace_dim, seed):
    """Draw a fresh node with i.i.d. uniform [-1, 1] weights and bias."""
    if input_dim < 1 or subspace_dim < 1:
        raise ValueError(
            f"dimensions must be >= 1, got input {input_dim}, subspace {subspace_dim}"
        )
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(subspace_dim, input_dim))
    bias = float(rng.uniform(-1.0, 1.0))
    return SubnetNode(weights=weights, bias=bias)


def project(node, x):
    """Subspace feature weights @ X + bias; linear, no activation."""
    xm = as_matrix(x, "inputs")
    if xm.shape[0] != node.input_dim:
        raise ShapeError(
            f"inputs have {xm.shape[0]} rows, node expects {node.input_dim}"
        )
    return node.weights @ xm + node.bias


def factor_inputs(x, targets):
    """Factor a group's inputs once for every node's readout.

    Takes the thin QR [x; 1]' = Q R and returns (T Q, R); Q itself is never
    built.  T Q is t x k and R is k x (n+1), with k = min(M, n+1).
    """
    xm = as_matrix(x, "inputs")
    tm = as_matrix(targets, "targets")
    if xm.shape[1] != tm.shape[1]:
        raise ShapeError(
            f"sample counts differ: inputs {xm.shape[1]}, targets {tm.shape[1]}"
        )
    # The transpose of a C-ordered stack is Fortran-ordered, so LAPACK can
    # factor it in place without another M-sized copy.
    augmented = np.vstack((xm, np.ones((1, xm.shape[1])))).T
    return qr_multiply(augmented, tm, mode="right", overwrite_a=True)


def ls_readout(node, h, targets, factor):
    """Minimum-norm least-squares readout weights = Y @ pinv(h).

    h = project(node, x), and factor = factor_inputs(x, targets) = (T Q, R).
    Since h = [W, b] R' Q' and Q has orthonormal columns,
    Y pinv(h) = (T Q) pinv([W, b] R'): the pseudoinverse is taken in
    (n+1)-space, with the cutoff the d x M one would use.  The bias records
    the root-mean-square of the unbiased residual.
    """
    hm = as_matrix(h, "subspace feature")
    tm = as_matrix(targets, "targets")
    tq, r = factor
    if hm.shape[1] != tm.shape[1]:
        raise ShapeError(
            f"sample counts differ: feature {hm.shape[1]}, targets {tm.shape[1]}"
        )
    if r.shape[1] != node.input_dim + 1 or tq.shape != (tm.shape[0], r.shape[0]):
        raise ShapeError(
            f"factor shapes {tq.shape} and {r.shape} do not match the node's "
            f"{node.input_dim} inputs and the {tm.shape[0]} target rows"
        )
    coeffs = np.column_stack((node.weights, np.full(node.subspace_dim, node.bias))) @ r.T
    weights = tq @ pinv(coeffs, rcond=np.finfo(np.float64).eps * max(hm.shape))
    bias = float(np.sqrt(mse(weights @ hm - tm)))
    return LsReadout(weights=weights, bias=bias)


def residual(h, readout, targets):
    """Readout error e = Y - (weights @ h + bias)."""
    hm = as_matrix(h, "subspace feature")
    tm = as_matrix(targets, "targets")
    pred = readout.weights @ hm + readout.bias
    if pred.shape != tm.shape:
        raise ShapeError(
            f"readout output shape {pred.shape} does not match targets {tm.shape}"
        )
    return tm - pred


def error_feedback(e, readout, h, norm_eps):
    """Feedback target: residual pulled back into the subspace, renormalized.

    pinv(readout.weights) @ e lands in the subspace (d x M); adding the
    current feature and renormalizing to (0, 1] gives the target the refined
    projection should reproduce.
    """
    em = as_matrix(e, "residual")
    hm = as_matrix(h, "subspace feature")
    pulled = pinv(readout.weights) @ em
    if pulled.shape != hm.shape:
        raise ShapeError(
            f"pulled-back residual shape {pulled.shape} does not match feature {hm.shape}"
        )
    values, _ = normalize_unit(pulled + hm, norm_eps)
    return values


def refine_node(node, x, feedback, damping, gram_pinv):
    """Re-solve the projection against the feedback target, with damping.

    a_temp = feedback @ X' @ pinv(X X') is the least-squares solution of
    a @ X ~ feedback; gram_pinv is that pinv(X X'), shared by every node of
    a layer.  The update extrapolates past a_temp by `damping` times the
    step from the old weights.  The new bias is the root-mean-square misfit
    of the refined projection.  Returns the refined node and its feature,
    equal to project(refined, x).
    """
    xm = as_matrix(x, "inputs")
    fm = as_matrix(feedback, "feedback target")
    if xm.shape[0] != node.input_dim:
        raise ShapeError(
            f"inputs have {xm.shape[0]} rows, node expects {node.input_dim}"
        )
    if fm.shape != (node.subspace_dim, xm.shape[1]):
        raise ShapeError(
            f"feedback shape {fm.shape} does not match "
            f"({node.subspace_dim}, {xm.shape[1]})"
        )
    if gram_pinv.shape != (node.input_dim, node.input_dim):
        raise ShapeError(
            f"pinv(X X') shape {gram_pinv.shape} does not match {node.input_dim} inputs"
        )
    a_temp = fm @ xm.T @ gram_pinv
    weights = a_temp + damping * (a_temp - node.weights)
    wx = weights @ xm
    bias = float(np.sqrt(mse(wx - fm)))
    return SubnetNode(weights=weights, bias=bias), wx + bias


def extract_features(x, targets, cfg):
    """Build a layer of cfg.node_count refined nodes and their features.

    The group is factored once (factor_inputs and pinv(X X')).  Per node:
    spawn from a seed derived from cfg.seed, project, fit the readout,
    compute the residual, form the feedback target, and refine once.
    Returns the refined nodes and their subspace features, each
    cfg.subspace_dim x M.
    """
    xm = as_matrix(x, "inputs")
    tm = as_matrix(targets, "targets")
    factor = factor_inputs(xm, tm)
    gram_pinv = pinv(xm @ xm.T)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.node_count)
    nodes = []
    features = []
    for node_seed in seeds:
        node = spawn_node(xm.shape[0], cfg.subspace_dim, node_seed)
        h = project(node, xm)
        readout = ls_readout(node, h, tm, factor)
        e = residual(h, readout, tm)
        feedback = error_feedback(e, readout, h, cfg.norm_eps)
        refined, feature = refine_node(node, xm, feedback, cfg.damping, gram_pinv)
        nodes.append(refined)
        features.append(feature)
    return nodes, features
