"""Subspace feature extraction via error-feedback-refined random projections.

Each extractor node is a small linear projection (weights, scalar bias) that
maps inputs into a d-dimensional subspace.  A node starts random and is
refined exactly once: fit a least-squares readout from its subspace features
to the targets, pull the readout residual back through the readout's
pseudoinverse, renormalize that feedback into (0, 1], and re-solve the
projection against the feedback target with a damped update.  A layer of L
such nodes defines L subspace features project(node, x) of identical shape
d x M, ready for elementwise combination.

The public chain spawn_node -> project -> ls_readout -> residual ->
error_feedback -> refine_node states one node's refinement on d x M
matrices.  extract_features builds the same layer without any of them.
Every per-node matrix is affine in [x; 1; T]: the feature, the readout
misfit, the pulled-back feedback, the normalized refine target and the
refine misfit.  So the R of one thin QR [x; 1; T]' = Q R turns each into
a d x (n+1+t) coefficient on Q'; the caller takes that QR (pipeline.fit
slices each layer's R from one QR of all groups, factor_inputs).  The
root-mean-square biases are Frobenius norms of coefficients, since Q is
orthonormal.  Each readout takes its pseudoinverse in (n+1)-space, with the
cutoff the d x M one would use, and every refinement solves a x ~ f through
one pinv(R11') of the layer's leading n x n triangle.  Only the feedback's
global range, which its normalization needs, costs a d x n x M product.

The pipeline validates every group and the targets where they enter the
package, so the functions here check shapes only.  Everything here is
deterministic given the config seed and free of shared state, so layers may
be built concurrently.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .errors import ShapeError
from .kernels import augmented_inputs, mse, normalize_unit
from .kernels import as_matrix  # noqa: F401  (wrapped by perfbench/tracing.py)

# The layer takes pseudoinverses only of matrices it built, so it calls the
# unchecked core, under the name perfbench/tracing.py wraps.
from .kernels import _pinv as pinv

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

_EPS = np.finfo(np.float64).eps


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
    """Subspace feature weights @ X + bias; linear, no activation.  Callers
    pass validated float arrays; only shapes are checked here."""
    if x.shape[0] != node.input_dim:
        raise ShapeError(
            f"inputs have {x.shape[0]} rows, node expects {node.input_dim}"
        )
    return node.weights @ x + node.bias


def factor_inputs(mats, targets):
    """Factor feature groups and their targets once for a whole fit.

    mats is a list of groups x_g sharing M sample columns, or a lone
    group.  Takes the thin QR [x_1; ...; x_G; 1; T]' = Q R and returns R
    alone, k x K with K the stack's rows and k = min(M, K); Q is never
    built.  For a lone group x its leading k1 = min(M, n+1) rows hold the
    blocks every readout needs: [x; 1]' = Q1 R[:k1, :n+1] and
    T Q1 = R[:k1, n+1:]', with Q1 the first k1 columns of Q.  Callers pass
    validated float arrays; only shapes are checked here.
    """
    if isinstance(mats, np.ndarray):
        mats = [mats]
    if mats[0].shape[1] != targets.shape[1]:
        raise ShapeError(
            f"sample counts differ: inputs {mats[0].shape[1]}, targets {targets.shape[1]}"
        )
    _, r = qr(augmented_inputs(mats, targets), mode="raw", overwrite_a=True, check_finite=False)
    return r


def _check_factor(factor, inputs, targets):
    """A layer factor is the R of [x; 1; T]' for x with `inputs` rows."""
    width = inputs + 1 + targets.shape[0]
    if factor.shape != (min(targets.shape[1], width), width):
        raise ShapeError(
            f"factor shape {factor.shape} does not match {inputs} inputs, "
            f"{targets.shape[0]} target rows and {targets.shape[1]} samples"
        )


def _readout_weights(node, r, samples):
    """Readout weights T pinv(h) from the layer factor r.

    Since h = [W, b] [x; 1] and Q1 has orthonormal columns,
    T pinv(h) = (T Q1) pinv([W, b] R[:k1, :n+1]'): the pseudoinverse is
    taken in (n+1)-space, with the cutoff the d x M one would use.
    """
    n1 = node.input_dim + 1
    k1 = min(r.shape[0], n1)
    wb = np.column_stack((node.weights, np.full(node.subspace_dim, node.bias)))
    rcond = _EPS * max(node.subspace_dim, samples)
    return r[:k1, n1:].T @ pinv(wb @ r[:k1, :n1].T, rcond=rcond)


def ls_readout(node, h, targets, factor):
    """Minimum-norm least-squares readout weights = Y @ pinv(h).

    h = project(node, x), and factor = factor_inputs(x, targets) = R; the
    weights come from R's blocks alone (see factor_inputs).  The bias
    records the root-mean-square of the unbiased residual.  Callers pass
    validated float arrays; only shapes are checked here.
    """
    if h.shape[1] != targets.shape[1]:
        raise ShapeError(
            f"sample counts differ: feature {h.shape[1]}, targets {targets.shape[1]}"
        )
    _check_factor(factor, node.input_dim, targets)
    weights = _readout_weights(node, factor, h.shape[1])
    bias = float(np.sqrt(mse(weights @ h - targets)))
    return LsReadout(weights=weights, bias=bias)


def residual(h, readout, targets):
    """Readout error e = Y - (weights @ h + bias).  Callers pass validated
    float arrays; only shapes are checked here."""
    pred = readout.weights @ h + readout.bias
    if pred.shape != targets.shape:
        raise ShapeError(
            f"readout output shape {pred.shape} does not match targets {targets.shape}"
        )
    return targets - pred


def error_feedback(e, readout, h, norm_eps):
    """Feedback target: residual pulled back into the subspace, renormalized.

    pinv(readout.weights) @ e lands in the subspace (d x M); adding the
    current feature and renormalizing to (0, 1] gives the target the refined
    projection should reproduce.  Callers pass validated float arrays; only
    shapes are checked here.
    """
    pulled = pinv(readout.weights) @ e
    if pulled.shape != h.shape:
        raise ShapeError(
            f"pulled-back residual shape {pulled.shape} does not match feature {h.shape}"
        )
    values, _ = normalize_unit(pulled + h, norm_eps)
    return values


def refine_node(node, x, feedback, damping, gram_pinv):
    """Re-solve the projection against the feedback target, with damping.

    a_temp = feedback @ X' @ pinv(X X') is the least-squares solution of
    a @ X ~ feedback; gram_pinv is that pinv(X X'), shared by every node of
    a layer.  The update extrapolates past a_temp by `damping` times the
    step from the old weights.  The new bias is the root-mean-square misfit
    of the refined projection.  Returns the refined node and its feature,
    equal to project(refined, x).  Callers pass validated float arrays; only
    shapes are checked here.
    """
    if x.shape[0] != node.input_dim:
        raise ShapeError(
            f"inputs have {x.shape[0]} rows, node expects {node.input_dim}"
        )
    if feedback.shape != (node.subspace_dim, x.shape[1]):
        raise ShapeError(
            f"feedback shape {feedback.shape} does not match "
            f"({node.subspace_dim}, {x.shape[1]})"
        )
    if gram_pinv.shape != (node.input_dim, node.input_dim):
        raise ShapeError(
            f"pinv(X X') shape {gram_pinv.shape} does not match {node.input_dim} inputs"
        )
    a_temp = feedback @ x.T @ gram_pinv
    weights = a_temp + damping * (a_temp - node.weights)
    wx = weights @ x
    bias = float(np.sqrt(mse(wx - feedback)))
    return SubnetNode(weights=weights, bias=bias), wx + bias


def _rms(coeff, samples):
    """Root-mean-square entry of a matrix with M = samples columns, from its
    coefficient on Q' (Q has orthonormal columns, so norms carry over)."""
    return float(np.linalg.norm(coeff) / np.sqrt(coeff.shape[0] * samples))


def _refine(node, x, targets, r, refine_pinv, cfg):
    """readout -> residual -> feedback -> refine for one spawned node, with
    every d x M matrix carried as a coefficient on [x; 1; T] or on Q'.

    Only the global range of the feedback needs M-sized work: one product
    (I - pinv(w) w) W x + pinv(w) T, whose rows then shift by a constant.
    """
    n, samples = x.shape
    readout = _readout_weights(node, r, samples)
    # The feature h = W x + b and the unbiased readout misfit T - w h.
    c_h = np.zeros((node.subspace_dim, r.shape[1]))
    c_h[:, :n] = node.weights
    c_h[:, n] = node.bias
    c_e = -(readout @ c_h)
    c_e[:, n + 1 :] += np.eye(targets.shape[0])
    c_e[:, n] -= _rms(c_e @ r.T, samples)  # the readout's bias
    # The feedback pinv(w) e + h, normalized into [eps, 1] by its range.
    c_g = pinv(readout) @ c_e + c_h
    g = c_g[:, :n] @ x
    g += c_g[:, n + 1 :] @ targets
    lo = float(np.min(g.min(axis=1) + c_g[:, n]))
    hi = float(np.max(g.max(axis=1) + c_g[:, n]))
    eps = cfg.norm_eps
    if hi == lo:
        c_f = np.zeros_like(c_g)
        c_f[:, n] = 1.0
    else:
        scale = (1.0 - eps) / (hi - lo)
        c_f = scale * c_g
        c_f[:, n] = eps + scale * (c_g[:, n] - lo)
    # Solve a x ~ f on Q' and extrapolate past it by the damping.
    g_f = c_f @ r.T
    a_temp = g_f[:, : refine_pinv.shape[0]] @ refine_pinv
    weights = a_temp + cfg.damping * (a_temp - node.weights)
    return SubnetNode(weights=weights, bias=_rms(weights @ r[:, :n].T - g_f, samples))


def extract_features(x, targets, cfg, factor):
    """Build a layer of cfg.node_count refined nodes.

    Each node runs the chain spawn_node -> project -> ls_readout ->
    residual -> error_feedback -> refine_node (with pinv(X X')), from a seed
    derived from cfg.seed, but in coefficient space.  factor is the R of a
    thin QR [x; 1; T]' = Q R, such as factor_inputs(x, targets); any such R
    serves, since the layer uses it only through products with R' and the
    triangle's pseudoinverse.  The least squares a x ~ f of every
    refinement is solved through one pinv(R11') of the leading n x n
    triangle, which equals f x' pinv(X X') with pinv(X X')'s cutoff (rcond
    sqrt(eps n) on R11 is eps n on its square).  Returns the refined nodes;
    their features are project(node, x).  Callers pass validated float
    arrays; only shapes are checked here.
    """
    n = x.shape[0]
    _check_factor(factor, n, targets)
    refine_pinv = pinv(factor[: min(factor.shape[0], n), :n].T, rcond=np.sqrt(_EPS * n))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.node_count)
    return [
        _refine(spawn_node(n, cfg.subspace_dim, s), x, targets, factor, refine_pinv, cfg)
        for s in seeds
    ]
