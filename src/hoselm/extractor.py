"""Subspace feature extraction via error-feedback-refined random projections.

Each extractor node is a small linear projection (weights, scalar bias) that
maps inputs into a d-dimensional subspace.  A node starts random and is
refined exactly once: fit a least-squares readout from its subspace features
to the targets, pull the readout residual back through the readout's
pseudoinverse, renormalize that feedback into (0, 1], and re-solve the
projection against the feedback target with a damped update.  A layer of L
such nodes defines L subspace features project(node, x) of identical shape
d x M, ready for elementwise combination.

extract_features refines each node of a layer through three steps:
ls_readout (the readout weights), error_feedback (the normalized feedback
target) and refine_node (the damped re-solve).  Every per-node matrix is
affine in [x; 1; T]: the feature, the readout misfit, the pulled-back
feedback, the normalized refine target and the refine misfit.  So the R of
one thin QR [x; 1; T]' = Q R turns each into a d x (n+1+t) coefficient on
Q', and no step builds a d x M matrix; the caller takes that QR
(pipeline.fit slices each layer's R from one QR of all groups,
factor_inputs).  The root-mean-square biases are Frobenius norms of
coefficients, since Q is orthonormal.  Each readout takes its
pseudoinverse in (n+1)-space, with the cutoff the d x M one would use, and
every refinement solves a x ~ f through one pinv(R11') of the layer's
leading n x n triangle.  Every pseudoinverse goes through hoselm.kernels'
pinv core: a well-conditioned matrix takes the certified QR route (the
triangle R11' is inverted as it is), and any other, such as a singular
R11' or a readout near its cutoff, the SVD.  Only the feedback's global
range, which its normalization needs, costs a d x n x M product.  The
same chain on d x M matrices, node by node, is the float reference the
test suite checks the layer against.

The pipeline validates every group and the targets where they enter the
package, so the functions here check shapes only; extract_features checks
the factor once, and its three steps trust it.  Everything here is
deterministic given the config seed and free of shared state, so layers may
be built concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import _NORM_EPS, _integer, _qr_r, augmented_inputs
from .kernels import as_matrix  # noqa: F401  (wrapped by perfbench/tracing.py)

# The layer takes pseudoinverses only of matrices it built, so it calls the
# unchecked core, under the name perfbench/tracing.py wraps.
from .kernels import _pinv as pinv

__all__ = [
    "SubnetNode",
    "spawn_node",
    "project",
    "factor_inputs",
    "extract_features",
]

_EPS = np.finfo(np.float64).eps
# Sample columns per block of the feedback's range.
_RANGE_BLOCK = 512


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


def spawn_node(input_dim, subspace_dim, seed):
    """Draw a fresh node with i.i.d. uniform [-1, 1] weights and bias."""
    shape = (_integer(subspace_dim, "subspace_dim", 1), _integer(input_dim, "input_dim", 1))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=shape)
    bias = float(rng.uniform(-1.0, 1.0))
    return SubnetNode(weights=weights, bias=bias)


def project(node, x):
    """Subspace feature weights @ X + bias; linear, no activation.  The bias
    is added in place, so the d x M feature is the only array allocated.
    Callers pass validated float arrays; only shapes are checked here."""
    if x.shape[0] != node.input_dim:
        raise ShapeError(
            f"inputs have {x.shape[0]} rows, node expects {node.input_dim}"
        )
    out = node.weights @ x
    out += node.bias
    return out


def factor_inputs(mats, targets):
    """Factor feature groups and their targets once for a whole fit.

    mats is a list of groups x_g sharing M sample columns, or a lone
    group.  Takes the thin QR [x_1; ...; x_G; 1; T]' = Q R, factoring the
    Fortran-ordered stack in place with LAPACK's compact-WY dgeqrt, and
    returns R alone, k x K with K the stack's rows and k = min(M, K); Q is
    never built.  For a lone group x its leading k1 = min(M, n+1) rows hold
    the blocks every readout needs: [x; 1]' = Q1 R[:k1, :n+1] and
    T Q1 = R[:k1, n+1:]', with Q1 the first k1 columns of Q.  Callers pass
    validated float arrays; only shapes are checked here.
    """
    if isinstance(mats, np.ndarray):
        mats = [mats]
    if mats[0].shape[1] != targets.shape[1]:
        raise ShapeError(
            f"sample counts differ: inputs {mats[0].shape[1]}, targets {targets.shape[1]}"
        )
    return _qr_r(augmented_inputs(mats, targets))


def _rms(coeff, samples):
    """Root-mean-square entry of a matrix with M = samples columns, from its
    coefficient on Q' (Q has orthonormal columns, so norms carry over)."""
    return float(np.linalg.norm(coeff) / np.sqrt(coeff.shape[0] * samples))


def ls_readout(node, r, samples):
    """Least-squares readout weights T pinv(h) of the feature h = W x + b
    over M = samples columns, from the layer factor r.

    Since h = [W, b] [x; 1] and Q1 has orthonormal columns,
    T pinv(h) = (T Q1) pinv([W, b] R[:k1, :n+1]'): the pseudoinverse is
    taken in (n+1)-space, with the cutoff the d x M one would use.
    """
    n1 = node.input_dim + 1
    k1 = min(r.shape[0], n1)
    wb = np.column_stack((node.weights, np.full(node.subspace_dim, node.bias)))
    rcond = _EPS * max(node.subspace_dim, samples)
    return r[:k1, n1:].T @ pinv(wb @ r[:k1, :n1].T, rcond=rcond)


def error_feedback(node, readout, x, targets, r):
    """Coefficient on [x; 1; T] of the node's feedback target.

    The readout misfit e = T - (readout h + its RMS bias) is pulled back
    through pinv(readout), the feature h is added, and the sum g is
    normalized into [_NORM_EPS, 1] by its global range.  Only that range
    needs M-sized work: one product (I - pinv(w) w) W x + pinv(w) T, whose
    rows then shift by a constant, taken over blocks of _RANGE_BLOCK sample
    columns so that no d x M matrix is held at once.
    """
    n, samples = x.shape
    # The feature h = W x + b and the unbiased readout misfit T - w h.
    c_h = np.zeros((node.subspace_dim, r.shape[1]))
    c_h[:, :n] = node.weights
    c_h[:, n] = node.bias
    c_e = -(readout @ c_h)
    c_e[:, n + 1 :] += np.eye(targets.shape[0])
    c_e[:, n] -= _rms(c_e @ r.T, samples)  # the readout's bias
    c_g = pinv(readout) @ c_e + c_h
    lo, hi = np.inf, -np.inf
    for c in range(0, samples, _RANGE_BLOCK):
        g = c_g[:, :n] @ x[:, c : c + _RANGE_BLOCK]
        g += c_g[:, n + 1 :] @ targets[:, c : c + _RANGE_BLOCK]
        lo = min(lo, float(np.min(g.min(axis=1) + c_g[:, n])))
        hi = max(hi, float(np.max(g.max(axis=1) + c_g[:, n])))
    if hi == lo:
        c_f = np.zeros_like(c_g)
        c_f[:, n] = 1.0
    else:
        scale = (1.0 - _NORM_EPS) / (hi - lo)
        c_f = scale * c_g
        c_f[:, n] = _NORM_EPS + scale * (c_g[:, n] - lo)
    return c_f


def refine_node(node, feedback, r, refine_pinv, damping, samples):
    """Re-solve the projection against the feedback target, with damping.

    feedback is the target's coefficient on [x; 1; T]; on Q' it is
    g_f = feedback R', and refine_pinv = pinv(R11') solves a x ~ f as
    g_f's leading columns times it.  The update extrapolates past that
    solution by `damping` times the step from the old weights, and the new
    bias is the root-mean-square misfit of the refined projection over the
    M = samples columns.
    """
    g_f = feedback @ r.T
    a_temp = g_f[:, : refine_pinv.shape[0]] @ refine_pinv
    weights = a_temp + damping * (a_temp - node.weights)
    misfit = weights @ r[:, : node.input_dim].T - g_f
    return SubnetNode(weights=weights, bias=_rms(misfit, samples))


def extract_features(x, targets, cfg, factor):
    """Build a layer of cfg.node_count refined nodes; cfg is a PipelineConfig.

    Each node is spawned from a seed derived from cfg.seed and refined by
    ls_readout -> error_feedback -> refine_node, the last at cfg.damping.
    factor is the R of a thin QR [x; 1; T]' = Q R, such as
    factor_inputs(x, targets); any such R serves, since the layer uses it
    only through products with R' and the triangle's pseudoinverse.  The
    least squares a x ~ f of every refinement is solved through one
    pinv(R11') of the leading n x n triangle, which equals f x' pinv(X X')
    with pinv(X X')'s cutoff (rcond sqrt(eps n) on R11 is eps n on its
    square).  A triangle whose condition is certified below that cutoff is
    inverted directly; any other takes the SVD.  Returns the refined nodes;
    their features are project(node, x).  Callers pass validated float
    arrays and a validated config; only shapes are checked here.
    """
    n, samples = x.shape
    width = n + 1 + targets.shape[0]
    if factor.shape != (min(targets.shape[1], width), width):
        raise ShapeError(
            f"factor shape {factor.shape} does not match {n} inputs, "
            f"{targets.shape[0]} target rows and {targets.shape[1]} samples"
        )
    refine_pinv = pinv(factor[: min(factor.shape[0], n), :n].T, rcond=np.sqrt(_EPS * n))
    nodes = []
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.node_count):
        node = spawn_node(n, cfg.subspace_dim, seed)
        readout = ls_readout(node, factor, samples)
        feedback = error_feedback(node, readout, x, targets, factor)
        nodes.append(refine_node(node, feedback, factor, refine_pinv, cfg.damping, samples))
    return nodes
