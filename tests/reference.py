"""Float references for the package's factored steps.

The node-by-node refinement chain on d x M matrices, and the sequential
readout's update solved through an LU factor of the chunk gain.

hoselm.extractor.extract_features refines a layer in coefficient space,
through its steps ls_readout, error_feedback and refine_node.  The
functions here state one node's refinement directly, on the d x M feature
h = project(node, x):

    ls_readout -> residual -> error_feedback -> refine_node

with the refinement's least squares solved through pinv(X X').  The
readout's weights come from the package's own step (they are a factored
solve, checked against an SVD of h in tests/test_extractor.py); everything
after them is formed on d x M matrices.  Tests compare the layer with this
chain at a bound set by the conditioning of the problem.

lu_update is the inversion-lemma step of hoselm.oselm.os_update as it was
before that step went through a Cholesky factor: an LU solve of the gain
and a resymmetrization of p.
"""

from dataclasses import dataclass

import numpy as np

from hoselm import extractor
from hoselm.errors import ShapeError
from hoselm.extractor import SubnetNode
from hoselm.kernels import _normalize_unit, pinv
from hoselm.oselm import OselmState


@dataclass(frozen=True)
class LsReadout:
    """Least-squares readout from a subspace feature to the targets.

    weights is t x d; bias is the root-mean-square of the unbiased fit
    residual, added as a scalar offset when the readout is evaluated.
    """

    weights: np.ndarray
    bias: float


def _check_factor(factor, inputs, targets):
    """A layer factor is the R of [x; 1; T]' for x with `inputs` rows."""
    width = inputs + 1 + targets.shape[0]
    if factor.shape != (min(targets.shape[1], width), width):
        raise ShapeError(
            f"factor shape {factor.shape} does not match {inputs} inputs, "
            f"{targets.shape[0]} target rows and {targets.shape[1]} samples"
        )


def ls_readout(node, h, targets, factor):
    """Minimum-norm least-squares readout weights = Y @ pinv(h).

    h = project(node, x), and factor = factor_inputs(x, targets) = R; the
    weights come from R's blocks alone (see factor_inputs).  The bias
    records the root-mean-square of the unbiased residual.
    """
    if h.shape[1] != targets.shape[1]:
        raise ShapeError(
            f"sample counts differ: feature {h.shape[1]}, targets {targets.shape[1]}"
        )
    _check_factor(factor, node.input_dim, targets)
    weights = extractor.ls_readout(node, factor, h.shape[1])
    misfit = weights @ h - targets
    bias = float(np.sqrt(np.mean(misfit * misfit)))
    return LsReadout(weights=weights, bias=bias)


def residual(h, readout, targets):
    """Readout error e = Y - (weights @ h + bias)."""
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
    projection should reproduce.
    """
    pulled = pinv(readout.weights) @ e
    if pulled.shape != h.shape:
        raise ShapeError(
            f"pulled-back residual shape {pulled.shape} does not match feature {h.shape}"
        )
    values, _, _ = _normalize_unit(pulled + h, norm_eps)
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
    misfit = wx - feedback
    bias = float(np.sqrt(np.mean(misfit * misfit)))
    return SubnetNode(weights=weights, bias=bias), wx + bias


def lu_update(state, y, targets):
    """os_update's chunk step through np.linalg.solve:

        p' = p - p Y (I + Y' p Y)^-1 Y' p,  resymmetrized
        gamma' = gamma + p' Y (T' - Y' gamma)
    """
    gamma = state.gamma
    py = state.p @ y
    gain = np.eye(y.shape[1]) + y.T @ py
    p_new = state.p - py @ np.linalg.solve(gain, py.T)
    p_new = (p_new + p_new.T) / 2.0
    gamma = gamma + p_new @ (y @ (targets.T - y.T @ gamma))
    return OselmState(
        p=p_new,
        gamma=gamma,
        seen=state.seen + y.shape[1],
        coeff=state.coeff,
        basis=state.basis,
    )
