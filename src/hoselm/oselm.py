"""Online-sequential readout over a fixed feature map.

The readout weights are maintained by recursive least squares: boot from an
initial block with a ridge-regularized solve, then fold in each later chunk
through the matrix-inversion lemma.  Chunks may have any length, down to
single samples, and are never retained.  The final weights equal the
ridge-regularized batch solution on all data seen so far:

    beta = (I/c + H H')^-1 H T'

which is what makes chunk order and chunk sizes irrelevant.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import ridge_inverse

# Inputs arrive validated, so nothing here calls as_matrix; perfbench/tracing.py
# still wraps it as an attribute of this module by name.
from .kernels import as_matrix  # noqa: F401

__all__ = ["OselmState", "os_boot", "os_update", "os_predict"]


@dataclass(frozen=True)
class OselmState:
    """Sequential readout state.

    p is the inverse-correlation accumulator (I/coeff + H H')^-1 over all
    samples learned so far; beta the current output weights (hidden x
    outputs); seen the running sample count.
    """

    p: np.ndarray
    beta: np.ndarray
    seen: int
    coeff: float


def _check_chunk(state, h, targets):
    """Shape checks only: h and targets arrive as validated float arrays
    (the pipeline's own H and the targets its boundary checked)."""
    if h.shape[1] != targets.shape[1]:
        raise ShapeError(
            f"chunk sample counts differ: {h.shape[1]} vs {targets.shape[1]}"
        )
    if state is not None:
        if h.shape[0] != state.p.shape[0]:
            raise ShapeError(
                f"chunk has {h.shape[0]} feature rows, state expects {state.p.shape[0]}"
            )
        if targets.shape[0] != state.beta.shape[1]:
            raise ShapeError(
                f"chunk has {targets.shape[0]} target rows, state expects {state.beta.shape[1]}"
            )


def os_boot(h, targets, coeff):
    """Initialize from the first block: p = (I/coeff + H H')^-1, beta = p H T'.

    The ridge term removes any rank requirement on the initial block.
    """
    if coeff <= 0:
        raise ValueError(f"ridge coefficient must be positive, got {coeff}")
    _check_chunk(None, h, targets)
    p = ridge_inverse(h @ h.T, coeff)
    p = (p + p.T) / 2.0
    beta = p @ h @ targets.T
    return OselmState(p=p, beta=beta, seen=h.shape[1], coeff=float(coeff))


def os_update(state, h, targets):
    """Fold one chunk into the state and return the new state.

    Rank-k update via the inversion lemma:

        p' = p - p H (I + H' p H)^-1 H' p
        beta' = beta + p' H (T' - H' beta)

    p is resymmetrized after the update to bound floating-point drift.
    The chunk is not retained.
    """
    _check_chunk(state, h, targets)
    ph = state.p @ h
    gain = np.eye(h.shape[1]) + h.T @ ph
    p_new = state.p - ph @ np.linalg.solve(gain, ph.T)
    p_new = (p_new + p_new.T) / 2.0
    beta_new = state.beta + p_new @ h @ (targets.T - h.T @ state.beta)
    return OselmState(
        p=p_new, beta=beta_new, seen=state.seen + h.shape[1], coeff=state.coeff
    )


def os_predict(state, h):
    """Scores beta' H for samples-as-columns activations (a validated
    float array; only its shape is checked)."""
    if h.shape[0] != state.beta.shape[0]:
        raise ShapeError(
            f"activations have {h.shape[0]} rows, state expects {state.beta.shape[0]}"
        )
    return state.beta.T @ h
