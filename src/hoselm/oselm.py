"""Online-sequential readout over a fixed feature map.

The readout weights are maintained by recursive least squares: boot from an
initial block with a ridge-regularized solve, then fold in each later chunk
through the matrix-inversion lemma.  Chunks may have any length, down to
single samples, and are never retained.  The final weights equal the
ridge-regularized batch solution on all data seen so far:

    beta = (I/c + H H')^-1 H T'

which is what makes chunk order and chunk sizes irrelevant.

The state lives in basis coordinates.  When every feature column h lies in
the range of an orthonormal basis U (D x r), the features are y = U'h and
the ridge readout over H is exactly one over Y:

    beta = U gamma,  gamma = (I/c + Y Y')^-1 Y T'
    (I/c + H H')^-1 = U P U' + c (I - U U'),  P = (I/c + Y Y')^-1

So the state keeps the r x r accumulator P and the recursion runs on r-row
chunks; a chunk costs O(r^2 m), not O(D^2 m).  beta stays in feature
coordinates (gamma = U'beta), and U defaults to the identity, for features
that are their own coordinates.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import qr_multiply, svd

from .errors import ShapeError
from .kernels import as_matrix, ridge_inverse  # noqa: F401  (wrapped by perfbench/tracing.py)

__all__ = ["OselmState", "os_boot", "os_update", "os_predict"]


@dataclass(frozen=True)
class OselmState:
    """Sequential readout state.

    basis is the orthonormal D x r basis U the readout works in (None means
    the D x D identity); p is the r x r accumulator (I/coeff + Y Y')^-1 over
    the basis coordinates Y = U'H of all samples learned so far; beta the
    current output weights in feature coordinates (D x outputs), U gamma;
    seen the running sample count.
    """

    p: np.ndarray
    beta: np.ndarray
    seen: int
    coeff: float
    basis: np.ndarray = None

    def __post_init__(self):
        if self.basis is None:
            object.__setattr__(self, "basis", np.eye(self.beta.shape[0]))

    @cached_property
    def gamma(self):
        """Output weights in basis coordinates, U'beta (r x outputs); taken
        once per state, which predict and the next update share."""
        return self.basis.T @ self.beta


def _check_chunk(state, y, targets):
    """Shape checks only: y and targets arrive as validated float arrays
    (the pipeline's own features and the targets its boundary checked)."""
    if y.shape[1] != targets.shape[1]:
        raise ShapeError(
            f"chunk sample counts differ: {y.shape[1]} vs {targets.shape[1]}"
        )
    if state is not None:
        if y.shape[0] != state.p.shape[0]:
            raise ShapeError(
                f"chunk has {y.shape[0]} feature rows, state expects {state.p.shape[0]}"
            )
        if targets.shape[0] != state.beta.shape[1]:
            raise ShapeError(
                f"chunk has {targets.shape[0]} target rows, state expects {state.beta.shape[1]}"
            )


def os_boot(y, targets, coeff, basis=None):
    """Initialize from the first block of basis coordinates y (r x M).

    basis (D x r, orthonormal columns) defaults to the r x r identity.  The
    ridge solve goes through a rotated factor, never through I/coeff + Y Y':
    the thin QR Y' = Q R, then the SVD R' = V S W', so Y = V S (Q W)' and

        p = V diag(1 / (1/coeff + s^2)) V',  gamma = V diag(s / (1/coeff + s^2)) (T Q W)'

    with s padded by zeros to r.  The ridge term removes any rank
    requirement on the initial block.  Only the Grams Y Y' and Y T' enter,
    so pipeline.fit passes small factors with the block's Grams instead
    (see there) and then sets seen, which counts y's columns, to the
    block's.
    """
    if coeff <= 0:
        raise ValueError(f"ridge coefficient must be positive, got {coeff}")
    _check_chunk(None, y, targets)
    rows = y.shape[0]
    tq, r = qr_multiply(y.T, targets, mode="right")
    v, s, wt = svd(r.T, check_finite=False)
    ridge = 1.0 / coeff + s * s
    p = (v * np.concatenate((1.0 / ridge, np.full(rows - s.size, float(coeff))))) @ v.T
    p = (p + p.T) / 2.0
    gamma = v[:, : s.size] @ ((s / ridge)[:, None] * (wt @ tq.T))
    beta = gamma if basis is None else basis @ gamma
    return OselmState(p=p, beta=beta, seen=y.shape[1], coeff=float(coeff), basis=basis)


def os_update(state, y, targets):
    """Fold one chunk of basis coordinates into the state; returns the new
    state, which shares the basis.

    Rank-m update via the inversion lemma:

        p' = p - p Y (I + Y' p Y)^-1 Y' p
        gamma' = gamma + p' Y (T' - Y' gamma)

    p is resymmetrized after the update to bound floating-point drift.
    The chunk is not retained.
    """
    _check_chunk(state, y, targets)
    gamma = state.gamma
    py = state.p @ y
    gain = np.eye(y.shape[1]) + y.T @ py
    p_new = state.p - py @ np.linalg.solve(gain, py.T)
    p_new = (p_new + p_new.T) / 2.0
    gamma = gamma + p_new @ (y @ (targets.T - y.T @ gamma))
    return OselmState(
        p=p_new,
        beta=state.basis @ gamma,
        seen=state.seen + y.shape[1],
        coeff=state.coeff,
        basis=state.basis,
    )


def os_predict(state, y):
    """Scores gamma' Y (= beta' H) for samples-as-columns basis coordinates
    (a validated float array; only its shape is checked)."""
    if y.shape[0] != state.p.shape[0]:
        raise ShapeError(
            f"activations have {y.shape[0]} rows, state expects {state.p.shape[0]}"
        )
    return state.gamma.T @ y
