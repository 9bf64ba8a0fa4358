"""Online-sequential readout over a fixed feature map.

The readout weights are maintained by recursive least squares: boot from an
initial block with a ridge-regularized solve, then fold in each later chunk
through the matrix-inversion lemma in gain form, with one Cholesky factor
of the chunk's gain.  The accumulator is exactly symmetric by
construction: boot and update each form it as one product of a factor
with its own transpose, so it is never resymmetrized.  Chunks may have any
length, down to single samples, and are never retained.  The final
weights equal the ridge-regularized batch solution on all data seen so
far:

    beta = (I/c + H H')^-1 H T'

which is what makes chunk order and chunk sizes irrelevant.

The state lives in basis coordinates.  When every feature column h lies in
the range of an orthonormal basis U (D x r), the features are y = U'h and
the ridge readout over H is exactly one over Y:

    beta = U gamma,  gamma = (I/c + Y Y')^-1 Y T'
    (I/c + H H')^-1 = U P U' + c (I - U U'),  P = (I/c + Y Y')^-1

So the state keeps the r x r accumulator P and the recursion runs on r-row
chunks; a chunk costs O(r^2 m), not O(D^2 m).  The state stores gamma:
boot and each update compute it and hand it to the next predict and the
next update as it is.  beta = U gamma, for readers that want feature
coordinates, is derived the first time it is read and then cached, so a
stream of updates and predicts never forms it.  U defaults to the
identity, for features that are their own coordinates.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import qr_multiply, svd
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from .errors import ShapeError
from .kernels import as_matrix, ridge_inverse  # noqa: F401  (wrapped by perfbench/tracing.py)

__all__ = ["OselmState", "os_boot", "os_update", "os_predict"]


@dataclass(frozen=True, init=False)
class OselmState:
    """Sequential readout state.

    basis is the orthonormal D x r basis U the readout works in (None means
    the D x D identity); p is the r x r accumulator (I/coeff + Y Y')^-1 over
    the basis coordinates Y = U'H of all samples learned so far; gamma the
    current output weights in basis coordinates (r x outputs); seen the
    running sample count.

    beta = U gamma, the weights in feature coordinates (D x outputs), is
    formed the first time it is read and then cached.  A state may instead
    be built from a beta, as OselmState(p, None, seen, coeff, basis,
    beta=beta) or dataclasses.replace(state, beta=beta): gamma is then
    U'beta, and beta is kept as given.  dataclasses.replace with any other
    field keeps gamma as it is, so a replaced basis keeps the coordinates
    gamma and p together.
    """

    p: np.ndarray
    gamma: np.ndarray
    seen: int
    coeff: float
    basis: np.ndarray = None

    def __init__(self, p, gamma, seen, coeff, basis=None, *, beta=None):
        if basis is None:
            basis = np.eye((gamma if beta is None else beta).shape[0])
        if beta is not None:
            # A given beta can overflow U'beta; save_model checks the result.
            with np.errstate(over="ignore", invalid="ignore"):
                gamma = basis.T @ beta
            self.__dict__["beta"] = beta
        self.__dict__.update(p=p, gamma=gamma, seen=seen, coeff=coeff, basis=basis)

    @cached_property
    def beta(self):
        """Output weights in feature coordinates, U gamma (D x outputs)."""
        return self.basis @ self.gamma

    @property
    def class_count(self):
        return self.gamma.shape[1]


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
        if targets.shape[0] != state.class_count:
            raise ShapeError(
                f"chunk has {targets.shape[0]} target rows, state expects {state.class_count}"
            )


def os_boot(y, targets, coeff, basis=None, seen=None):
    """Initialize from the first block of basis coordinates y (r x M).

    basis (D x r, orthonormal columns) defaults to the r x r identity.  The
    ridge solve goes through a rotated factor, never through I/coeff + Y Y':
    the thin QR Y' = Q R, then the SVD R' = V S W', so Y = V S (Q W)' and

        p = (V D^1/2)(V D^1/2)',  D = diag(1 / (1/coeff + s^2))
        gamma = V diag(s / (1/coeff + s^2)) (T Q W)'

    with s padded by zeros to r, which pads D with coeff.  p is formed as
    one product of a factor with its own transpose, which numpy's matmul
    takes through syrk and mirrors, so p is exactly symmetric.  The ridge
    term removes any rank requirement on the initial block.  Only the Grams
    Y Y' and Y T' enter, so pipeline.fit passes small factors with the
    block's Grams instead (see there) and the block's sample count as seen,
    which defaults to y's column count.
    """
    if coeff <= 0:
        raise ValueError(f"ridge coefficient must be positive, got {coeff}")
    _check_chunk(None, y, targets)
    rows = y.shape[0]
    tq, r = qr_multiply(y.T, targets, mode="right")
    v, s, wt = svd(r.T, check_finite=False)
    ridge = 1.0 / coeff + s * s
    vd = v * np.sqrt(np.concatenate((1.0 / ridge, np.full(rows - s.size, float(coeff)))))
    gamma = v[:, : s.size] @ ((s / ridge)[:, None] * (wt @ tq.T))
    seen = y.shape[1] if seen is None else seen
    return OselmState(vd @ vd.T, gamma, seen, float(coeff), basis)


def os_update(state, y, targets):
    """Fold one chunk of basis coordinates into the state; returns the new
    state, which shares the basis.

    Rank-m update in gain form, through one Cholesky factor of the chunk
    gain G = I + Y' p Y = U'U (symmetric positive definite for any positive
    semidefinite p, its eigenvalues all >= 1), and one triangular solve
    from the right:

        X U = [p Y; E],  E = T - gamma' Y (the innovation)
        p' = p - X_p X_p' = p - p Y G^-1 Y' p
        gamma' = gamma + X_p X_e' = gamma + p' Y E'

    with X_p and X_e the rows of X that p Y and E give.  X_p X_p' is one
    product of a factor with its own transpose, which numpy's matmul takes
    through syrk and mirrors, so p' is exactly symmetric whenever p is,
    with no resymmetrization.  The new state keeps gamma' as its gamma and
    does not form beta.  The chunk is not retained.
    A G that does not factor can only come from a corrupted p; it raises
    np.linalg.LinAlgError.
    """
    _check_chunk(state, y, targets)
    gamma = state.gamma
    rows, cols = y.shape
    # [p Y; E] in one buffer, the right-hand side of the solve.
    rhs = np.empty((rows + targets.shape[0], cols))
    py = np.matmul(state.p, y, out=rhs[:rows])
    innovation = np.matmul(gamma.T, y, out=rhs[rows:])
    np.subtract(targets, innovation, out=innovation)
    gain = y.T @ py
    gain.reshape(-1)[:: cols + 1] += 1.0
    # gain is symmetric, so its transpose is the Fortran-ordered operand.
    u, info = dpotrf(gain.T, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"the gain of a {cols}-column chunk is not positive definite; "
            "the state's accumulator p is corrupted"
        )
    x = dtrsm(1.0, u, rhs, side=1)
    xp = x[:rows]
    gamma = gamma + xp @ x[rows:].T
    return OselmState(state.p - xp @ xp.T, gamma, state.seen + cols, state.coeff, state.basis)


def os_predict(state, y):
    """Scores gamma' Y (= beta' H) for samples-as-columns basis coordinates
    (a validated float array; only its shape is checked)."""
    if y.shape[0] != state.p.shape[0]:
        raise ShapeError(
            f"activations have {y.shape[0]} rows, state expects {state.p.shape[0]}"
        )
    return state.gamma.T @ y
