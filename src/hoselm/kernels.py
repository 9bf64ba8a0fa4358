"""Dense-matrix primitives and scalar nonlinearities.

Everything downstream (random-feature networks, the subnetwork extractor,
the greedy classifier, the sequential readout) is built from the handful of
operations here: SVD pseudoinverse, ridge-regularized inverse, mean squared
error, sigmoid / logit, the (0, 1]-normalization pair, and the stacked
inputs [x_1; ...; x_G; 1]' (with the targets' rows appended for the
extractor) that the input-space QR factorizations take.

pinv is the plain SVD reference whose Penrose conditions acceptance
criterion 1 pins.  Callers keep its inputs small: the extractor factors each
feature group once and takes its per-node pseudoinverses in (n+1)-space, and
the classifier takes one ridge inverse per fit.

All matrices are dense float64 numpy arrays, samples as columns.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ShapeError

__all__ = [
    "NormParams",
    "as_matrix",
    "augmented_inputs",
    "pinv",
    "ridge_inverse",
    "mse",
    "sigmoid_map",
    "logit_map",
    "normalize_unit",
    "denormalize_unit",
]


def as_matrix(a, name="matrix"):
    """Validate and return `a` as a non-empty, finite, 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def augmented_inputs(mats, targets=None):
    """[x_1; ...; x_G; 1]' for validated groups sharing M sample columns,
    or [x_1; ...; x_G; 1; T]' when targets T are given.

    The M x (sum of group rows + 1 + target rows) result is written straight
    into Fortran order, whatever the operands' layout, so LAPACK can factor
    it in place without another M-sized copy.
    """
    samples = mats[0].shape[1]
    tail = () if targets is None else (targets,)
    parts = (*mats, np.ones((1, samples)), *tail)
    out = np.empty((samples, sum(m.shape[0] for m in parts)), order="F")
    np.concatenate(parts, out=out.T)
    return out


def pinv(a, rcond=None):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``rcond * s_max`` are treated as zero.
    Default rcond is machine epsilon times max(rows, cols).
    """
    m = as_matrix(a, "pinv input")
    if rcond is None:
        rcond = np.finfo(np.float64).eps * max(m.shape)
    elif rcond < 0:
        raise ValueError(f"rcond must be >= 0, got {rcond}")
    return np.linalg.pinv(m, rcond=rcond)


def ridge_inverse(g, c):
    """Return (I/c + G)^-1 for square G and positive coefficient c."""
    m = as_matrix(g, "ridge_inverse input")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"ridge_inverse needs a square matrix, got {m.shape}")
    if c <= 0:
        raise ValueError(f"ridge coefficient must be positive, got {c}")
    return np.linalg.inv(np.eye(m.shape[0]) / c + m)


def mse(r):
    """Mean of the squared entries of a matrix."""
    m = as_matrix(r, "mse input")
    return float(np.mean(m * m))


# expit saturates to exactly 0.0 / 1.0 for |x| > ~37; nudge those back so the
# codomain stays the open interval (0, 1).
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid_map(x):
    """Elementwise 1/(1 + exp(-x)); saturates inside (0, 1), never overflows.

    Callers pass pre-activations they computed from validated operands, so
    the input is not checked again.
    """
    return np.clip(expit(x), _SIG_LO, _SIG_HI)


def logit_map(x, clip_eps=1e-7):
    """Elementwise sigmoid inverse -log(1/x - 1) on entries clipped into
    [clip_eps, 1 - clip_eps], so the output is always finite."""
    if not 0.0 < clip_eps < 0.5:
        raise ValueError(f"clip_eps must lie in (0, 0.5), got {clip_eps}")
    xc = np.clip(as_matrix(x, "logit input"), clip_eps, 1.0 - clip_eps)
    return -np.log(1.0 / xc - 1.0)


@dataclass(frozen=True)
class NormParams:
    """Parameters of one (0, 1]-normalization: observed range plus the
    lower target eps.  hi == lo marks the degenerate (constant-input) case."""

    lo: float
    hi: float
    eps: float

    @property
    def degenerate(self):
        return self.hi == self.lo


def normalize_unit(x, eps=1e-4):
    """Affinely map a matrix into [eps, 1] using its global min/max.

    Returns the mapped matrix and the NormParams needed to invert the map.
    A constant input maps to all ones (1 lies in the (0, 1] codomain) and
    the params record the degenerate range.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    m = as_matrix(x, "normalize input")
    lo = float(m.min())
    hi = float(m.max())
    p = NormParams(lo=lo, hi=hi, eps=eps)
    if p.degenerate:
        return np.ones_like(m), p
    return eps + (1.0 - eps) * (m - lo) / (hi - lo), p


def denormalize_unit(y, params):
    """Exact affine inverse of normalize_unit; degenerate params map
    everything back to the recorded constant."""
    m = as_matrix(y, "denormalize input")
    if params.degenerate:
        return np.full_like(m, params.lo)
    return params.lo + (m - params.eps) * (params.hi - params.lo) / (1.0 - params.eps)
