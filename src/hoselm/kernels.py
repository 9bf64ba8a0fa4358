"""Dense-matrix primitives and scalar nonlinearities.

Everything downstream (random-feature networks, the subnetwork extractor,
the greedy classifier, the sequential readout) is built from the handful of
operations here: pseudoinverse, ridge-regularized inverse, sigmoid / logit,
the (0, 1]-normalization, the stacked inputs [x_1; ...; x_G; 1]' (with the
targets' rows appended for the extractor) and the R of their QR
factorization.

Every QR here is LAPACK's compact-WY Householder QR (dgeqrt), with column
blocks of min(32, rows, cols).  pinv has two routes to the same
Moore-Penrose pseudoinverse, whose Penrose conditions acceptance criterion
1 pins.  The certified route takes the QR of a's tall orientation (a
triangle is its own R) and the triangle's inverse, and returns R^-1 Q'
(transposed for a wide a) when ||R||_F ||R^-1||_F rcond < 1/2: that bound
proves cond_2(a) < 1/rcond, so no singular value reaches the cutoff and
R^-1 Q' is the pseudoinverse.  Every other input, such as one with
duplicated rows or a rank below its smaller side, takes the plain SVD
route, np.linalg.pinv at the same cutoff.  Callers keep the inputs small:
a fit factors its inputs once and the extractor takes its per-node
pseudoinverses in (n+1)-space.  No fit calls ridge_inverse: the batch
classifier's ridge inverse is a diagonal from an SVD the fit takes anyway
(see hoselm.pipeline.fit).

The public helpers validate their inputs; _integer is the package's one
rule for counts, config seeds and column indices, and _labels its one rule
for class labels.  The pseudoinverse also has an unchecked private core,
and the logit and the normalization have only one: callers pass them
matrices they built or checked.

All matrices are dense float64 numpy arrays, samples as columns.
"""

import numbers

import numpy as np
from scipy.linalg.lapack import dgemqrt, dgeqrt, dtrtri

from .errors import ShapeError

__all__ = [
    "as_matrix",
    "augmented_inputs",
    "pinv",
    "ridge_inverse",
    "sigmoid_map",
]

_EPS = np.finfo(np.float64).eps
# Column block of every QR; LAPACK's dgeqrt needs it <= min(rows, cols).
_QR_BLOCK = 32
# Sample columns per block of augmented_inputs' transposing copy.
_COPY_BLOCK = 128
# The logit's inputs are clipped this far inside (0, 1).
_LOGIT_CLIP = 1e-7


def as_matrix(a, name="matrix"):
    """Validate and return a real `a` as a non-empty, finite, 2-D float64 array."""
    m = np.asarray(a)
    if m.dtype.kind not in "biuf":
        what = "complex" if m.dtype.kind == "c" else "not real numbers"
        raise ValueError(f"{name} is {what}, got dtype {m.dtype}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def _integer(value, what, low, error=ValueError):
    """value as a Python int >= low (bools and floats are not), or error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _labels(labels, name, error=ValueError):
    """labels as an int array, or error naming name unless they are bool,
    integer or float and every one is integer-valued with |label| < 2**63,
    so the int64 cast neither warns nor wraps."""
    a = np.asarray(labels)
    if a.dtype.kind not in "biuf":
        raise error(f"{name} must be integer-valued, got dtype {a.dtype}")
    if a.dtype.kind in "fu":
        # NaN, Inf and an unsigned label the cast would wrap fail the bound.
        bad = ~((np.abs(a) < 2**63) & (a == np.round(a)))
        if bad.any():
            raise error(f"{name} must be integer-valued, below 2**63 in magnitude, got {a[bad][:5]}")
    return a.astype(int, copy=False)


def augmented_inputs(mats, targets=None):
    """[x_1; ...; x_G; 1]' for validated groups sharing M sample columns,
    or [x_1; ...; x_G; 1; T]' when targets T are given.

    The M x (sum of group rows + 1 + target rows) result is written straight
    into Fortran order, whatever the operands' layout, so LAPACK can factor
    it in place without another M-sized copy.  A C-ordered operand is one
    straight copy; any other is a transposing copy, made in blocks of
    _COPY_BLOCK sample columns that stay in cache.
    """
    samples = mats[0].shape[1]
    tail = () if targets is None else (targets,)
    parts = (*mats, np.ones((1, samples)), *tail)
    rows = np.cumsum([0] + [p.shape[0] for p in parts])
    out = np.empty((samples, rows[-1]), order="F")
    for p, lo, hi in zip(parts, rows, rows[1:]):
        step = samples if p.flags.c_contiguous else _COPY_BLOCK
        for c in range(0, samples, step):
            out[c : c + step, lo:hi] = p[:, c : c + step].T
    return out


def _wy_qr(a, overwrite=False):
    """Compact-WY Householder QR a = Q R (LAPACK dgeqrt): the reflectors,
    with R in their upper triangle, and the block reflector factors."""
    v, t, _ = dgeqrt(min(_QR_BLOCK, *a.shape), a, overwrite_a=overwrite)
    return v, t


def _qr_r(a):
    """R of the thin QR of an M x K Fortran-ordered a, which is factored in
    place: min(M, K) x K and upper triangular; Q is never built."""
    v, _ = _wy_qr(a, overwrite=True)
    return np.triu(v[: min(a.shape)])


def pinv(a, rcond=None):
    """Moore-Penrose pseudoinverse.

    Singular values at or below ``rcond * s_max`` are treated as zero.
    Default rcond is machine epsilon times max(rows, cols).  A well
    conditioned a takes the certified QR route, any other the SVD (see the
    module docstring).
    """
    m = as_matrix(a, "pinv input")
    if rcond is not None and rcond < 0:
        raise ValueError(f"rcond must be >= 0, got {rcond}")
    return _pinv(m, rcond)


def _pinv(a, rcond=None):
    """pinv without its checks, for callers that built a."""
    if rcond is None:
        rcond = _EPS * max(a.shape)
    certified = _certified_pinv(a, rcond)
    return np.linalg.pinv(a, rcond=rcond) if certified is None else certified


def _certified_pinv(a, rcond):
    """R^-1 Q' from the QR of a's tall orientation, transposed back for a
    wide a, or None unless ||R||_F ||R^-1||_F rcond < 1/2.  A square
    triangular a is its own R."""
    rows, cols = a.shape
    if rows == cols and not np.any(np.tril(a, -1)):
        return _certified_inverse(a, rcond, lower=False)
    if rows == cols and not np.any(np.triu(a, 1)):
        return _certified_inverse(a, rcond, lower=True)
    tall = rows >= cols
    v, t = _wy_qr(a if tall else a.T)
    k = min(rows, cols)
    r_inv = _certified_inverse(np.triu(v[:k]), rcond, lower=False)
    if r_inv is None:
        return None
    c = np.zeros(v.shape, order="F")
    c[:k] = r_inv.T
    q_r_inv, _ = dgemqrt(v, t, c, overwrite_c=True)  # Q R^-T
    return q_r_inv.T if tall else q_r_inv


def _certified_inverse(r, rcond, lower):
    """The inverse of triangle r (LAPACK dtrtri) if its Frobenius condition
    times rcond is below 1/2, else None; a NaN or Inf bound fails.  1 would
    prove as much in exact arithmetic: 1/2 is a margin for rounding, and no
    test tells the two apart, since between them both routes agree up to it."""
    r_inv, info = dtrtri(r, lower=lower)
    if info == 0 and np.linalg.norm(r) * np.linalg.norm(r_inv) * rcond < 0.5:
        return r_inv
    return None


def ridge_inverse(g, c):
    """Return (I/c + G)^-1 for square G and positive coefficient c."""
    m = as_matrix(g, "ridge_inverse input")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"ridge_inverse needs a square matrix, got {m.shape}")
    if c <= 0:
        raise ValueError(f"ridge coefficient must be positive, got {c}")
    return np.linalg.inv(np.eye(m.shape[0]) / c + m)


# 1/2 + tanh(x/2)/2 rounds to exactly 0.0 / 1.0 for |x| > ~37; nudge those
# back so the codomain stays the open interval (0, 1).
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid_map(x, out=None):
    """Elementwise 1/(1 + exp(-x)) as 1/2 + tanh(x/2)/2 in out (one new
    array by default; out=x works in place): within ulp(1) of it in absolute
    (not far-tail relative) terms, inside (0, 1), never overflows, keeps
    NaN.  Callers pass pre-activations they computed from validated
    operands, so the input is not checked again."""
    y = np.multiply(x, 0.5, out=np.empty(np.shape(x)) if out is None else out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return np.clip(y, _SIG_LO, _SIG_HI, out=y)


def _logit_map(x):
    """Elementwise sigmoid inverse -log(1/x - 1) on the entries of x clipped
    into [_LOGIT_CLIP, 1 - _LOGIT_CLIP], so the output is always finite."""
    xc = np.clip(x, _LOGIT_CLIP, 1.0 - _LOGIT_CLIP)
    return -np.log(1.0 / xc - 1.0)


def _normalize_unit(x, eps):
    """Affinely map x into [eps, 1] by its global min lo and max hi; return
    (scaled, lo, hi).  A constant input (lo == hi) maps to all ones (1 lies
    in the (0, 1] codomain)."""
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        return np.ones_like(x), lo, hi
    return eps + (1.0 - eps) * (x - lo) / (hi - lo), lo, hi
