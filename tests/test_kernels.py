import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hoselm.errors import ShapeError
from hoselm.extractor import extract_features, factor_inputs
from hoselm.kernels import (
    _certified_pinv,
    _logit_map,
    _normalize_unit,
    as_matrix,
    augmented_inputs,
    pinv,
    ridge_inverse,
    sigmoid_map,
)
from hoselm.pipeline import PipelineConfig


def svd_pinv(a, rcond):
    """Independent pseudoinverse oracle built directly from scipy's SVD."""
    u, s, vt = scipy.linalg.svd(a, full_matrices=False)
    cutoff = rcond * s.max() if s.size else 0.0
    inv_s = np.array([1.0 / x if x > cutoff else 0.0 for x in s])
    return vt.T @ np.diag(inv_s) @ u.T


def penrose_residuals(a, a_pinv):
    aa = a @ a_pinv
    bb = a_pinv @ a
    na = max(np.linalg.norm(a), 1e-300)
    np_ = max(np.linalg.norm(a_pinv), 1e-300)
    return (
        np.linalg.norm(a @ a_pinv @ a - a) / na,
        np.linalg.norm(a_pinv @ a @ a_pinv - a_pinv) / np_,
        np.linalg.norm(aa.T - aa) / max(np.linalg.norm(aa), 1e-300),
        np.linalg.norm(bb.T - bb) / max(np.linalg.norm(bb), 1e-300),
    )


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_complex_rather_than_drop_the_imaginary_part(self):
        for a in (np.ones((2, 3)) + 5j, np.ones((2, 3), dtype=np.complex64), [[1.0, 2j]]):
            with pytest.raises(ValueError, match="request is complex"):
                as_matrix(a, "request")

    @pytest.mark.parametrize(
        "a",
        [np.array([["1.5", "2"]]), np.array([[b"1.5", b"2"]]), np.array([[1.5, 2]], dtype=object)],
        ids=["str", "bytes", "object"],
    )
    def test_rejects_arrays_that_are_not_real_numbers_rather_than_cast_them(self, a):
        match = re.escape(f"request is not real numbers, got dtype {a.dtype}")
        with pytest.raises(ValueError, match=match):
            as_matrix(a, "request")

    def test_casts_bool_and_integer_arrays(self):
        for dtype in (bool, np.uint8, np.int64):
            m = as_matrix(np.array([[1, 0]], dtype=dtype))
            assert m.dtype == np.float64 and m.tolist() == [[1.0, 0.0]]


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_zero_singular_value_maps_to_zero(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_penrose_conditions_random(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 3))
        r = penrose_residuals(a, pinv(a))
        assert max(r) <= 1e-10

    def test_matches_independent_svd_oracle(self):
        rng = np.random.default_rng(1)
        for shape in [(4, 7), (7, 4), (6, 6)]:
            a = rng.normal(size=shape)
            rcond = np.finfo(np.float64).eps * max(shape)
            assert np.allclose(pinv(a), svd_pinv(a, rcond), atol=1e-12)

    def test_rank_deficient(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
        r = penrose_residuals(a, pinv(a))
        assert max(r) <= 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            pinv([[np.inf, 1.0], [0.0, 1.0]])

    def test_rejects_negative_rcond(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), rcond=-1.0)


class TestRidgeInverse:
    def test_zero_gram(self):
        assert np.allclose(ridge_inverse(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_identity_gram(self):
        assert np.allclose(ridge_inverse(np.eye(2), 1.0), 0.5 * np.eye(2))

    def test_multiply_back_spd(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(4, 4))
        g = b @ b.T
        c = 7.5
        prod = ridge_inverse(g, c) @ (np.eye(4) / c + g)
        assert np.allclose(prod, np.eye(4), atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            ridge_inverse(np.ones((2, 3)), 1.0)

    def test_rejects_nonpositive_coeff(self):
        with pytest.raises(ValueError):
            ridge_inverse(np.eye(2), 0.0)


class TestSigmoidLogit:
    def test_sigmoid_at_zero(self):
        assert sigmoid_map([[0.0]])[0, 0] == pytest.approx(0.5)
        assert sigmoid_map(0.0) == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        y = sigmoid_map([[1e3, -1e3]])
        assert np.all(np.isfinite(y))
        assert 0.0 < y[0, 1] < y[0, 0] < 1.0
        # Saturation stays inside the open interval, at infinity too.
        y = sigmoid_map(np.array([[-np.inf, -1e3, 1e3, np.inf]]))
        assert np.all((0.0 < y) & (y < 1.0))
        assert np.array_equal(y, [[y[0, 0], y[0, 0], y[0, 3], y[0, 3]]])

    def test_sigmoid_is_within_one_ulp_of_expit(self):
        # Absolute error: only that reaches the scores.
        x = np.linspace(-40.0, 40.0, 2_000_001).reshape(1, -1)
        assert np.max(np.abs(sigmoid_map(x) - expit(x))) <= np.spacing(1.0)

    def test_sigmoid_keeps_nan(self):
        y = sigmoid_map(np.array([[np.nan, 0.0]]))
        assert np.isnan(y[0, 0]) and y[0, 1] == 0.5

    def test_sigmoid_leaves_its_input_alone(self):
        x = np.array([[-1.0, 2.0]])
        sigmoid_map(x)
        assert np.array_equal(x, [[-1.0, 2.0]])

    def test_logit_at_half(self):
        assert _logit_map(np.array([[0.5]]))[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_logit_clips_zero(self):
        expected = -math.log(1.0 / 1e-7 - 1.0)
        assert _logit_map(np.array([[0.0]]))[0, 0] == pytest.approx(expected)
        assert expected == pytest.approx(-16.1181, abs=1e-3)

    def test_round_trip_sigmoid_of_logit(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.01, 0.99, size=(3, 5))
        assert np.allclose(sigmoid_map(_logit_map(x)), x, atol=1e-9)

    def test_round_trip_logit_of_sigmoid(self):
        assert _logit_map(sigmoid_map([[2.0]]))[0, 0] == pytest.approx(2.0, abs=1e-9)


class TestNormalization:
    def test_endpoints(self):
        y, lo, hi = _normalize_unit(np.array([[0.0, 1.0]]))
        assert y[0, 0] == pytest.approx(1e-4)
        assert y[0, 1] == pytest.approx(1.0)
        assert (lo, hi) == (0.0, 1.0)

    def test_constant_matrix_maps_to_ones(self):
        y, lo, hi = _normalize_unit(np.array([[5.0, 5.0]]))
        assert np.all(y == 1.0)
        assert lo == hi

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6)) * 10.0
        y, lo, hi = _normalize_unit(x)
        assert np.all((y >= 1e-4) & (y <= 1.0 + 1e-15))
        back = lo + (y - 1e-4) * (hi - lo) / (1.0 - 1e-4)
        assert np.allclose(back, x, rtol=1e-10, atol=1e-10)


def test_penrose_conditions_sweep_up_to_50x50():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        a = rng.normal(size=(rows, cols))
        if rng.random() < 0.4:  # make some rank-deficient
            k = max(1, min(rows, cols) // 2)
            a = rng.normal(size=(rows, k)) @ rng.normal(size=(k, cols))
        assert max(penrose_residuals(a, pinv(a))) <= 1e-9


EPS = np.finfo(np.float64).eps


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes np.linalg.pinv (the SVD route) and the SVDs get."""
    seen = []
    for module, name in ((np.linalg, "pinv"), (np.linalg, "svd"), (scipy.linalg, "svd")):
        fn = getattr(module, name)

        def spy(a, *args, _fn=fn, **kwargs):
            seen.append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@st.composite
def well_conditioned(draw):
    """A tall, wide or square matrix U diag(s) V' of full rank, with its
    singular values spread over a condition number up to 1e6."""
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 30))
    cond = 10.0 ** draw(st.floats(0.0, 6.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = scale * np.geomspace(1.0, cond, k)
    return (u * s) @ v.T, s.max() / s.min()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=well_conditioned())
def test_certified_route_is_the_svd_pseudoinverse(case):
    """Well-conditioned inputs pass the certificate, and the QR route
    returns np.linalg.pinv's result within 1e-12 cond relative and meets
    the four Penrose conditions to the same bound."""
    a, cond = case
    rcond = EPS * max(a.shape)
    got = _certified_pinv(a, rcond)
    assert got is not None
    assert rel_err(got, np.linalg.pinv(a, rcond=rcond)) <= 1e-12 * cond
    assert max(penrose_residuals(a, got)) <= 1e-12 * cond


def takes_the_svd_route(a, rcond, svd_calls):
    """pinv(a, rcond) calls np.linalg.pinv and returns its result bit for bit."""
    want = np.linalg.pinv(a, rcond=rcond)
    svd_calls.clear()
    got = pinv(a, rcond)
    return svd_calls == [a.shape] and np.array_equal(got, want)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("shape", [(20, 30), (25, 25), (200, 257)])
def test_duplicated_rows_take_the_svd_route(svd_calls, shape, transpose):
    """A wide or square matrix with a duplicated row (or its transpose,
    with a duplicated column) is rank deficient; the certificate fails and
    pinv returns the SVD route's result."""
    rng = np.random.default_rng(shape[1])
    a = rng.uniform(-1.0, 1.0, shape)
    a[7] = a[2]
    a = a.T if transpose else a
    assert takes_the_svd_route(a, EPS * max(a.shape), svd_calls)


def near_duplicate_layer(n=12, samples=80, seed=4):
    """Inputs whose rows 3 and 8 agree within 1e-8 relative, and the
    layer's triangle R11' from their factor."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, samples)) + 1.0
    x[8] = x[3] * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, samples))
    targets = np.eye(3)[:, np.arange(samples) % 3]
    return x, targets, factor_inputs(x, targets)[:n, :n].T


def test_near_duplicate_rows_take_the_svd_route_at_the_refinement_cutoff(svd_calls):
    """Rows within 1e-8 relative of each other leave R11 a singular value
    below the refinement's cutoff sqrt(eps n): the triangle takes the SVD
    route and the same pseudoinverse as before."""
    x, _, tri = near_duplicate_layer()
    assert takes_the_svd_route(tri, np.sqrt(EPS * x.shape[0]), svd_calls)


def test_near_duplicate_rows_stay_above_the_readout_cutoff():
    """At the readout's cutoff eps max(d, M) the same near-duplicate rows
    keep their singular value under the SVD too, so the certified route
    holds and agrees with it within 1e-12 cond relative."""
    x, _, tri = near_duplicate_layer()
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (20, tri.shape[0])) @ tri
    rcond = EPS * max(20, x.shape[1])
    assert _certified_pinv(a, rcond) is not None
    assert rel_err(pinv(a, rcond), np.linalg.pinv(a, rcond=rcond)) <= 1e-12 * np.linalg.cond(a)


@pytest.mark.parametrize("transpose", [False, True])
def test_rank_deficient_features_take_the_svd_route(svd_calls, transpose):
    """A feature h = W x + b with d > n + 1 has rank n + 1 below both of its
    sides; its pseudoinverse at the readout cutoff comes from the SVD."""
    rng = np.random.default_rng(6)
    n, d, samples = 5, 12, 40
    x = rng.standard_normal((n, samples))
    h = rng.uniform(-1.0, 1.0, (d, n)) @ x + rng.uniform(-1.0, 1.0)
    h = h.T if transpose else h
    assert takes_the_svd_route(h, EPS * max(d, samples), svd_calls)


def test_a_well_conditioned_layer_takes_no_svd(svd_calls):
    """A layer at batch_plus shapes (256 inputs, 200-neuron nodes, 10
    classes) on well-conditioned inputs takes every pseudoinverse, the
    readouts' and the triangle's, by the certified route."""
    rng = np.random.default_rng(7)
    samples = 600
    labels = np.arange(samples) % 10
    x = rng.standard_normal((256, samples)) + 0.5 * np.eye(256, 10)[:, labels]
    targets = np.eye(10)[:, labels]
    cfg = PipelineConfig(node_count=3, subspace_dim=200, seed=1)
    nodes = extract_features(x, targets, cfg, factor_inputs(x, targets))
    assert len(nodes) == 3
    assert svd_calls == []


@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_augmented_inputs_stacks_every_layout(order):
    """The blocked copy gives [x_1; x_2; 1; T]' for C-ordered,
    Fortran-ordered and strided groups, over a sample count that is not a
    whole number of blocks."""
    rng = np.random.default_rng(9)
    samples = 300
    layouts = {
        "C": lambda m: m[:, :samples].copy(),
        "F": lambda m: np.asfortranarray(m[:, :samples]),
        "strided": lambda m: m[:, ::2],
    }
    mats = [layouts[order](rng.standard_normal((w, 2 * samples))) for w in (5, 3)]
    targets = np.eye(2)[:, np.arange(samples) % 2]
    out = augmented_inputs(mats, targets)
    assert out.flags.f_contiguous
    assert np.array_equal(out, np.vstack((*mats, np.ones((1, samples)), targets)).T)
