"""Extractor tests: projection, readout, feedback, and refinement oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoselm.extractor
from hoselm.errors import ShapeError
from hoselm.extractor import (
    ExtractorConfig,
    LsReadout,
    SubnetNode,
    error_feedback,
    extract_features,
    factor_inputs,
    ls_readout,
    project,
    refine_node,
    residual,
    spawn_node,
)
from hoselm.kernels import normalize_unit, pinv


EPS = np.finfo(np.float64).eps


def svd_readout(h, targets):
    # The reference the factored readout replaces: one SVD of the d x M feature.
    return targets @ np.linalg.pinv(h, rcond=EPS * max(h.shape))


def relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def readout_of(h, targets):
    # Readout of an arbitrary feature h, as the identity node's projection of h.
    node = SubnetNode(weights=np.eye(h.shape[0]), bias=0.0)
    return ls_readout(node, h, targets, factor_inputs(h, targets))


def readout_rms(node, x, targets):
    h = project(node, x)
    r = ls_readout(node, h, targets, factor_inputs(x, targets))
    return np.linalg.norm(r.weights @ h + r.bias - targets)


def refine(node, x, feedback, damping):
    refined, _ = refine_node(node, x, feedback, damping, pinv(x @ x.T))
    return refined


def test_spawn_deterministic_and_shaped():
    a = spawn_node(4, 3, 99)
    b = spawn_node(4, 3, 99)
    c = spawn_node(4, 3, 100)
    assert a.weights.shape == (3, 4)
    assert np.isscalar(a.bias)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert not np.array_equal(a.weights, c.weights)
    assert np.abs(a.weights).max() <= 1.0 and abs(a.bias) <= 1.0


def test_spawn_rejects_zero_dims():
    with pytest.raises(ValueError):
        spawn_node(0, 3, 1)
    with pytest.raises(ValueError):
        spawn_node(3, 0, 1)


def test_project_identity_and_constant():
    node = SubnetNode(weights=np.eye(3), bias=0.0)
    x = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(project(node, x), x)
    node2 = SubnetNode(weights=np.ones((2, 3)), bias=0.25)
    assert np.array_equal(project(node2, np.zeros((3, 5))), np.full((2, 5), 0.25))


def test_project_matches_elementwise_oracle():
    rng = np.random.default_rng(8)
    node = SubnetNode(weights=rng.standard_normal((3, 4)), bias=0.7)
    x = rng.standard_normal((4, 5))
    got = project(node, x)
    for i in range(3):
        for j in range(5):
            want = sum(node.weights[i, k] * x[k, j] for k in range(4)) + node.bias
            assert abs(got[i, j] - want) < 1e-12


def test_project_rejects_wrong_input_rows():
    node = spawn_node(4, 3, 0)
    with pytest.raises(ShapeError):
        project(node, np.zeros((5, 2)))


def test_ls_readout_exact_on_invertible_feature():
    rng = np.random.default_rng(21)
    h = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    y = rng.standard_normal((2, 4))
    r = readout_of(h, y)
    assert np.linalg.norm(r.weights @ h - y) <= 1e-8
    assert r.bias <= 1e-8


def test_ls_readout_zero_targets():
    r = readout_of(np.ones((2, 3)) + np.diag([1.0, 2.0]) @ np.ones((2, 3)), np.zeros((1, 3)))
    assert np.allclose(r.weights, 0)
    assert r.bias == 0


def test_ls_readout_matches_normal_equations_residual():
    rng = np.random.default_rng(13)
    h = rng.standard_normal((5, 20))
    y = rng.standard_normal((2, 20))
    r = readout_of(h, y)
    # Independent oracle: solve the normal equations row by row.
    oracle = np.linalg.solve(h @ h.T, h @ y.T).T
    got = np.linalg.norm(r.weights @ h - y)
    want = np.linalg.norm(oracle @ h - y)
    assert got <= want + 1e-8


@st.composite
def readout_problems(draw, regime):
    if regime == "full rank":  # d <= n < M
        n = draw(st.integers(2, 12))
        d = draw(st.integers(1, n))
        m = draw(st.integers(n + 2, 60))
    elif regime == "rank deficient":  # d > n + 1 and M > n + 1
        n = draw(st.integers(1, 10))
        d = draw(st.integers(n + 2, n + 30))
        m = draw(st.integers(n + 2, 60))
    else:  # few samples: M < n + 1
        n = draw(st.integers(2, 20))
        d = draw(st.integers(1, 30))
        m = draw(st.integers(1, n))
    classes = draw(st.integers(1, 4))
    offset = draw(st.floats(0.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, m)) + offset
    targets = rng.standard_normal((classes, m))
    node = SubnetNode(weights=rng.uniform(-1.0, 1.0, (d, n)), bias=float(rng.uniform(-1.0, 1.0)))
    return node, x, targets


# The SVD reference carries its own error, which grows with the conditioning
# of h: on the five worst of 5000 random rank-deficient draws it was up to
# 1.6e-10 from a 50-digit solution, while the factored readout stayed within
# 2e-13 of it.
@pytest.mark.parametrize("regime", ["full rank", "rank deficient", "few samples"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_factored_readout_equals_svd_readout(regime, data):
    node, x, targets = data.draw(readout_problems(regime))
    h = project(node, x)
    got = ls_readout(node, h, targets, factor_inputs(x, targets)).weights
    want = svd_readout(h, targets)
    assert relative(got, want) <= 1e-9
    assert relative(got @ h, want @ h) <= 1e-9


def test_factored_readout_with_large_input_offset():
    # Inputs offset by 1e3 with d > n + 1.  Here the plain Gram shortcut
    # (T h') pinv(h h') misses the SVD fit by about 50%, because forming
    # h h' squares the condition number of h; factoring [x; 1] does not.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 300)) + 1e3
    targets = rng.standard_normal((3, 300))
    node = spawn_node(8, 40, 0)
    h = project(node, x)
    got = ls_readout(node, h, targets, factor_inputs(x, targets)).weights
    assert relative(got @ h, svd_readout(h, targets) @ h) <= 1e-6


def test_ls_readout_rejects_mismatched_factor():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 10))
    y = rng.standard_normal((2, 10))
    node = spawn_node(4, 3, 0)
    h = project(node, x)
    with pytest.raises(ShapeError):
        ls_readout(node, h, y, factor_inputs(x[:3], y))
    with pytest.raises(ShapeError):
        ls_readout(node, h, y, factor_inputs(x, y[:1]))


def test_residual_exact_fit_cases():
    rng = np.random.default_rng(34)
    h = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    y = rng.standard_normal((3, 3))
    r = readout_of(h, y)
    e = residual(h, r, y)
    # The bias offsets an otherwise exact fit.
    assert np.abs(e).max() <= r.bias + 1e-8
    y_exact = r.weights @ h + r.bias
    assert np.allclose(residual(h, r, y_exact), 0, atol=1e-12)


def test_residual_affine_identity():
    rng = np.random.default_rng(55)
    h = rng.standard_normal((3, 6))
    r = LsReadout(weights=rng.standard_normal((2, 3)), bias=0.3)
    y1 = rng.standard_normal((2, 6))
    y2 = rng.standard_normal((2, 6))
    lhs = residual(h, r, y1 + y2)
    rhs = residual(h, r, y1) + residual(h, r, y2) + (r.weights @ h + r.bias)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_error_feedback_zero_residual_is_normalized_feature():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 5))
    r = LsReadout(weights=rng.standard_normal((2, 3)), bias=0.0)
    got = error_feedback(np.zeros((2, 5)), r, h, 1e-4)
    want, _ = normalize_unit(h, 1e-4)
    assert np.allclose(got, want, atol=1e-12)


def test_error_feedback_codomain():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 7))
    r = LsReadout(weights=rng.standard_normal((2, 3)), bias=0.1)
    e = rng.standard_normal((2, 7))
    got = error_feedback(e, r, h, 1e-4)
    assert got.shape == (3, 7)
    assert got.min() > 0 and got.max() <= 1


def test_error_feedback_square_invertible_matches_direct_inverse():
    rng = np.random.default_rng(90)
    w = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    r = LsReadout(weights=w, bias=0.0)
    h = rng.standard_normal((3, 6))
    e = rng.standard_normal((3, 6))
    pulled = np.linalg.inv(w) @ e
    want, _ = normalize_unit(pulled + h, 1e-4)
    got = error_feedback(e, r, h, 1e-4)
    assert np.allclose(got, want, atol=1e-9)


def test_refine_recovers_planted_projection():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((4, 30))
    planted = rng.standard_normal((3, 4))
    feedback = planted @ x
    node = spawn_node(4, 3, 5)
    refined = refine(node, x, feedback, 0.0)
    assert np.allclose(refined.weights, planted, atol=1e-8)
    assert refined.bias <= 1e-6


def test_refine_bias_is_rms_misfit():
    rng = np.random.default_rng(61)
    x = rng.standard_normal((4, 12))
    feedback = rng.uniform(0.1, 1.0, size=(3, 12))
    node = spawn_node(4, 3, 6)
    refined = refine(node, x, feedback, 0.5)
    diff = refined.weights @ x - feedback
    want = np.sqrt(np.mean(diff * diff))
    assert abs(refined.bias - want) < 1e-12


def test_refine_damping_extrapolates():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((3, 10))
    feedback = rng.uniform(0.1, 1.0, size=(2, 10))
    node = spawn_node(3, 2, 7)
    base = refine(node, x, feedback, 0.0)
    damped = refine(node, x, feedback, 0.5)
    want = base.weights + 0.5 * (base.weights - node.weights)
    assert np.allclose(damped.weights, want, atol=1e-12)


def test_refine_rejects_mismatched_shapes():
    node = spawn_node(4, 3, 0)
    with pytest.raises(ShapeError):
        refine_node(node, np.zeros((5, 6)), np.zeros((3, 6)), 0.5, np.zeros((5, 5)))
    with pytest.raises(ShapeError):
        refine_node(node, np.zeros((4, 6)), np.zeros((2, 6)), 0.5, np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        refine_node(node, np.zeros((4, 6)), np.zeros((3, 6)), 0.5, np.zeros((5, 5)))


def test_extract_single_node_and_determinism():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 16))
    y = rng.standard_normal((2, 16))
    cfg = ExtractorConfig(node_count=1, subspace_dim=3, seed=11)
    nodes, feats = extract_features(x, y, cfg)
    assert len(nodes) == 1 and len(feats) == 1
    assert feats[0].shape == (3, 16)
    nodes2, feats2 = extract_features(x, y, cfg)
    assert np.array_equal(nodes[0].weights, nodes2[0].weights)
    assert np.array_equal(feats[0], feats2[0])


def test_extract_features_share_shape():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((6, 20))
    y = rng.standard_normal((3, 20))
    cfg = ExtractorConfig(node_count=4, subspace_dim=5, seed=1)
    nodes, feats = extract_features(x, y, cfg)
    assert len(nodes) == len(feats) == 4
    assert all(f.shape == (5, 20) for f in feats)
    # Independent seeds per node: the layer is not L copies of one node.
    assert not np.array_equal(nodes[0].weights, nodes[1].weights)


@pytest.mark.parametrize("subspace_dim", [3, 12])
def test_layer_factors_once_and_features_are_projections(monkeypatch, subspace_dim):
    # subspace_dim 12 > input_dim + 1 is the rank-deficient regime.
    calls = {"pinv": 0, "project": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hoselm.extractor, "pinv", counted("pinv", hoselm.extractor.pinv))
    monkeypatch.setattr(hoselm.extractor, "project", counted("project", project))
    rng = np.random.default_rng(31)
    x = rng.standard_normal((6, 40)) + 2.0
    y = rng.standard_normal((3, 40))
    cfg = ExtractorConfig(node_count=3, subspace_dim=subspace_dim, seed=4)
    nodes, feats = extract_features(x, y, cfg)
    # Per node: one readout and one feedback pseudoinverse, one projection;
    # pinv(X X') once for the layer.
    assert calls == {"pinv": 2 * 3 + 1, "project": 3}
    for node, feat in zip(nodes, feats):
        assert np.array_equal(feat, project(node, x))


@pytest.mark.parametrize("damping", [0.0, 0.5])
def test_refinement_reduces_readout_residual_wide_subspace(damping):
    # Statistical check in the operating regime (more neurons per node than
    # inputs, as in the reference configuration d=100): the post-refinement
    # readout should explain the targets at least as well as the random
    # node's readout on >= 80% of trials.
    rng = np.random.default_rng(202)
    wins = 0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        x = rng.standard_normal((n, 40))
        y = rng.standard_normal((2, 40))
        seed = int(rng.integers(1 << 31))
        cfg = ExtractorConfig(node_count=1, subspace_dim=n + 3, damping=damping, seed=seed)
        node = spawn_node(n, n + 3, seed)
        h0 = project(node, x)
        r0 = ls_readout(node, h0, y, factor_inputs(x, y))
        e0 = residual(h0, r0, y)
        fb = error_feedback(e0, r0, h0, cfg.norm_eps)
        refined = refine(node, x, fb, cfg.damping)
        wins += readout_rms(refined, x, y) <= readout_rms(node, x, y) + 1e-9
    assert wins >= 40


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractorConfig(node_count=0, subspace_dim=3)
    with pytest.raises(ValueError):
        ExtractorConfig(node_count=1, subspace_dim=3, damping=-0.1)
