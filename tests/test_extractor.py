"""Extractor tests: projection, readout, feedback, and refinement oracles.

The node-by-node chain on d x M matrices (ls_readout, residual,
error_feedback, refine_node) is the float reference in tests/reference.py;
the layer is checked against it."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoselm.extractor
import hoselm.kernels
import hoselm.pipeline
from hoselm.errors import ShapeError
from hoselm.extractor import (
    ExtractorConfig,
    SubnetNode,
    extract_features,
    factor_inputs,
    project,
    spawn_node,
)
from hoselm.kernels import _normalize_unit, pinv
from hoselm.pipeline import FeatureGroup, PipelineConfig, fit
from reference import LsReadout, error_feedback, ls_readout, refine_node, residual


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


def layer(x, targets, cfg):
    # A layer fitted on its own group's factor.
    return extract_features(x, targets, cfg, factor_inputs(x, targets))


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


def test_ls_readout_drops_what_the_d_by_m_cutoff_drops():
    """h = W x + b with d = 4 rows and M = 2000 columns has a singular
    value between eps min(d, M) and eps max(d, M) of the largest.  The
    readout's cutoff in (n+1)-space is the d x M one, eps max(d, M), so it
    drops that value as T pinv(h) does; keeping it moves the weights by a
    factor of 1e12 or more."""
    rng = np.random.default_rng(0)
    n, d, samples = 3, 4, 2000
    x = rng.standard_normal((n, samples))
    weights = rng.uniform(-1.0, 1.0, (d, n))
    # Rows 1 + 2 - 3 - 4 of h cancel the bias and leave a 1e-12 direction.
    tiny = rng.standard_normal(n)
    weights[3] = weights[0] + weights[1] - weights[2] + 1e-12 * tiny / np.linalg.norm(tiny)
    node = SubnetNode(weights=weights, bias=0.3)
    h = project(node, x)
    s = np.linalg.svd(h, compute_uv=False)
    assert 10 * EPS * d < s[-1] / s[0] < EPS * samples / 10
    targets = rng.standard_normal((2, samples))
    got = ls_readout(node, h, targets, factor_inputs(x, targets)).weights
    rcond = EPS * max(d, samples)
    want = targets @ pinv(h, rcond=rcond)
    assert relative(got, want) <= 1e-9 + 2 * EPS * kept_condition(h, rcond)


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
    want, _, _ = _normalize_unit(h, 1e-4)
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
    want, _, _ = _normalize_unit(pulled + h, 1e-4)
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
    nodes = layer(x, y, cfg)
    assert len(nodes) == 1
    assert nodes[0].weights.shape == (3, 5)
    nodes2 = layer(x, y, cfg)
    assert np.array_equal(nodes[0].weights, nodes2[0].weights)
    assert nodes[0].bias == nodes2[0].bias


def test_extract_features_share_shape():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((6, 20))
    y = rng.standard_normal((3, 20))
    cfg = ExtractorConfig(node_count=4, subspace_dim=5, seed=1)
    nodes = layer(x, y, cfg)
    assert len(nodes) == 4
    assert all(n.weights.shape == (5, 6) and np.isscalar(n.bias) for n in nodes)
    # Independent seeds per node: the layer is not L copies of one node.
    assert not np.array_equal(nodes[0].weights, nodes[1].weights)


@pytest.mark.parametrize("subspace_dim", [3, 12])
def test_layer_factors_once_and_projects_nothing(monkeypatch, subspace_dim):
    # subspace_dim 12 > input_dim + 1 is the rank-deficient regime.
    # factor_inputs takes its QR through the kernels' _qr_r.  The layer
    # looks its steps up on the module, under the names perfbench/tracing.py
    # wraps.
    steps = ("ls_readout", "error_feedback", "refine_node")
    names = {"qr": "_qr_r", "pinv": "pinv", "project": "project", **{s: s for s in steps}}
    calls = dict.fromkeys(names, 0)

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    for kind, name in names.items():
        monkeypatch.setattr(hoselm.extractor, name, counted(kind, getattr(hoselm.extractor, name)))
    rng = np.random.default_rng(31)
    x = rng.standard_normal((6, 40)) + 2.0
    y = rng.standard_normal((3, 40))
    cfg = ExtractorConfig(node_count=3, subspace_dim=subspace_dim, seed=4)
    nodes = layer(x, y, cfg)
    # One QR of [x; 1; T]' (factor_inputs) and one pinv(R11') for the layer;
    # per node each step once, one readout and one feedback pseudoinverse,
    # and no d x M feature.
    assert calls == {"qr": 1, "pinv": 2 * 3 + 1, "project": 0, **dict.fromkeys(steps, 3)}
    assert len(nodes) == 3


def test_warm_layer_fit_holds_no_d_by_m_matrix():
    """The feedback range is taken over blocks of sample columns, so a warm
    layer fit at batch_plus shapes (d = 200, n = 256, M = 5000, 10 classes,
    3 nodes) peaks under one d x M float64 matrix, 8.0 MB, in tracemalloc.
    The range product over all M columns at once peaks near 19 MB."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((256, 5000))
    targets = np.eye(10)[:, rng.integers(0, 10, 5000)]
    cfg = ExtractorConfig(node_count=3, subspace_dim=200)
    factor = factor_inputs(x, targets)
    extract_features(x, targets, cfg, factor)
    tracemalloc.start()
    try:
        extract_features(x, targets, cfg, factor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 5000 * 8


def test_layer_scans_no_sample_sized_matrix(monkeypatch):
    """The layer builds every matrix it takes a pseudoinverse of from
    validated inputs, so it scans none of them, and no normalization
    pass runs over a d x M matrix: as_matrix is never called."""
    shapes = []
    as_matrix = hoselm.kernels.as_matrix

    def spy(a, name="matrix"):
        shapes.append(np.shape(a))
        return as_matrix(a, name)

    monkeypatch.setattr(hoselm.kernels, "as_matrix", spy)
    rng = np.random.default_rng(12)
    samples = 97
    x = rng.standard_normal((7, samples)) + 3.0
    y = np.eye(4)[:, rng.integers(0, 4, samples)]
    layer(x, y, ExtractorConfig(node_count=3, subspace_dim=20, seed=2))
    assert shapes == []


def node_by_node(x, targets, cfg):
    """The layer as the reference chain builds it, one d x M feature per node:
    spawn, project, readout, residual, feedback, and the refinement's
    least squares through pinv(X X').  Returns the refined nodes and the
    readouts' weights."""
    factor = factor_inputs(x, targets)
    gram_pinv = pinv(x @ x.T)
    nodes, readouts = [], []
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.node_count):
        node = spawn_node(x.shape[0], cfg.subspace_dim, seed)
        h = project(node, x)
        readout = ls_readout(node, h, targets, factor)
        e = residual(h, readout, targets)
        feedback = error_feedback(e, readout, h, cfg.norm_eps)
        refined, _ = refine_node(node, x, feedback, cfg.damping, gram_pinv)
        nodes.append(refined)
        readouts.append(readout.weights)
    return nodes, readouts


def kept_condition(a, rcond):
    """Condition number of a over the singular values a pinv at rcond keeps."""
    s = np.linalg.svd(a, compute_uv=False)
    return s[0] / s[s > rcond * s[0]][-1]


def draw_group(draw, rng, n, samples, offset):
    """n x samples inputs offset by `offset`, which may hold a duplicated
    row and a constant row."""
    x = rng.standard_normal((n, samples)) + offset
    if n > 1 and draw(st.booleans()):
        x[-1] = x[0]
    if draw(st.booleans()):
        x[0] = offset + 1.0
    return x


@st.composite
def layer_problems(draw):
    """Inputs, targets and a layer config.  x may hold a duplicated row, a
    constant row and an offset up to 1e3; d may exceed n + 1 and M may be
    smaller than n + 1 + t, so both [x; 1] and [x; 1; T] are often rank
    deficient."""
    n = draw(st.integers(1, 10))
    samples = draw(st.integers(1, 60))
    offset = draw(st.floats(0.0, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw_group(draw, rng, n, samples, offset)
    targets = rng.standard_normal((draw(st.integers(1, 4)), samples))
    cfg = ExtractorConfig(
        node_count=draw(st.integers(1, 3)),
        subspace_dim=draw(st.integers(1, 30)),
        damping=draw(st.floats(0.1, 1.0)),
        seed=draw(st.integers(0, 100)),
    )
    return x, targets, cfg


def assert_within_the_gate(got, want, x, readouts):
    """Each node of got equals its node of want within the equivalence
    gate's bound (see below); readouts are the nodes' readout weights."""
    kx = kept_condition(x, np.sqrt(EPS * x.shape[0]))
    for g, w, readout in zip(got, want, readouts):
        kw = kept_condition(readout, EPS * max(readout.shape))
        tol = 1e-9 + 2 * EPS * (kx**2 + kw)
        assert relative(g.weights, w.weights) <= tol
        assert abs(g.bias - w.bias) <= tol * abs(w.bias)


# Both sides round differently, and two steps amplify that by the
# conditioning of the problem, u the machine epsilon:
# - the chain forms X X', which squares the condition number kx of x (over
#   the singular values pinv(X X') keeps), so it lands up to about u kx^2
#   from the exact chain.  At M = n and an offset of 1e3 that reaches 1e-6,
#   while extract_features stays within 2e-12 of a 50-digit evaluation
#   (see the next test);
# - the pulled-back residual pinv(w) e cancels large terms when the
#   readout w is ill-conditioned, which both sides do in a different order.
# The gate adds 2 u (kx^2 + kw) to its 1e-9.  Over 14355 nodes of random
# draws the largest distance was 0.27 of that bound; 66 of 11015 nodes
# missed 1e-9 alone.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(layer_problems())
def test_extract_features_equals_the_node_by_node_chain(problem):
    x, targets, cfg = problem
    got = layer(x, targets, cfg)
    want, readouts = node_by_node(x, targets, cfg)
    assert len(got) == len(want) == cfg.node_count
    assert_within_the_gate(got, want, x, readouts)


def test_refinement_drops_what_pinv_of_the_gram_drops():
    """Two rows of x within about 1e-8 relative of each other leave a
    singular value between the cutoffs eps n and sqrt(eps n) of the
    largest.  pinv(X X') drops it, and so must the layer's pinv(R11') at
    rcond sqrt(eps n); keeping it moves the weights by a factor of 1e6 or
    more."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 40))
    x[-1] = x[0] * (1.0 + 1e-8 * rng.standard_normal(40))
    s = np.linalg.svd(x, compute_uv=False)
    assert EPS * 5 < s[-1] / s[0] < np.sqrt(EPS * 5) / 4
    targets = rng.standard_normal((3, 40))
    cfg = ExtractorConfig(node_count=2, subspace_dim=8, seed=0)
    want, readouts = node_by_node(x, targets, cfg)
    assert_within_the_gate(layer(x, targets, cfg), want, x, readouts)


@st.composite
def group_problems(draw):
    """Two or three groups of widths 1 to 6 sharing M columns, each in the
    regimes of layer_problems, the first rows of the first two groups
    possibly equal, and a batch config."""
    samples = draw(st.integers(1, 40))
    offset = draw(st.floats(0.0, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    xs = [draw_group(draw, rng, n, samples, offset) for n in widths]
    if draw(st.booleans()):
        xs[1][0] = xs[0][0]
    targets = rng.standard_normal((draw(st.integers(1, 4)), samples))
    cfg = PipelineConfig(
        node_count=draw(st.integers(1, 3)),
        subspace_dim=draw(st.integers(1, 30)),
        damping=draw(st.floats(0.1, 1.0)),
        classifier_nodes=1,
        seed=draw(st.integers(0, 100)),
    )
    return xs, targets, cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(group_problems())
def test_layers_from_the_shared_factor_equal_their_own(problem):
    """fit factors all groups at once and gives each layer the R of a QR
    of its columns of that factor.  Each layer must equal the one fitted
    on the group's own factor_inputs([x_g], T), within the gate's bound."""
    xs, targets, cfg = problem
    calls = []

    def spy(x, t, ecfg, factor):
        calls.append((x, ecfg))
        return extract_features(x, t, ecfg, factor)

    with mock.patch.object(hoselm.pipeline, "extract_features", spy):
        model = fit([FeatureGroup(x=x) for x in xs], targets, cfg)
    assert len(calls) == len(xs)
    assert all(np.array_equal(x, want) for (x, _), want in zip(calls, xs))
    for (x, ecfg), got in zip(calls, model.extractors):
        want = extract_features(x, targets, ecfg, factor_inputs([x], targets))
        _, readouts = node_by_node(x, targets, ecfg)
        assert len(got) == len(want) == cfg.node_count
        assert_within_the_gate(got, want, x, readouts)


def chain_to_50_digits(x, targets, cfg, mp):
    """The chain for a one-node layer whose h, readout and x have full row
    rank, in 50-digit arithmetic; every pseudoinverse is a' (a a')^-1."""
    with mp.workdps(50):
        (n, samples), classes = x.shape, targets.shape[0]
        xm, tm = mp.matrix(x.tolist()), mp.matrix(targets.tolist())
        node = spawn_node(n, cfg.subspace_dim, np.random.SeedSequence(cfg.seed).spawn(1)[0])
        w0 = mp.matrix(node.weights.tolist())
        h = w0 * xm + node.bias * mp.ones(cfg.subspace_dim, samples)
        readout = tm * h.T * mp.inverse(h * h.T)

        def rms(a):
            return mp.sqrt(mp.fsum(v**2 for v in a) / (a.rows * a.cols))

        e = tm - readout * h
        e -= rms(e) * mp.ones(classes, samples)
        g = readout.T * mp.inverse(readout * readout.T) * e + h
        lo, hi = min(g), max(g)
        f = g.apply(lambda v: cfg.norm_eps + (1 - cfg.norm_eps) * (v - lo) / (hi - lo))
        a = f * xm.T * mp.inverse(xm * xm.T)
        weights = a + cfg.damping * (a - w0)
        return np.array(weights.tolist(), dtype=float), float(rms(weights * xm - f))


def test_refine_solve_keeps_the_digits_the_gram_loses():
    """x offset by 1e3 with M = n = 10, so cond(x) is about 5e5: the chain's
    pinv(X X') misses a 50-digit evaluation by more than 1e-7, the layer's
    solve through R11 by less than 1e-11."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 10)) + 1e3
    targets = rng.standard_normal((4, 10))
    cfg = ExtractorConfig(node_count=1, subspace_dim=4, seed=0)
    weights, bias = chain_to_50_digits(x, targets, cfg, mp)
    (got,) = layer(x, targets, cfg)
    (chain,), _ = node_by_node(x, targets, cfg)
    assert relative(got.weights, weights) < 1e-11
    assert abs(got.bias - bias) < 1e-11 * bias
    assert relative(chain.weights, weights) > 1e-7


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


def test_config_rejects_nan_damping_and_norm_eps_outside_the_open_half():
    """The bounds PipelineConfig takes from its extractor_config: a NaN
    damping would give non-finite node weights, and error_feedback's
    normalization and fit_node need norm_eps in (0, 0.5)."""
    with pytest.raises(ValueError, match="damping"):
        ExtractorConfig(node_count=1, subspace_dim=3, damping=np.nan)
    for bad in (0.7, -0.5):
        with pytest.raises(ValueError, match="norm_eps"):
            ExtractorConfig(node_count=1, subspace_dim=3, norm_eps=bad)
