"""Batch readout fitted on a thin factor of the combined feature.

When the combined feature H (D x M) has more rows than the stacked inputs
plus one (k), pipeline.fit fits the classifier on H = C Q' with Q an M x k
orthonormal basis and never forms H.  These tests hold that route to an
independent SVD reference and pin when it is taken.
"""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hoselm.classifier
import hoselm.pipeline
from hoselm.classifier import decode_labels, fit_classifier, fit_node, score
from hoselm.errors import ShapeError
from hoselm.extractor import project
from hoselm.kernels import logit_map, normalize_unit, ridge_inverse
from hoselm.pipeline import FeatureGroup, PipelineConfig, fit, predict

# The package re-exports the function combine under the submodule's name.
combine_module = importlib.import_module("hoselm.combine")


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def combined_feature(model, groups):
    feats = [project(n, g.x) for nodes, g in zip(model.extractors, groups) for n in nodes]
    return combine_module.combine(feats, model.combine_spec)


def svd_ridge_weights(h, z, coeff):
    """argmin_W |W H - Z|^2 + |W|^2 / c, as the SVD least-squares solution of
    [H'; I/sqrt(c)] W' = [Z'; 0]."""
    dim = h.shape[0]
    a = np.vstack((h.T, np.eye(dim) / np.sqrt(coeff)))
    b = np.vstack((z.T, np.zeros((dim, z.shape[0]))))
    return np.linalg.lstsq(a, b, rcond=None)[0].T


@st.composite
def wide_fits(draw):
    """Groups, one-hot targets and a batch config whose combined feature is
    wider than the stacked inputs plus one.

    Inputs may share a row across groups, hold a constant row, carry an
    offset up to 1e3, and have fewer samples than k, so [x_1; ...; 1] is
    often rank deficient.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    operator = draw(st.sampled_from(["plus", "concat"]))
    node_count = draw(st.integers(1, 3))
    subspace_dim = draw(st.integers(1, 12))
    rows = subspace_dim * (node_count * len(widths) if operator == "concat" else 1)
    assume(rows > sum(widths) + 1)
    samples = draw(st.integers(1, 30))
    offset = draw(st.floats(0.0, 1e3))
    xs = [rng.standard_normal((n, samples)) + offset for n in widths]
    if len(xs) > 1 and draw(st.booleans()):
        xs[-1][0] = xs[0][0]
    if draw(st.booleans()):
        xs[0][-1] = offset + 1.0
    classes = draw(st.integers(2, 4))
    targets = np.eye(classes)[:, rng.integers(0, classes, samples)]
    cfg = PipelineConfig(
        node_count=node_count,
        subspace_dim=subspace_dim,
        operator=operator,
        gamma=draw(st.floats(-2.0, 2.0).filter(lambda g: g != 1.0)),
        coeff=draw(st.sampled_from([1.0, 100.0, 1e4])),
        classifier_nodes=1,
        seed=draw(st.integers(0, 100)),
    )
    return [FeatureGroup(x=x) for x in xs], targets, cfg


@given(wide_fits())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_factored_readout_equals_svd_reference(case):
    """The first node's ridge weights against the SVD solution on the
    formed feature: fitted values W H within 1e-9 relative; weights within
    1e-6 relative plus 10 u kappa^2, with kappa^2 = 1 + c |H|^2 and u the
    machine epsilon.

    The second term is the weights' own sensitivity: lstsq of a
    large-residual least-squares problem carries an error of order
    u kappa^2.  With inputs offset by ~1e3 and c = 1e4, every
    double-precision solve, this reference included, lands up to a few
    u kappa^2 (1e-6 to 1e-4) from a 50-digit solution.  Fitted values do
    not suffer from it.
    """
    groups, targets, cfg = case
    model = fit(groups, targets, cfg)
    h = combined_feature(model, groups)
    z = logit_map(normalize_unit(targets, cfg.norm_eps)[0])
    want = svd_ridge_weights(h, z, cfg.coeff)
    (node,) = model.readout.nodes
    assert node.weights.shape == want.shape
    assert rel_err(node.weights @ h, want @ h) < 1e-9
    kappa_sq = 1.0 + cfg.coeff * np.linalg.norm(h, 2) ** 2
    assert rel_err(node.weights, want) < 1e-6 + 10 * np.finfo(np.float64).eps * kappa_sq


def three_groups(samples=240, classes=4, seed=21):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, samples)
    groups = [
        FeatureGroup(
            x=np.eye(n)[:, labels % n] + 0.4 * rng.standard_normal((n, samples)), name=f"g{n}"
        )
        for n in (4, 6, 8)
    ]
    return groups, np.eye(classes)[:, labels], labels


@pytest.fixture
def readout_calls(monkeypatch):
    """Records combine calls and the shapes the classifier inverts."""
    calls = {"combine": 0, "ridge_inverse": []}

    def counted_combine(fn):
        def wrapped(*args, **kwargs):
            calls["combine"] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module in (combine_module, hoselm.pipeline):
        monkeypatch.setattr(module, "combine", counted_combine(module.combine))

    def counted_ridge(g, c):
        calls["ridge_inverse"].append(g.shape)
        return ridge_inverse(g, c)

    monkeypatch.setattr(hoselm.classifier, "ridge_inverse", counted_ridge)
    return calls


def test_wide_batch_fit_takes_the_factored_path(readout_calls):
    groups, targets, _ = three_groups()
    cfg = PipelineConfig(node_count=3, subspace_dim=20, operator="concat", classifier_nodes=6)
    model = fit(groups, targets, cfg)
    k = sum(g.x.shape[0] for g in groups) + 1
    assert model.readout.feature_dim == 3 * 3 * 20 > k
    assert readout_calls["combine"] == 0
    assert readout_calls["ridge_inverse"] == [(k, k)]
    h = combined_feature(model, groups)
    formed = fit_classifier(h, targets, cfg.classifier_nodes, cfg.coeff, cfg.norm_eps)
    assert len(model.readout.nodes) == len(formed.nodes) == cfg.classifier_nodes


@pytest.mark.parametrize("subspace_dim", [10, 19])
def test_narrow_batch_fit_combines_the_features(readout_calls, subspace_dim):
    groups, targets, _ = three_groups()
    cfg = PipelineConfig(node_count=3, subspace_dim=subspace_dim, classifier_nodes=6)
    fit(groups, targets, cfg)
    assert readout_calls["combine"] == 1
    assert readout_calls["ridge_inverse"] == [(subspace_dim, subspace_dim)]


def test_factored_concat_labels_equal_the_formed_readout():
    groups, targets, labels = three_groups(seed=4)
    cfg = PipelineConfig(node_count=3, subspace_dim=20, operator="concat", classifier_nodes=8)
    model = fit(groups, targets, cfg)
    h = combined_feature(model, groups)
    formed = fit_classifier(h, targets, cfg.classifier_nodes, cfg.coeff, cfg.norm_eps)
    want = decode_labels(score(formed, h))
    assert np.array_equal(predict(model, groups), want)
    assert np.mean(want == labels) > 0.9


def random_factor(rng, rows=12, width=5, samples=30):
    c = rng.standard_normal((rows, width))
    q, _ = np.linalg.qr(rng.standard_normal((samples, width)))
    return c, q


def test_fit_classifier_on_a_factor_matches_the_formed_features(readout_calls):
    rng = np.random.default_rng(31)
    c, q = random_factor(rng)
    targets = np.eye(3)[:, rng.integers(0, 3, q.shape[0])]
    got = fit_classifier(c, targets, 4, 100.0, basis=q)
    want = fit_classifier(c @ q.T, targets, 4, 100.0)
    assert readout_calls["ridge_inverse"] == [(5, 5), (12, 12)]
    assert got.feature_dim == want.feature_dim == 12
    assert len(got.nodes) == len(want.nodes) == 4
    for a, b in zip(got.nodes, want.nodes):
        assert np.allclose(a.weights, b.weights, rtol=1e-9, atol=1e-9)
        assert np.isclose(a.step, b.step, rtol=1e-9)
    assert np.allclose(score(got, c @ q.T), score(want, c @ q.T), atol=1e-9)


def test_fit_classifier_inverts_the_sample_gram_when_features_are_wide(readout_calls):
    """With more feature rows than samples, the M x M Gram is inverted; the
    node equals the one fitted through the D x D inverse."""
    rng = np.random.default_rng(37)
    h = rng.standard_normal((15, 8))
    targets = np.eye(2)[:, rng.integers(0, 2, 8)]
    (got,) = fit_classifier(h, targets, 1, 100.0).nodes
    assert readout_calls["ridge_inverse"] == [(8, 8)]
    want, _ = fit_node(h, targets, ridge_inverse(h @ h.T, 100.0))
    assert np.allclose(got.weights, want.weights, rtol=1e-9, atol=1e-12)


def test_factored_node_shape_errors():
    rng = np.random.default_rng(41)
    c, q = random_factor(rng)
    e = rng.standard_normal((2, q.shape[0]))
    gram_inv = ridge_inverse(c.T @ c, 100.0)
    fit_node(c, e, gram_inv, basis=q)
    with pytest.raises(ShapeError):
        fit_node(c, e, gram_inv, basis=q[:, :4])
    with pytest.raises(ShapeError):
        fit_node(c, e[:, :-1], gram_inv, basis=q)
    with pytest.raises(ShapeError):
        fit_node(c, e, np.eye(7), basis=q)
