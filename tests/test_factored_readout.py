"""Batch readout fitted on rotated coordinates of the combined feature.

Whatever the shape of the combined feature H (D x M), pipeline.fit fits
the classifier on the coordinates Y = U'H in an orthonormal basis U of H's
columns and never forms H.  These tests hold that route to an independent
SVD reference on every shape and pin what it computes.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoselm.classifier
import hoselm.extractor
import hoselm.pipeline
from hoselm.classifier import decode_labels, fit_classifier, score
from hoselm.extractor import project
from hoselm.kernels import _logit_map, _normalize_unit, ridge_inverse
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
def batch_fits(draw):
    """Groups, one-hot targets and a batch config.  The combined feature may
    have more or fewer rows than min(k, M), k the stacked inputs' rows plus
    one and M the sample count.

    Inputs may share a row across groups, hold a constant row, carry an
    offset up to 1e3, and have fewer samples than k, so [x_1; ...; 1] is
    often rank deficient.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    operator = draw(st.sampled_from(["plus", "concat"]))
    node_count = draw(st.integers(1, 3))
    subspace_dim = draw(st.integers(1, 12))
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


@given(batch_fits())
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
    z = _logit_map(_normalize_unit(targets)[0])
    want = svd_ridge_weights(h, z, cfg.coeff)
    (weights,) = model.readout.weights
    assert weights.shape == want.shape
    assert rel_err(weights @ h, want @ h) < 1e-9
    kappa_sq = 1.0 + cfg.coeff * np.linalg.norm(h, 2) ** 2
    assert rel_err(weights, want) < 1e-6 + 10 * np.finfo(np.float64).eps * kappa_sq


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
    """Records combine calls, every inverse or solve (the classifier's
    ridge_inverse, np.linalg.inv and np.linalg.solve), and the coordinates
    and ridge inverse each fit_classifier call is handed."""
    calls = {"combine": 0, "inverse": [], "fitted": []}

    def counted_combine(fn):
        def wrapped(*args, **kwargs):
            calls["combine"] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module in (combine_module, hoselm.pipeline):
        monkeypatch.setattr(module, "combine", counted_combine(module.combine))

    def counted_inverse(name, fn):
        def wrapped(*args, **kwargs):
            calls["inverse"].append(name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        hoselm.classifier, "ridge_inverse", counted_inverse("ridge_inverse", ridge_inverse)
    )
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counted_inverse(name, getattr(np.linalg, name)))

    def fit_spy(y, targets, node_count, gram_inv):
        calls["fitted"].append((y, gram_inv))
        return fit_classifier(y, targets, node_count, gram_inv)

    monkeypatch.setattr(hoselm.pipeline, "fit_classifier", fit_spy)
    return calls


def handed_ridge_inverse(calls, coeff):
    """The coordinates y the one fit_classifier call got, after checking
    that its ridge inverse is within 1e-12 of the one formed from y."""
    ((y, gram_inv),) = calls["fitted"]
    assert rel_err(gram_inv, ridge_inverse(y @ y.T, coeff)) < 1e-12
    return y


def test_wide_batch_fit_takes_the_factored_path(readout_calls):
    groups, targets, _ = three_groups()
    cfg = PipelineConfig(node_count=3, subspace_dim=20, operator="concat", classifier_nodes=6)
    model = fit(groups, targets, cfg)
    k = sum(g.x.shape[0] for g in groups) + 1
    assert model.readout.feature_dim == 3 * 3 * 20 > k
    assert readout_calls["combine"] == 0
    assert readout_calls["inverse"] == []
    y = handed_ridge_inverse(readout_calls, cfg.coeff)
    assert y.shape[0] == k
    h = combined_feature(model, groups)
    formed = fit_classifier(h, targets, cfg.classifier_nodes, ridge_inverse(h @ h.T, cfg.coeff))
    assert len(model.readout.step) == len(formed.step) == cfg.classifier_nodes


@pytest.mark.parametrize("subspace_dim", [10, 19])
def test_batch_fit_with_few_rows_takes_the_same_route(monkeypatch, readout_calls, subspace_dim):
    """With D <= min(k, M) the fit still projects no node and calls no
    combine, and inverts nothing: U is then a D x D rotation, so Y'Y of the
    coordinates the classifier gets equals H'H, and their ridge inverse is
    the diagonal the fit read off its SVD."""
    projected = []

    def project_spy(node, x):
        projected.append(node)
        return project(node, x)

    for module in (hoselm.extractor, hoselm.pipeline):
        monkeypatch.setattr(module, "project", project_spy)
    groups, targets, _ = three_groups()
    cfg = PipelineConfig(node_count=3, subspace_dim=subspace_dim, classifier_nodes=6)
    model = fit(groups, targets, cfg)
    assert readout_calls["combine"] == 0 and projected == []
    assert readout_calls["inverse"] == []
    y = handed_ridge_inverse(readout_calls, cfg.coeff)
    assert y.shape[0] == subspace_dim
    h = combined_feature(model, groups)
    assert rel_err(y.T @ y, h.T @ h) < 1e-12


@pytest.mark.parametrize(
    "operator, subspace_dim", [("plus", 10), ("plus", 30), ("concat", 2), ("concat", 20)]
)
def test_batch_fit_inverts_nothing(readout_calls, operator, subspace_dim):
    """A batch fit with D below or above k = 19 calls no ridge_inverse,
    np.linalg.inv or np.linalg.solve anywhere, the extractor included."""
    groups, targets, _ = three_groups()
    cfg = PipelineConfig(
        node_count=3, subspace_dim=subspace_dim, operator=operator, classifier_nodes=4
    )
    model = fit(groups, targets, cfg)
    k = sum(g.x.shape[0] for g in groups) + 1
    dim = model.readout.feature_dim
    assert dim == subspace_dim * (9 if operator == "concat" else 1) and dim != k
    assert readout_calls["inverse"] == []
    y = handed_ridge_inverse(readout_calls, cfg.coeff)
    assert y.shape[0] == min(dim, k)


def test_factored_concat_labels_equal_the_formed_readout():
    groups, targets, labels = three_groups(seed=4)
    cfg = PipelineConfig(node_count=3, subspace_dim=20, operator="concat", classifier_nodes=8)
    model = fit(groups, targets, cfg)
    h = combined_feature(model, groups)
    gram_inv = ridge_inverse(h @ h.T, cfg.coeff)
    formed = fit_classifier(h, targets, cfg.classifier_nodes, gram_inv)
    want = decode_labels(score(formed, h))
    assert np.array_equal(predict(model, groups), want)
    assert np.mean(want == labels) > 0.9
