"""Classifier tests: deflation algebra, step optimality, decoding."""

import numpy as np
import pytest

import hoselm.classifier
import hoselm.kernels
from hoselm.classifier import (
    ClassifierModel,
    decode_labels,
    fit_classifier,
    fit_node,
    score,
)
from hoselm.errors import DegenerateNodeError, ShapeError
from hoselm.kernels import _logit_map, _normalize_unit, ridge_inverse


def node_slice(model, keep):
    """The model restricted to the nodes the slice keep selects."""
    return ClassifierModel(
        model.weights[keep],
        model.bias[keep],
        model.step[keep],
        model.lo[keep],
        model.hi[keep],
        model.eps,
    )


def gram_inverse(h, coeff=100.0):
    return ridge_inverse(h @ h.T, coeff)


def random_problem(rng, classes=3, dim=10, samples=40, noise=0.3):
    # Class-clustered features with one-hot targets.
    labels = rng.integers(0, classes, size=samples)
    anchors = rng.standard_normal((dim, classes))
    h = anchors[:, labels] + noise * rng.standard_normal((dim, samples))
    t = np.zeros((classes, samples))
    t[labels, np.arange(samples)] = 1.0
    return h, t, labels


def test_residual_never_grows():
    rng = np.random.default_rng(1)
    for _ in range(100):
        dim = int(rng.integers(2, 12))
        samples = int(rng.integers(5, 40))
        classes = int(rng.integers(2, 5))
        h = rng.standard_normal((dim, samples))
        e = rng.standard_normal((classes, samples))
        _, e_next = fit_node(h, e, gram_inverse(h))
        assert np.linalg.norm(e_next) <= np.linalg.norm(e) + 1e-9


def test_step_beats_fine_grid():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = rng.standard_normal((6, 25))
        e = rng.standard_normal((2, 25))
        node, e_next = fit_node(h, e, gram_inverse(h))
        v = (e - e_next) / node.step
        best = np.linalg.norm(e_next)
        grid = np.linspace(node.step - 0.5, node.step + 0.5, 2001)
        grid_best = min(np.linalg.norm(e - b * v) for b in grid)
        assert best <= grid_best + 1e-8


def test_step_zeroes_quadratic_derivative():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((5, 30))
    e = rng.standard_normal((3, 30))
    node, e_next = fit_node(h, e, gram_inverse(h))
    v = (e - e_next) / node.step
    delta = 1e-6

    def obj(b):
        return np.linalg.norm(e - b * v) ** 2

    deriv = (obj(node.step + delta) - obj(node.step - delta)) / (2 * delta)
    assert abs(deriv) < 1e-6 * max(1.0, obj(node.step))


def test_zero_residual_raises_degenerate():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 10))
    with pytest.raises(DegenerateNodeError):
        fit_node(h, np.zeros((2, 10)), gram_inverse(h))


def test_fit_classifier_scans_nothing_it_built(monkeypatch):
    """The fit normalizes and maps only matrices it computed from its
    validated inputs, so no finiteness scan runs during it."""
    scanned = []
    as_matrix = hoselm.kernels.as_matrix

    def spy(a, name="matrix"):
        scanned.append(name)
        return as_matrix(a, name)

    h, t, _ = random_problem(np.random.default_rng(6))
    gram_inv = gram_inverse(h)
    monkeypatch.setattr(hoselm.kernels, "as_matrix", spy)
    model = fit_classifier(h, t, 4, gram_inv)
    assert len(model.step) == 4
    assert scanned == []


def test_fit_on_zero_targets_is_fixed_point():
    # A zero residual cannot seed a useful node; the model ends up empty
    # and scores zero, leaving the residual at zero.
    rng = np.random.default_rng(4)
    h = rng.standard_normal((4, 10))
    model = fit_classifier(h, np.zeros((2, 10)), 5, gram_inverse(h))
    assert len(model.step) == 0
    assert (model.class_count, model.feature_dim) == (2, 4)
    assert np.array_equal(score(model, h), np.zeros((2, 10)))


def test_single_node_fit_equals_fit_node():
    rng = np.random.default_rng(11)
    h, t, _ = random_problem(rng)
    model = fit_classifier(h, t, 1, gram_inverse(h))
    node, _ = fit_node(h, t, gram_inverse(h))
    assert len(model.step) == len(node.step) == 1
    assert np.array_equal(model.weights[0], node.weights[0])
    assert model.step[0] == node.step[0]


def test_fit_classifier_equals_fit_node_threaded_by_hand():
    rng = np.random.default_rng(12)
    h, t, _ = random_problem(rng)
    model = fit_classifier(h, t, 5, gram_inverse(h))
    gram_inv = gram_inverse(h)
    e = t
    assert len(model.step) == 5
    for k in range(5):
        want, e = fit_node(h, e, gram_inv)
        assert np.array_equal(model.weights[k], want.weights[0])
        assert model.bias[k] == want.bias[0] and model.step[k] == want.step[0]
        assert (model.lo[k], model.hi[k], model.eps) == (want.lo[0], want.hi[0], want.eps)


def test_fit_classifier_takes_one_ridge_inverse(monkeypatch):
    """The fit inverts and solves nothing: every node works through the
    one ridge inverse its caller hands it."""
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    h, t, _ = random_problem(np.random.default_rng(14))
    gram_inv = gram_inverse(h)
    counted_ridge = counted("ridge_inverse", ridge_inverse)
    monkeypatch.setattr(hoselm.classifier, "ridge_inverse", counted_ridge)
    for name in ("inv", "solve", "pinv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    model = fit_classifier(h, t, 6, gram_inv)
    assert len(model.step) == 6
    assert calls == []
    z = _logit_map(_normalize_unit(t, 1e-4)[0])
    assert np.array_equal(model.weights[0], z @ h.T @ gram_inv)


def test_fit_node_bias_is_the_mean_logit_gap():
    """The bias centers the ridge fit: the mean, not the median, of the
    logit target minus weights @ h, on a case where the two differ."""
    rng = np.random.default_rng(41)
    h = rng.standard_normal((3, 9))
    e = rng.standard_normal((2, 9))
    node, _ = fit_node(h, e, gram_inverse(h))
    gap = _logit_map(_normalize_unit(e, 1e-4)[0]) - node.weights[0] @ h
    assert abs(np.median(gap) - np.mean(gap)) > 1e-2
    assert node.bias[0] == np.mean(gap)


def test_fit_is_deterministic():
    rng = np.random.default_rng(13)
    h, t, _ = random_problem(rng)
    m1 = fit_classifier(h, t, 4, gram_inverse(h))
    m2 = fit_classifier(h, t, 4, gram_inverse(h))
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias, m2.bias) and np.array_equal(m1.step, m2.step)


def test_score_plus_final_residual_reconstructs_targets():
    rng = np.random.default_rng(17)
    h, t, _ = random_problem(rng)
    e = t
    for _ in range(6):
        _, e = fit_node(h, e, gram_inverse(h))
    model = fit_classifier(h, t, 6, gram_inverse(h))
    assert np.allclose(score(model, h) + e, t, atol=1e-9)


def test_residual_norm_sequence_non_increasing_through_fit():
    rng = np.random.default_rng(19)
    h, t, _ = random_problem(rng)
    model = fit_classifier(h, t, 8, gram_inverse(h))
    norms = [np.linalg.norm(t)]
    for k in range(1, len(model.step) + 1):
        sub = node_slice(model, slice(k))
        norms.append(np.linalg.norm(t - score(sub, h)))
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_each_node_adds_exactly_its_contribution():
    rng = np.random.default_rng(23)
    h, t, _ = random_problem(rng)
    model = fit_classifier(h, t, 4, gram_inverse(h))
    prev = np.zeros_like(t)
    for k in range(1, len(model.step) + 1):
        sub = node_slice(model, slice(k))
        cur = score(sub, h)
        one = node_slice(model, slice(k - 1, k))
        assert np.allclose(cur - prev, score(one, h), atol=1e-12)
        prev = cur


def test_training_accuracy_tends_non_decreasing():
    rng = np.random.default_rng(500)
    ok = 0
    trials = 30
    for _ in range(trials):
        h, t, labels = random_problem(rng, classes=3, dim=12, samples=60)
        model = fit_classifier(h, t, 5, gram_inverse(h))
        accs = []
        for k in range(1, len(model.step) + 1):
            sub = node_slice(model, slice(k))
            accs.append(np.mean(decode_labels(score(sub, h)) == labels))
        ok += all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
    assert ok >= 27


def test_decode_examples_and_ties():
    assert decode_labels(np.array([[0.1], [0.9]]))[0] == 1
    assert decode_labels(np.array([[0.5], [0.5]]))[0] == 0
    s = np.array([[3.0, 0.0, 1.0], [1.0, 2.0, 1.0]])
    assert np.array_equal(decode_labels(s), [0, 1, 0])


def test_decode_row_permutation_oracle():
    rng = np.random.default_rng(29)
    s = rng.standard_normal((4, 9))
    base = decode_labels(s)
    perm = rng.permutation(4)
    permuted = decode_labels(s[perm])
    assert np.array_equal(perm[permuted], base)


def test_shape_and_parameter_errors():
    h = np.ones((3, 5))
    with pytest.raises(ShapeError):
        fit_node(h, np.ones((2, 6)), gram_inverse(h))
    with pytest.raises(ShapeError):
        fit_node(h, np.ones((2, 5)), np.eye(4))
    with pytest.raises(ShapeError):
        fit_classifier(h, np.ones((2, 5)), 1, np.eye(4))
    with pytest.raises(ValueError):
        fit_classifier(h, np.ones((2, 5)), 0, gram_inverse(h))
    h = h + np.random.default_rng(1).random((3, 5))
    model = fit_classifier(h, np.eye(2, 5), 2, gram_inverse(h))
    with pytest.raises(ShapeError):
        score(model, np.ones((4, 5)))
