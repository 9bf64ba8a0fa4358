import tracemalloc

import numpy as np
import pytest

from hoselm.elm import (
    RandomHiddenLayer,
    fit_output,
    hidden_activations,
    init_hidden,
    predict,
)
from hoselm.errors import ShapeError
from hoselm.kernels import sigmoid_map


def normal_equations_lstsq(h, t):
    """Independent least-squares oracle: solve H H' b = H T' directly."""
    return np.linalg.solve(h @ h.T, h @ t.T)


class TestInitHidden:
    def test_deterministic_per_seed(self):
        a = init_hidden(4, 10, seed=42)
        b = init_hidden(4, 10, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_shapes(self):
        layer = init_hidden(4, 10, seed=0)
        assert layer.weights.shape == (10, 4)
        assert layer.biases.shape == (10,)

    def test_entries_bounded_and_centered(self):
        layer = init_hidden(100, 1000, seed=7)
        assert np.all(np.abs(layer.weights) <= 1.0)
        # 1e5 uniform [-1,1] draws: mean within [-0.02, 0.02]
        assert abs(layer.weights.mean()) <= 0.02

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            init_hidden(0, 5)
        with pytest.raises(ValueError):
            init_hidden(5, 0)


class TestHiddenActivations:
    def test_zero_layer_gives_half(self):
        layer = RandomHiddenLayer(weights=np.zeros((3, 2)), biases=np.zeros(3))
        h = hidden_activations(layer, np.ones((2, 4)))
        assert np.allclose(h, 0.5)

    def test_single_neuron_single_sample(self):
        layer = RandomHiddenLayer(weights=np.array([[1.0, 0.0]]), biases=np.zeros(1))
        h = hidden_activations(layer, np.array([[0.0], [5.0]]))
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(0.5)

    def test_matches_per_entry_scalar_oracle(self):
        rng = np.random.default_rng(1)
        layer = init_hidden(3, 5, seed=2)
        x = rng.normal(size=(3, 4))
        h = hidden_activations(layer, x)
        for j in range(5):
            for i in range(4):
                z = float(layer.weights[j] @ x[:, i] + layer.biases[j])
                assert h[j, i] == pytest.approx(1.0 / (1.0 + np.exp(-z)))

    def test_outputs_in_open_unit_interval(self):
        layer = init_hidden(2, 6, seed=3)
        h = hidden_activations(layer, np.full((2, 3), 1e4))
        assert np.all((h > 0.0) & (h < 1.0))

    def test_dimension_mismatch(self):
        layer = init_hidden(3, 5, seed=0)
        with pytest.raises(ShapeError):
            hidden_activations(layer, np.zeros((4, 2)))


class TestFitOutput:
    def test_identity_design(self):
        t = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        w = fit_output(np.eye(3), t)
        assert np.allclose(w.beta, t.T)

    def test_zero_targets(self):
        rng = np.random.default_rng(4)
        w = fit_output(rng.normal(size=(5, 8)), np.zeros((2, 8)))
        assert np.allclose(w.beta, 0.0)

    def test_residual_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(8, 20))
        t = rng.normal(size=(3, 20))
        w = fit_output(h, t)
        beta_oracle = normal_equations_lstsq(h, t)
        r_fit = np.linalg.norm(w.beta.T @ h - t)
        r_oracle = np.linalg.norm(beta_oracle.T @ h - t)
        assert r_fit == pytest.approx(r_oracle, abs=1e-8)

    def test_minimum_norm_on_rank_deficient_design(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 12))  # rank 3
        t = rng.normal(size=(2, 12))
        w = fit_output(h, t)
        r_fit = np.linalg.norm(w.beta.T @ h - t)
        for _ in range(20):
            # same-residual alternatives: add a null-space component
            null = rng.normal(size=w.beta.shape)
            null -= np.linalg.pinv(h.T) @ (h.T @ null)
            other = w.beta + null
            r_other = np.linalg.norm(other.T @ h - t)
            if r_other <= r_fit + 1e-9:
                assert np.linalg.norm(w.beta) <= np.linalg.norm(other) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fit_output(np.ones((2, 3)), np.ones((1, 4)))


class TestPredict:
    def test_zero_beta_zero_scores(self):
        layer = init_hidden(2, 4, seed=0)
        w = fit_output(hidden_activations(layer, np.zeros((2, 3))), np.zeros((2, 3)))
        s = predict(layer, w, np.ones((2, 5)))
        assert np.allclose(s, 0.0)

    def test_interpolates_training_data_when_square(self):
        rng = np.random.default_rng(7)
        m = 12
        x = rng.uniform(-1, 1, size=(4, m))
        t = rng.normal(size=(3, m))
        layer = init_hidden(4, m, seed=8)
        h = hidden_activations(layer, x)
        w = fit_output(h, t)
        assert np.linalg.norm(predict(layer, w, x) - t) <= 1e-4 * np.linalg.norm(t)

    def test_single_sample_equals_batch_column(self):
        rng = np.random.default_rng(9)
        layer = init_hidden(3, 6, seed=10)
        x = rng.normal(size=(3, 5))
        t = rng.normal(size=(2, 5))
        w = fit_output(hidden_activations(layer, x), t)
        batch = predict(layer, w, x)
        for i in range(5):
            single = predict(layer, w, x[:, i : i + 1])
            assert np.allclose(single[:, 0], batch[:, i])

    def test_linear_in_beta(self):
        rng = np.random.default_rng(11)
        layer = init_hidden(2, 5, seed=12)
        x = rng.normal(size=(2, 4))
        from hoselm.elm import OutputWeights

        b1 = OutputWeights(beta=rng.normal(size=(5, 2)))
        b2 = OutputWeights(beta=rng.normal(size=(5, 2)))
        both = OutputWeights(beta=b1.beta + b2.beta)
        lhs = predict(layer, both, x)
        rhs = predict(layer, b1, x) + predict(layer, b2, x)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_hidden_activations_allocate_only_their_result():
    """The biases and the sigmoid are applied in place on the product: at
    200 x 5000 the tracemalloc peak stays under 1.25 times the activations,
    and they are sigmoid_map(W @ x + b) bit for bit."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((50, 5000))
    layer = init_hidden(50, 200, seed=6)
    tracemalloc.start()
    try:
        out = hidden_activations(layer, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes
    assert np.array_equal(out, sigmoid_map(layer.weights @ x + layer.biases[:, None]))
