"""Baseline single-hidden-layer extreme learning machine.

The hidden layer is random and never trained: weights and biases are drawn
once, the hidden map is a fixed nonlinear embedding, and only the linear
readout is solved, in closed form through the pseudoinverse.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import as_matrix, pinv, sigmoid_map

__all__ = [
    "RandomHiddenLayer",
    "OutputWeights",
    "init_hidden",
    "hidden_activations",
    "fit_output",
    "predict",
]


@dataclass(frozen=True)
class RandomHiddenLayer:
    """Fixed random projection: weights (hidden x input), biases (hidden,)."""

    weights: np.ndarray
    biases: np.ndarray

    @property
    def hidden_count(self):
        return self.weights.shape[0]

    @property
    def input_dim(self):
        return self.weights.shape[1]


@dataclass(frozen=True)
class OutputWeights:
    """Linear readout, one column of beta per output/class."""

    beta: np.ndarray  # (hidden, outputs)


def init_hidden(input_dim, hidden_count, seed=0):
    """Draw a hidden layer with i.i.d. uniform [-1, 1] weights and biases.

    Deterministic for a given seed.
    """
    if input_dim < 1 or hidden_count < 1:
        raise ValueError(
            f"input_dim and hidden_count must be >= 1, got {input_dim}, {hidden_count}"
        )
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(hidden_count, input_dim))
    b = rng.uniform(-1.0, 1.0, size=hidden_count)
    return RandomHiddenLayer(weights=w, biases=b)


def hidden_activations(layer, x):
    """Map samples-as-columns input (input_dim x M) to sigmoid activations
    (hidden x M)."""
    xm = as_matrix(x, "input")
    if xm.shape[0] != layer.input_dim:
        raise ShapeError(
            f"input has {xm.shape[0]} rows, layer expects {layer.input_dim}"
        )
    return sigmoid_map(layer.weights @ xm + layer.biases[:, None])


def fit_output(h, targets):
    """Closed-form readout: minimum-norm least-squares solution of
    beta' H = T, computed as pinv(H') T'."""
    hm = as_matrix(h, "activations")
    tm = as_matrix(targets, "targets")
    if hm.shape[1] != tm.shape[1]:
        raise ShapeError(
            f"activation and target sample counts differ: {hm.shape[1]} vs {tm.shape[1]}"
        )
    return OutputWeights(beta=pinv(hm.T) @ tm.T)


def predict(layer, weights, x):
    """Network output beta' g(Wx + b), shape (outputs x M)."""
    h = hidden_activations(layer, x)
    if weights.beta.shape[0] != h.shape[0]:
        raise ShapeError(
            f"readout expects {weights.beta.shape[0]} hidden units, layer has {h.shape[0]}"
        )
    return weights.beta.T @ h
