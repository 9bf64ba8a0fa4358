"""Sequential readout tests against an independent batch ridge oracle."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from reference import lu_update

from hoselm.errors import ShapeError
from hoselm.oselm import OselmState, os_boot, os_predict, os_update


def ridge_beta(h, t, coeff):
    # Batch oracle solved directly, no package code involved.
    gram = np.eye(h.shape[0]) / coeff + h @ h.T
    return np.linalg.solve(gram, h @ t.T)


def run_chunked(h, t, coeff, cuts):
    bounds = [0, *cuts, h.shape[1]]
    state = os_boot(h[:, : bounds[1]], t[:, : bounds[1]], coeff)
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        state = os_update(state, h[:, lo:hi], t[:, lo:hi])
    return state


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def test_boot_matches_batch_ridge():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((6, 15))
    t = rng.standard_normal((2, 15))
    state = os_boot(h, t, 50.0)
    assert rel_err(state.beta, ridge_beta(h, t, 50.0)) < 1e-12
    assert state.seen == 15


def test_chunked_equals_batch_ridge():
    rng = np.random.default_rng(11)
    for trial in range(30):
        hidden = int(rng.integers(2, 21))
        samples = int(rng.integers(hidden + 1, 61))
        outputs = int(rng.integers(1, 5))
        h = rng.standard_normal((hidden, samples))
        t = rng.standard_normal((outputs, samples))
        cuts = sorted(rng.choice(np.arange(1, samples), size=3, replace=False))
        state = run_chunked(h, t, 100.0, [int(c) for c in cuts])
        assert rel_err(state.beta, ridge_beta(h, t, 100.0)) < 1e-6
        assert state.seen == samples


def test_one_by_one_equals_batch():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((5, 40))
    t = rng.standard_normal((3, 40))
    state = os_boot(h[:, :8], t[:, :8], 100.0)
    for j in range(8, 40):
        state = os_update(state, h[:, j : j + 1], t[:, j : j + 1])
    assert rel_err(state.beta, ridge_beta(h, t, 100.0)) < 1e-6


def test_partition_invariance():
    rng = np.random.default_rng(29)
    h = rng.standard_normal((8, 50))
    t = rng.standard_normal((2, 50))
    states = []
    for seed in (1, 2):
        cut_rng = np.random.default_rng(seed)
        cuts = sorted(cut_rng.choice(np.arange(1, 50), size=4, replace=False))
        states.append(run_chunked(h, t, 100.0, [int(c) for c in cuts]))
    assert rel_err(states[0].beta, states[1].beta) < 1e-6
    assert states[0].seen == states[1].seen == 50


def test_zero_innovation_keeps_beta():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((6, 20))
    t = rng.standard_normal((2, 20))
    state = os_boot(h, t, 100.0)
    h_new = rng.standard_normal((6, 7))
    t_new = os_predict(state, h_new)
    updated = os_update(state, h_new, t_new)
    # Targets equal to current predictions carry no information for beta,
    # though the correlation accumulator still tightens.
    assert np.allclose(updated.beta, state.beta, atol=1e-10)
    assert not np.allclose(updated.p, state.p)


def test_boot_p_is_exactly_symmetric():
    """os_boot forms p as (V D^1/2)(V D^1/2)', one product of a factor with
    its own transpose, which comes back exactly symmetric; V diag(.) V'
    would be off by rounding."""
    rng = np.random.default_rng(18)
    for _ in range(20):
        rows = int(rng.integers(2, 30))
        cols = int(rng.integers(1, 60))
        y = rng.standard_normal((rows, cols))
        state = os_boot(y, rng.standard_normal((3, cols)), 100.0)
        assert np.array_equal(state.p, state.p.T)


def test_p_stays_symmetric_positive_definite():
    rng = np.random.default_rng(17)
    h = rng.standard_normal((10, 200))
    t = rng.standard_normal((1, 200))
    state = os_boot(h[:, :5], t[:, :5], 100.0)
    for lo in range(5, 200, 13):
        state = os_update(state, h[:, lo : lo + 13], t[:, lo : lo + 13])
    assert np.array_equal(state.p, state.p.T)
    assert np.linalg.eigvalsh(state.p).min() > 0


def lstsq_ridge(y, t, coeff):
    """gamma from lstsq on [Y'; I/sqrt(coeff)] gamma = [T'; 0], and
    P = (I/coeff + Y Y')^-1 from the SVD of Y."""
    rows = y.shape[0]
    a = np.vstack((y.T, np.eye(rows) / np.sqrt(coeff)))
    b = np.vstack((t.T, np.zeros((rows, t.shape[0]))))
    v, s, _ = np.linalg.svd(y)
    d = np.full(rows, coeff)
    d[: s.size] = 1.0 / (1.0 / coeff + s * s)
    return np.linalg.lstsq(a, b, rcond=None)[0], (v * d) @ v.T


COEFFS = (1e-2, 1.0, 1e2, 1e4)


@pytest.mark.parametrize("step", [os_update, lu_update], ids=["cholesky", "lu"])
@pytest.mark.parametrize("rows", range(1, 13))
def test_update_matches_the_lstsq_ridge_over_a_sweep(step, rows):
    """Every chunk width from 1 to rows + 5 (so also wider than p), every
    ridge coefficient in COEFFS, inputs centred and offset by 1: after a
    boot and three chunks, gamma and p are within 1e-9 of the lstsq ridge
    solution over all the columns, and os_update's p is exactly symmetric
    after every chunk.  lu_update, the LU step os_update replaced, is held
    to the same bound."""
    worst = 0.0
    for cols in range(1, rows + 6):
        for k, coeff in enumerate(COEFFS):
            for offset in (0, 1):
                rng = np.random.default_rng((rows, cols, k, offset))
                y = rng.standard_normal((rows, 4 * cols)) + offset
                t = rng.standard_normal((2, 4 * cols))
                state = os_boot(y[:, :cols], t[:, :cols], coeff)
                for lo in range(cols, 4 * cols, cols):
                    state = step(state, y[:, lo : lo + cols], t[:, lo : lo + cols])
                    if step is os_update:
                        assert np.array_equal(state.p, state.p.T)
                gamma, p = lstsq_ridge(y, t, coeff)
                worst = max(worst, rel_err(state.gamma, gamma), rel_err(state.p, p))
    assert worst < 1e-9


def test_replace_takes_gamma_from_the_new_beta():
    """A state fresh from os_update keeps the gamma it computed, and beta is
    U gamma; dataclasses.replace with a new beta X gives gamma = U'X
    exactly, never the seeded gamma."""
    rng = np.random.default_rng(29)
    basis, _ = np.linalg.qr(rng.standard_normal((7, 4)))
    y = rng.standard_normal((4, 14))
    t = rng.standard_normal((2, 14))
    state = os_update(os_boot(y[:, :6], t[:, :6], 100.0, basis), y[:, 6:], t[:, 6:])
    assert np.array_equal(state.beta, basis @ state.gamma)
    x = state.beta * (1 + 1e-3)
    replaced = dataclasses.replace(state, beta=x)
    assert replaced.beta is x
    assert np.array_equal(replaced.gamma, state.basis.T @ x)
    assert not np.array_equal(replaced.gamma, state.gamma)


def test_a_step_state_forms_beta_on_first_read_and_survives_copies():
    """A state from os_update holds gamma and no beta; its first read of
    beta forms U gamma and caches it, and pickle, deepcopy and
    dataclasses.replace all keep working on such a state."""
    rng = np.random.default_rng(31)
    basis, _ = np.linalg.qr(rng.standard_normal((9, 5)))
    y = rng.standard_normal((5, 16))
    t = rng.standard_normal((3, 16))
    state = os_update(os_boot(y[:, :7], t[:, :7], 50.0, basis), y[:, 7:], t[:, 7:])
    assert "beta" not in vars(state)

    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert "beta" not in vars(copied)
        assert np.array_equal(copied.gamma, state.gamma)
        assert np.array_equal(copied.p, state.p)
        assert np.array_equal(copied.beta, basis @ state.gamma)

    x = rng.standard_normal((9, 3))
    replaced = dataclasses.replace(state, beta=x)
    assert np.array_equal(replaced.gamma, basis.T @ x)
    assert "beta" not in vars(state)

    beta = state.beta
    assert np.array_equal(beta, basis @ state.gamma)
    assert state.beta is beta
    with pytest.raises(AttributeError, match="no attribute 'weights'"):
        state.weights

    p = state.p * 2.0
    moved = dataclasses.replace(state, p=p)
    assert moved.p is p and moved.gamma is state.gamma and moved.seen == state.seen


def test_replace_keeps_gamma_bit_for_bit():
    """gamma is the stored fact: dataclasses.replace with p, seen or basis
    hands it over as it is, never rebuilt as U'(U gamma), a replaced basis
    forms beta = U gamma from the new basis, and a new gamma X gives
    beta = U X."""
    rng = np.random.default_rng(31)
    basis, _ = np.linalg.qr(rng.standard_normal((9, 5)))
    y = rng.standard_normal((5, 16))
    t = rng.standard_normal((3, 16))
    state = os_update(os_boot(y[:, :7], t[:, :7], 50.0, basis), y[:, 7:], t[:, 7:])
    other, _ = np.linalg.qr(rng.standard_normal((9, 5)))
    for change in ({"p": state.p * 2.0}, {"seen": state.seen}, {"basis": other}):
        moved = dataclasses.replace(state, **change)
        assert moved.gamma is state.gamma
        assert np.array_equal(moved.beta, moved.basis @ state.gamma)
    x = rng.standard_normal((5, 3))
    assert np.array_equal(dataclasses.replace(state, gamma=x).beta, basis @ x)


def test_update_rejects_a_gain_that_does_not_factor():
    """Only a corrupted p makes the gain I + Y' p Y indefinite: its
    eigenvalues are >= 1 for any positive semidefinite p."""
    state = OselmState(p=-np.eye(3), gamma=np.zeros((3, 2)), seen=5, coeff=1.0)
    with pytest.raises(np.linalg.LinAlgError, match="4-column chunk"):
        os_update(state, np.full((3, 4), 2.0), np.zeros((2, 4)))


def test_p_matches_batch_accumulator():
    rng = np.random.default_rng(23)
    h = rng.standard_normal((4, 30))
    t = rng.standard_normal((2, 30))
    state = run_chunked(h, t, 10.0, [9, 21])
    want = np.linalg.inv(np.eye(4) / 10.0 + h @ h.T)
    assert rel_err(state.p, want) < 1e-10


def test_predict_shape_and_values():
    state = OselmState(
        p=np.eye(2), gamma=np.array([[1.0, 0.0], [0.0, 2.0]]), seen=4, coeff=1.0
    )
    h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    got = os_predict(state, h)
    assert got.shape == (2, 3)
    assert np.array_equal(got, np.array([[1.0, 2.0, 3.0], [8.0, 10.0, 12.0]]))


def test_boot_rejects_bad_coeff():
    h = np.ones((2, 3))
    t = np.ones((1, 3))
    with pytest.raises(ValueError):
        os_boot(h, t, 0.0)
    with pytest.raises(ValueError):
        os_boot(h, t, -1.0)


def test_rejects_mismatched_chunks():
    state = os_boot(np.ones((3, 4)), np.ones((2, 4)), 1.0)
    with pytest.raises(ShapeError):
        os_update(state, np.ones((3, 5)), np.ones((2, 4)))
    with pytest.raises(ShapeError):
        os_update(state, np.ones((4, 4)), np.ones((2, 4)))
    with pytest.raises(ShapeError):
        os_update(state, np.ones((3, 4)), np.ones((1, 4)))
    with pytest.raises(ShapeError):
        os_predict(state, np.ones((4, 2)))
