"""Acceptance suite: the eight release criteria, one pass/fail line each.

Each test prints its verdict line (visible with pytest -v -rP or -s); a
failed assertion marks the criterion failed.  Tolerances and runtime
limits are pinned inside each test.
"""

import time

import numpy as np

from hoselm.classifier import fit_node
from hoselm.cli import main
from hoselm.data import one_hot, split, synth_blobs
from hoselm.elm import fit_output, hidden_activations, init_hidden
from hoselm.kernels import pinv, ridge_inverse
from hoselm.oselm import os_boot, os_update
from hoselm.pipeline import PipelineConfig, classification_metrics, evaluate, fit


def verdict(number, name, ok):
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {name}"


def rel(x):
    return max(float(np.linalg.norm(x)), 1e-300)


def test_acceptance_1_pseudoinverse_penrose_conditions():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        if i % 3 == 0:
            rank = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        else:
            a = rng.standard_normal((rows, cols))
        g = pinv(a)
        residuals = (
            np.linalg.norm(a @ g @ a - a) / rel(a),
            np.linalg.norm(g @ a @ g - g) / rel(g),
            np.linalg.norm((a @ g).T - a @ g) / rel(a @ g),
            np.linalg.norm((g @ a).T - g @ a) / rel(g @ a),
        )
        worst = max(worst, *residuals)
    elapsed = time.perf_counter() - start
    verdict(1, "Penrose conditions 1e-9 on 200 matrices", worst < 1e-9 and elapsed < 5.0)


def test_acceptance_2_sequential_readout_equals_batch_ridge():
    rng = np.random.default_rng(77)
    coeff = 100.0
    start = time.perf_counter()
    worst = 0.0
    for _ in range(30):
        hidden = int(rng.integers(2, 21))
        samples = int(rng.integers(hidden + 2, 61))
        outputs = int(rng.integers(1, 5))
        h = rng.standard_normal((hidden, samples))
        t = rng.standard_normal((outputs, samples))
        batch = np.linalg.solve(np.eye(hidden) / coeff + h @ h.T, h @ t.T)
        pos = int(rng.integers(1, samples))
        state = os_boot(h[:, :pos], t[:, :pos], coeff)
        while pos < samples:
            step = int(rng.integers(1, samples - pos + 1))
            state = os_update(state, h[:, pos : pos + step], t[:, pos : pos + step])
            pos += step
        worst = max(worst, np.linalg.norm(state.beta - batch) / rel(batch))
    elapsed = time.perf_counter() - start
    verdict(2, "sequential beta = batch ridge within 1e-6", worst < 1e-6 and elapsed < 5.0)


def test_acceptance_3_chunk_partition_invariance():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        hidden = int(rng.integers(3, 15))
        samples = int(rng.integers(hidden + 5, 50))
        h = rng.standard_normal((hidden, samples))
        t = rng.standard_normal((2, samples))
        betas = []
        for _ in range(2):
            pos = int(rng.integers(1, samples))
            state = os_boot(h[:, :pos], t[:, :pos], 100.0)
            while pos < samples:
                step = int(rng.integers(1, samples - pos + 1))
                state = os_update(state, h[:, pos : pos + step], t[:, pos : pos + step])
                pos += step
            betas.append(state.beta)
        worst = max(worst, np.linalg.norm(betas[0] - betas[1]) / rel(betas[0]))
    verdict(3, "two chunkings agree within 1e-6 over 20 trials", worst < 1e-6)


def test_acceptance_4_classifier_monotone_residual_and_optimal_step():
    rng = np.random.default_rng(99)
    monotone = True
    grid_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 10))
        samples = int(rng.integers(6, 30))
        classes = int(rng.integers(2, 5))
        h = rng.standard_normal((dim, samples))
        e = rng.standard_normal((classes, samples))
        gram_inv = ridge_inverse(h @ h.T, 100.0)
        for _ in range(3):
            node, e_next = fit_node(h, e, gram_inv)
            monotone &= (
                np.linalg.norm(e_next) <= np.linalg.norm(e) + 1e-9
            )
            v = (e - e_next) / node.step
            # Quadratic objective over a 10^4-point grid centered on the
            # closed form; the grid minimizer must land within 1e-6.
            grid = node.step + np.linspace(-0.005, 0.005, 10**4 + 1)
            ee = float(np.sum(e * e))
            ev = float(np.sum(e * v))
            vv = float(np.sum(v * v))
            objective = ee - 2.0 * grid * ev + grid**2 * vv
            grid_ok &= abs(grid[int(np.argmin(objective))] - node.step) < 1e-6
            e = e_next
    verdict(4, "residual deflation monotone, step matches grid search", monotone and grid_ok)


def test_acceptance_5_elm_interpolation():
    rng = np.random.default_rng(42)
    samples = 30
    x = rng.standard_normal((8, samples))
    t = rng.standard_normal((3, samples))
    layer = init_hidden(input_dim=8, hidden_count=samples, seed=7)
    h = hidden_activations(layer, x)
    weights = fit_output(h, t)
    residual = np.linalg.norm(weights.beta.T @ h - t)
    verdict(5, "30-node ELM interpolates 30 samples within 1e-4", residual <= 1e-4 * np.linalg.norm(t))


def test_acceptance_6_end_to_end_synthetic_benchmark():
    start = time.perf_counter()
    classes, per_class, dim, spread = 3, 400, 16, 0.2
    group, labels = synth_blobs(classes, per_class, dim, spread, seed=12)
    (tr_g, tr_l), (te_g, te_l) = split([group], labels, 200, seed=34)
    tr_t = one_hot(tr_l, classes)
    te_t = one_hot(te_l, classes)

    # Nearest-class-mean oracle must certify the problem is easy enough.
    means = np.stack([tr_g[0].x[:, tr_l == k].mean(axis=1) for k in range(classes)], axis=1)
    d2 = ((te_g[0].x[:, :, None] - means[:, None, :]) ** 2).sum(axis=0)
    oracle_pred = np.argmin(d2, axis=1)
    _, _, oracle_rate, _, _ = classification_metrics(te_l, oracle_pred, classes)

    cfg = dict(node_count=3, subspace_dim=100, coeff=100.0, classifier_nodes=10, seed=5)
    batch_model = fit(tr_g, tr_t, PipelineConfig(mode="batch", **cfg))
    batch_rate = evaluate(batch_model, te_g, te_t).mean_per_class_rate
    seq_model = fit(tr_g, tr_t, PipelineConfig(mode="sequential", chunk_size=60, **cfg))
    seq_rate = evaluate(seq_model, te_g, te_t).mean_per_class_rate
    elapsed = time.perf_counter() - start

    ok = (
        oracle_rate >= 0.99
        and batch_rate >= 0.95
        and seq_rate >= batch_rate - 0.02
        and elapsed < 30.0
    )
    print(
        f"  oracle {oracle_rate:.4f}, batch {batch_rate:.4f}, "
        f"sequential {seq_rate:.4f}, {elapsed:.2f}s"
    )
    verdict(6, "synthetic benchmark batch >= 0.95, sequential within 2pp", ok)


def test_acceptance_7_bench_reports_are_byte_identical(tmp_path):
    args = [
        "bench",
        "--classes", "3",
        "--per-class", "60",
        "--dim", "8",
        "--nodes", "2",
        "--hidden", "30",
        "--classifier-nodes", "5",
        "--repetitions", "2",
        "--seed", "123",
        "--no-timing",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    verdict(7, "fixed-seed bench reports byte-identical", a.read_bytes() == b.read_bytes())


def test_acceptance_8_metric_matches_brute_force_confusion():
    rng = np.random.default_rng(1000)
    classes = 6
    true_labels = rng.integers(0, classes, size=1000)
    predicted = rng.integers(0, classes, size=1000)
    _, _, mean_rate, accuracy, _ = classification_metrics(true_labels, predicted, classes)

    recalls = []
    for k in range(classes):
        support = [i for i in range(1000) if true_labels[i] == k]
        if support:
            hits = sum(1 for i in support if predicted[i] == k)
            recalls.append(hits / len(support))
    brute_mean = float(np.mean(recalls))
    brute_accuracy = sum(1 for i in range(1000) if true_labels[i] == predicted[i]) / 1000
    verdict(
        8,
        "mean per-class rate equals brute-force confusion computation",
        mean_rate == brute_mean and accuracy == brute_accuracy,
    )
