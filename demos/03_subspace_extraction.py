"""Subspace feature extraction: refine a random projection by error feedback.

Walks one node through the layer's own refinement steps by hand - fit a
least-squares readout, pull its residual back into a normalized feedback
target, re-solve the projection against that target - then builds a full
layer and shows that combining its features keeps the sample axis intact.
The steps work on coefficients over the R of one QR of [x; 1; T]', so the
demo forms a d x M matrix only to show one.
"""

import numpy as np

from hoselm.combine import CombineSpec, combine
from hoselm.extractor import (
    ExtractorConfig,
    error_feedback,
    extract_features,
    factor_inputs,
    ls_readout,
    project,
    refine_node,
    spawn_node,
)
from hoselm.kernels import pinv


def readout_error(node, x, targets, factor):
    weights = ls_readout(node, factor, x.shape[1])
    return np.linalg.norm(weights @ project(node, x) - targets)


def main():
    rng = np.random.default_rng(3)
    inputs, samples = 5, 60
    x = rng.standard_normal((inputs, samples))
    labels = rng.integers(0, 3, size=samples)
    targets = np.zeros((3, samples))
    targets[labels, np.arange(samples)] = 1.0
    factor = factor_inputs(x, targets)
    cfg = ExtractorConfig(node_count=4, subspace_dim=3, seed=11)

    print("one node, step by step:")
    node = spawn_node(inputs, cfg.subspace_dim, np.random.SeedSequence(cfg.seed).spawn(1)[0])
    readout = ls_readout(node, factor, samples)
    feedback = error_feedback(node, readout, x, targets, factor, cfg.norm_eps)
    # The least squares a x ~ f goes through the pseudoinverse of the
    # factor's leading triangle, at the cutoff pinv(X X') would use.
    r11_pinv = pinv(factor[:inputs, :inputs].T, rcond=np.sqrt(np.finfo(float).eps * inputs))
    refined = refine_node(node, feedback, factor, r11_pinv, cfg.damping, samples)
    # The feedback is a coefficient on [x; 1; T]; this is its d x M target.
    target = feedback @ np.vstack((x, np.ones((1, samples)), targets))
    print(f"  feedback target {target.shape}, within [{target.min():.4f}, {target.max():.4f}]")
    fb_before = np.linalg.norm(node.weights @ x - target)
    fb_after = np.linalg.norm(refined.weights @ x - target)
    print(f"  distance to the feedback target: {fb_before:.4f} random node")
    print(f"  distance to the feedback target: {fb_after:.4f} refined node")
    before = readout_error(node, x, targets, factor)
    after = readout_error(refined, x, targets, factor)
    print(f"  readout error {before:.4f} -> {after:.4f} (3 rows span less than [x; 1])")

    print()
    print("a full layer of refined nodes:")
    nodes = extract_features(x, targets, cfg, factor)
    same = np.array_equal(nodes[0].weights, refined.weights) and nodes[0].bias == refined.bias
    print(f"  its first node is the one refined above: {same}")
    features = [project(n, x) for n in nodes]
    print(f"  {len(nodes)} nodes, each emitting a {features[0].shape} subspace feature")

    merged = combine(features, CombineSpec(operator="plus", gamma=1.0))
    stacked = combine(features, CombineSpec(operator="concat"))
    print(f"  plus-combined feature: {merged.shape} (elementwise, same width)")
    print(f"  concat-combined feature: {stacked.shape} (rows add up)")


if __name__ == "__main__":
    main()
