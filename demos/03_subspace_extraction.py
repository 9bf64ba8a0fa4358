"""Subspace feature extraction: refine a random projection by error feedback.

Walks one node through the refinement loop by hand - project, fit a
least-squares readout, pull the residual back, refit against the
normalized feedback - then builds a full layer and shows that combining
its features keeps the sample axis intact.
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
    residual,
    spawn_node,
)
from hoselm.kernels import pinv


def readout_error(node, x, targets):
    h = project(node, x)
    r = ls_readout(node, h, targets, factor_inputs(x, targets))
    return np.linalg.norm(r.weights @ h + r.bias - targets)


def main():
    rng = np.random.default_rng(3)
    inputs, samples = 5, 60
    x = rng.standard_normal((inputs, samples))
    labels = rng.integers(0, 3, size=samples)
    targets = np.zeros((3, samples))
    targets[labels, np.arange(samples)] = 1.0

    print("one node, step by step:")
    node = spawn_node(inputs, 8, seed=11)
    h0 = project(node, x)
    r0 = ls_readout(node, h0, targets, factor_inputs(x, targets))
    e0 = residual(h0, r0, targets)
    feedback = error_feedback(e0, r0, h0, 1e-4)
    refined, _ = refine_node(node, x, feedback, 0.5, pinv(x @ x.T))
    fb_before = np.linalg.norm(node.weights @ x - feedback)
    fb_after = np.linalg.norm(refined.weights @ x - feedback)
    print(f"  distance to the feedback target: {fb_before:.4f} random node")
    print(f"  distance to the feedback target: {fb_after:.4f} refined node")
    before = readout_error(node, x, targets)
    after = readout_error(refined, x, targets)
    print(f"  readout error {before:.4f} -> {after:.4f} (never worse in this regime)")

    print()
    print("a full layer of refined nodes:")
    cfg = ExtractorConfig(node_count=4, subspace_dim=8, seed=11)
    nodes = extract_features(x, targets, cfg)
    features = [project(n, x) for n in nodes]
    print(f"  {len(nodes)} nodes, each emitting a {features[0].shape} subspace feature")

    merged = combine(features, CombineSpec(operator="plus", gamma=1.0))
    stacked = combine(features, CombineSpec(operator="concat"))
    print(f"  plus-combined feature: {merged.shape} (elementwise, same width)")
    print(f"  concat-combined feature: {stacked.shape} (rows add up)")


if __name__ == "__main__":
    main()
