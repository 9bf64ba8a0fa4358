"""Combiner tests: fold semantics, permutation behavior, dimension accounting."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoselm.combine import CombineSpec, combine, combine_affine
from hoselm.errors import ShapeError
from hoselm.extractor import SubnetNode, project

A = np.array([[1.0, 2.0], [3.0, 4.0]])
B = np.array([[10.0, 20.0], [30.0, 40.0]])
C = np.array([[100.0, 200.0], [300.0, 400.0]])


def test_single_feature_unchanged():
    for op in ("plus", "concat"):
        got = combine([A], CombineSpec(operator=op))
        assert np.array_equal(got, A)


def test_plus_unit_gamma_is_sum():
    got = combine([A, B], CombineSpec(operator="plus", gamma=1.0))
    assert np.array_equal(got, A + B)


def test_plus_zero_gamma_keeps_first():
    got = combine([A, B, C], CombineSpec(operator="plus", gamma=0.0))
    assert np.array_equal(got, A)


def test_plus_general_gamma():
    got = combine([A, B, C], CombineSpec(operator="plus", gamma=0.5))
    assert np.array_equal(got, A + 0.5 * B + 0.5 * C)


def test_plus_unit_gamma_permutation_invariant():
    # Integer-valued inputs make the sums exact under any order.
    spec = CombineSpec(operator="plus", gamma=1.0)
    want = combine([A, B, C], spec)
    for perm in itertools.permutations([A, B, C]):
        assert np.array_equal(combine(list(perm), spec), want)


def test_concat_is_order_sensitive_stack():
    spec = CombineSpec(operator="concat")
    got = combine([A, B], spec)
    assert np.array_equal(got, np.vstack([A, B]))
    assert not np.array_equal(combine([B, A], spec), got)


def test_left_fold_associativity():
    spec = CombineSpec(operator="plus", gamma=1.0)
    two_then_one = combine([combine([A, B], spec), C], spec)
    assert np.array_equal(two_then_one, combine([A, B, C], spec))


def test_sample_count_preserved():
    rng = np.random.default_rng(1)
    feats = [rng.standard_normal((3, 7)) for _ in range(4)]
    assert combine(feats, CombineSpec("plus")).shape == (3, 7)
    assert combine(feats, CombineSpec("concat")).shape == (12, 7)


def test_combined_dim_matches_materialized():
    """combine_affine's B has as many rows as the feature combine builds."""
    rng = np.random.default_rng(2)
    plus_feats = [rng.standard_normal((4, 5)) for _ in range(3)]
    concat_feats = [rng.standard_normal((r, 5)) for r in (3, 4, 2)]
    for feats, spec in [
        (plus_feats, CombineSpec("plus")),
        (concat_feats, CombineSpec("concat")),
    ]:
        layers = [[SubnetNode(weights=np.ones((f.shape[0], 2)), bias=0.0) for f in feats]]
        assert combine_affine(layers, spec).shape[0] == combine(feats, spec).shape[0]


def test_empty_list_rejected():
    for op in ("plus", "concat"):
        with pytest.raises(ValueError):
            combine([], CombineSpec(operator=op))


def test_plus_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        combine([np.ones((2, 3)), np.ones((3, 3))], CombineSpec("plus"))


def test_sample_count_mismatch_rejected():
    with pytest.raises(ShapeError):
        combine([np.ones((2, 3)), np.ones((2, 4))], CombineSpec("concat"))


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        CombineSpec(operator="mean")
    with pytest.raises(ValueError):
        CombineSpec(gamma=float("nan"))


def test_combine_does_not_mutate_inputs():
    a = A.copy()
    b = B.copy()
    combine([a, b], CombineSpec("plus", gamma=2.0))
    assert np.array_equal(a, A) and np.array_equal(b, B)


@st.composite
def affine_layouts(draw):
    """Layers of random affine nodes, their inputs and a combiner: 1-3
    groups of distinct widths, 1-3 nodes of up to 9 rows (often more than a
    group's width + 1), and gamma away from 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = CombineSpec(
        operator=draw(st.sampled_from(["plus", "concat"])),
        gamma=draw(st.floats(-3.0, 3.0).filter(lambda g: g != 1.0)),
    )
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    node_count = draw(st.integers(1, 3))
    d = draw(st.integers(1, 9))
    samples = draw(st.integers(1, 7))
    layers = tuple(
        tuple(
            SubnetNode(weights=rng.standard_normal((d, n)), bias=float(rng.standard_normal()))
            for _ in range(node_count)
        )
        for n in widths
    )
    mats = [rng.standard_normal((n, samples)) for n in widths]
    return layers, mats, spec


@given(affine_layouts())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_combine_affine_equals_combined_projections(case):
    """B [x_1; ...; x_G; 1] equals combine of every node's projection of its
    group within 1e-12, relative to the largest magnitude the sums reach."""
    layers, mats, spec = case
    b = combine_affine(layers, spec)
    stacked = np.vstack([*mats, np.ones((1, mats[0].shape[1]))])
    want = combine([project(n, x) for nodes, x in zip(layers, mats) for n in nodes], spec)
    assert (b @ stacked).shape == want.shape
    scale = (np.abs(b) @ np.abs(stacked)).max()
    assert np.all(np.abs(b @ stacked - want) <= 1e-12 * scale)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_plus_allocates_only_its_result(gamma):
    """plus adds every operand after the first into its result one block of
    rows at a time: for 3 features of 200 x 5000 (a row count the block does
    not divide) the tracemalloc peak stays under 1.25 times the result,
    where an operand-sized temporary reaches 2 times, and the result is
    F1 + gamma*F2 + gamma*F3 bit for bit."""
    rng = np.random.default_rng(14)
    feats = [rng.standard_normal((200, 5000)) for _ in range(3)]
    tracemalloc.start()
    try:
        out = combine(feats, CombineSpec("plus", gamma))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes
    f1, f2, f3 = feats
    assert np.array_equal(out, f1 + gamma * f2 + gamma * f3)
