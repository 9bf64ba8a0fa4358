"""Request path: frozen affine maps against the layer-by-layer reference."""

import importlib
import io
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import hoselm.classifier
import hoselm.extractor
import hoselm.kernels
import hoselm.oselm
import hoselm.pipeline
from hoselm.classifier import ClassifierModel, decode_labels, fit_classifier, score
from hoselm.extractor import SubnetNode, project
from hoselm.kernels import _NORM_EPS, ridge_inverse, sigmoid_map
from hoselm.oselm import OselmState, os_predict
from hoselm.pipeline import (
    FeatureGroup,
    HOselmModel,
    PipelineConfig,
    evaluate,
    fit,
    load_model,
    partial_fit,
    predict,
    save_model,
    scores,
)

# The package re-exports the function combine under the submodule's name.
combine_module = importlib.import_module("hoselm.combine")
combine = combine_module.combine


def loop_score(model, h):
    """The classifier score node by node: the reference for the stacked one.
    Its sigmoid is scipy's expit, not the kernel under test, and each node's
    denormalization is written out, not folded into one scale."""
    out = np.zeros((model.class_count, h.shape[1]))
    eps = _NORM_EPS
    for w, b, step, lo, hi in zip(model.weights, model.bias, model.step, model.lo, model.hi):
        out += step * (lo + (expit(w @ h + b) - eps) * (hi - lo) / (1.0 - eps))
    return out


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize(
    "widths, subspace_dim, operator, spread",
    [((256,), 200, "plus", 0.3), ((32, 64, 128), 100, "concat", 0.5)],
    ids=["batch_plus", "batch_concat"],
)
def test_held_out_labels_match_the_reference_at_benchmark_shapes(
    seed, widths, subspace_dim, operator, spread
):
    """At the batch benchmark workloads' shapes (10 blob classes as
    hoselm.data.synth_blobs draws them, one view per group, 5000 training
    and 5000 held-out columns, 3 nodes per group, 10 classifier nodes),
    predict gives every held-out column the label of the layer-by-layer
    reference."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(10), 1000))
    groups = [
        np.eye(w)[:, labels] + spread * rng.standard_normal((w, labels.size)) for w in widths
    ]
    cfg = PipelineConfig(subspace_dim=subspace_dim, operator=operator, seed=seed)
    model = fit([FeatureGroup(x=g[:, :5000]) for g in groups], np.eye(10)[:, labels[:5000]], cfg)
    held = [FeatureGroup(x=np.ascontiguousarray(g[:, 5000:])) for g in groups]
    feats = [project(node, g.x) for nodes, g in zip(model.extractors, held) for node in nodes]
    want = decode_labels(loop_score(model.readout, combine(feats, model.combine_spec)))
    assert np.array_equal(predict(model, held), want)


def _classifier(rng, classes, dim, degenerate):
    """Random classifier nodes, drawn node by node and stacked; node k has a
    degenerate (hi == lo) normalization when degenerate[k] is set."""
    count = len(degenerate)
    weights = np.empty((count, classes, dim))
    bias, step, lo, hi = np.empty((4, count))
    for k, flat in enumerate(degenerate):
        lo[k] = rng.uniform(-2.0, 2.0)
        hi[k] = lo[k] if flat else lo[k] + rng.uniform(0.1, 3.0)
        weights[k] = rng.standard_normal((classes, dim))
        bias[k] = rng.uniform(-1.0, 1.0)
        step[k] = rng.uniform(-2.0, 2.0)
    return ClassifierModel(weights, bias, step, lo, hi)


def test_activate_equals_the_node_by_node_reference():
    """The folded scale and offset and the tanh sigmoid move a classifier
    score by rounding only, with pre-activations reaching saturation and
    with no node, only degenerate nodes or a mix: within 1e-14 of the
    largest node's |step| max(|lo|, |hi|).  Rounding scales with the terms
    step lo, not with the span step (hi - lo), which |lo| can far exceed."""
    rng = np.random.default_rng(29)
    for degenerate in [[], [True], [True] * 3] + [rng.random(k) < 0.3 for k in range(1, 13)]:
        c = _classifier(rng, 3, 4, degenerate)
        h = 10.0 * rng.standard_normal((4, 7))
        scale = np.max(np.abs(c.step) * np.maximum(np.abs(c.lo), np.abs(c.hi)), initial=0.0)
        assert np.max(np.abs(score(c, h) - loop_score(c, h))) <= 1e-14 * scale


def test_batch_scores_hold_one_copy_of_the_pre_activations():
    """activate takes the sigmoid in the buffer of its temporary
    pre-activations z, (nodes * classes) x M: the tracemalloc peak of a
    batch scores call at M = 20000 stays under 1.5 times z, where a second
    copy would reach 2 times, and the scores are bit for bit those of the
    sigmoid taken into a new array."""
    groups, targets = _two_group_data()
    model = fit(groups, targets, PipelineConfig(node_count=2, subspace_dim=6, seed=1))
    rng = np.random.default_rng(5)
    request = [FeatureGroup(x=rng.standard_normal((g.x.shape[0], 20000))) for g in groups]
    z = model.maps.apply([g.x for g in request])
    assert len(model.readout.step) >= 6
    tracemalloc.start()
    try:
        got = scores(model, request)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * z.nbytes
    a, c = model.readout._folded
    s = sigmoid_map(z)
    assert np.array_equal(got, (a @ s.reshape(len(a), -1)).reshape(3, -1) + c)


@st.composite
def served_models(draw, modes=("batch", "sequential")):
    """A model with random frozen layers, plus request groups for it.

    Widths stay small and subspaces reach past input_dim + 1, so rank
    deficient projections are common; classifiers have 0-3 nodes, any of
    which may have a degenerate (hi == lo) normalization.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    operator = draw(st.sampled_from(["plus", "concat"]))
    gamma = draw(st.floats(-2.0, 2.0).filter(lambda g: g != 1.0))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    node_count = draw(st.integers(1, 3))
    subspace_dim = draw(st.integers(1, 9))
    mode = draw(st.sampled_from(modes))
    classes = draw(st.integers(1, 4))
    samples = draw(st.integers(1, 7))
    extractors = tuple(
        tuple(
            SubnetNode(
                weights=rng.uniform(-1.0, 1.0, (subspace_dim, n)), bias=float(rng.uniform(-1, 1))
            )
            for _ in range(node_count)
        )
        for n in widths
    )
    dim = subspace_dim * (node_count * len(widths) if operator == "concat" else 1)
    if mode == "batch":
        readout = _classifier(rng, classes, dim, draw(st.lists(st.booleans(), max_size=3)))
    else:
        readout = OselmState(
            p=np.eye(dim), gamma=rng.standard_normal((dim, classes)), seen=1, coeff=1.0
        )
    model = HOselmModel(
        extractors=extractors,
        group_names=tuple(f"g{i}" for i in range(len(widths))),
        readout=readout,
        config=PipelineConfig(
            node_count=node_count,
            subspace_dim=subspace_dim,
            gamma=gamma,
            operator=operator,
            coeff=1.0,
            classifier_nodes=3,
            mode=mode,
        ),
        class_labels=tuple(range(classes)),
    )
    groups = [FeatureGroup(x=rng.uniform(-3.0, 3.0, (n, samples))) for n in widths]
    return model, groups


@given(served_models())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scores_equal_layer_by_layer_reference(case):
    """scores() equals readout(combine(project(...))) within 1e-12 relative.

    The batch readout's reference is the node-by-node loop; classifier
    score() over the combined feature must match it too.

    Relative to the largest magnitude the summed terms can reach: the step-
    weighted range of each classifier node, or |beta|' |H| for the
    sequential readout, so a cancelling sum is not held to a tighter bound
    than its terms allow.
    """
    model, groups = case
    feats = [
        project(node, g.x) for nodes, g in zip(model.extractors, groups) for node in nodes
    ]
    h = combine(feats, model.combine_spec)
    if model.config.mode == "batch":
        c = model.readout
        want = loop_score(c, h)
        scale = np.sum(np.abs(c.step) * np.maximum(np.abs(c.lo), np.abs(c.hi)))
        assert np.max(np.abs(score(model.readout, h) - want)) <= 1e-12 * scale
    else:
        want = os_predict(model.readout, h)
        scale = float(np.max(np.abs(model.readout.beta).T @ np.abs(h)))
    got = scores(model, groups)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@given(served_models(modes=("batch",)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_saved_batch_models_serve_bit_equal_scores(case):
    """A batch model saved and loaded again, zero nodes and degenerate
    normalizations included, serves exactly the scores it served before."""
    model, groups = case
    buffer = io.BytesIO()
    save_model(model, buffer)
    buffer.seek(0)
    loaded = load_model(buffer)
    assert loaded.class_labels == model.class_labels
    assert np.array_equal(scores(loaded, groups), scores(model, groups))


def _two_group_data(seed=0):
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(3), 20)
    targets = np.eye(3)[:, labels]
    groups = [
        FeatureGroup(x=np.eye(5)[:, labels] + 0.1 * rng.standard_normal((5, 60)), name="a"),
        FeatureGroup(x=np.eye(3)[:, labels] + 0.1 * rng.standard_normal((3, 60)), name="b"),
    ]
    return groups, targets


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of project, combine and as_matrix wherever they are looked
    up: in total under the function's name, and per module under
    (module name, function name)."""
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            counts[module.__name__, name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (hoselm.extractor, hoselm.pipeline):
        count(module, "project")
    for module in (combine_module, hoselm.pipeline):
        count(module, "combine")
    for module in (
        hoselm.kernels,
        hoselm.extractor,
        combine_module,
        hoselm.classifier,
        hoselm.oselm,
        hoselm.pipeline,
    ):
        count(module, "as_matrix")
    return counts


@pytest.mark.parametrize("operator", ["plus", "concat"])
def test_batch_predict_validates_once_per_group(calls, operator):
    groups, targets = _two_group_data()
    cfg = PipelineConfig(node_count=2, subspace_dim=6, classifier_nodes=4, operator=operator)
    model = fit(groups, targets, cfg)
    calls.clear()
    predict(model, groups)
    assert calls["project"] == 0
    assert calls["combine"] == 0
    assert calls["as_matrix"] == len(groups)


def test_sequential_requests_skip_projection_and_combiner(calls):
    groups, targets = _two_group_data()
    cfg = PipelineConfig(node_count=2, subspace_dim=6, mode="sequential", operator="concat")
    model = fit(groups, targets, cfg)
    calls.clear()
    predict(model, groups)
    updated = partial_fit(model, groups, targets)
    assert calls["project"] == 0
    assert calls["combine"] == 0
    assert updated.maps is model.maps
    assert updated.readout.seen == 2 * targets.shape[1]


@pytest.mark.parametrize("operator", ["plus", "concat"])
def test_sequential_requests_validate_once_per_group(calls, operator):
    """predict validates each group once; partial_fit adds the targets.  The
    readout takes the pipeline's own H without checking it again."""
    groups, targets = _two_group_data()
    cfg = PipelineConfig(node_count=2, subspace_dim=6, mode="sequential", operator=operator)
    model = fit(groups, targets, cfg)
    calls.clear()
    predict(model, groups)
    assert calls["as_matrix"] == len(groups)
    calls.clear()
    partial_fit(model, groups, targets)
    assert calls["as_matrix"] == len(groups) + 1


@pytest.mark.parametrize("mode", ["batch", "sequential"])
@pytest.mark.parametrize("operator", ["plus", "concat"])
def test_fit_validates_only_at_the_pipeline_boundary(calls, operator, mode):
    """The layers below the pipeline trust their caller: no as_matrix call
    through them while fitting.  The pipeline checks each group and the
    targets once per fit, however many chunks a sequential fit of 60
    columns in chunks of 20 folds in, and once per partial_fit call.
    Batch plus fits the classifier on the combined feature, batch concat on
    its rotated coordinates."""
    groups, targets = _two_group_data()
    cfg = PipelineConfig(
        node_count=2, subspace_dim=6, classifier_nodes=4, operator=operator, mode=mode,
        chunk_size=20,
    )
    inner = ("hoselm.extractor", "hoselm.combine", "hoselm.classifier", "hoselm.oselm")
    model = fit(groups, targets, cfg)
    assert [calls[module, "as_matrix"] for module in inner] == [0] * len(inner)
    assert calls["hoselm.pipeline", "as_matrix"] == len(groups) + 1
    if mode == "sequential":
        calls.clear()
        partial_fit(model, groups, targets)
        assert [calls[module, "as_matrix"] for module in inner] == [0] * len(inner)
        assert calls["hoselm.pipeline", "as_matrix"] == len(groups) + 1


def _poisoned(groups, targets, where, value):
    groups = [FeatureGroup(x=g.x.copy(), name=g.name) for g in groups]
    targets = targets.copy()
    if where == "targets":
        targets[1, 7] = value
    else:
        groups[where].x[2, 7] = value
    return groups, targets


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, -1, "targets"])
def test_non_finite_inputs_are_rejected_where_they_enter(monkeypatch, where, value):
    """NaN or Inf in the first group, the last group or the targets raises
    ValueError naming it from fit, partial_fit, predict and evaluate; fit
    raises before any extractor is fitted."""
    groups, targets = _two_group_data()
    batch = fit(groups, targets, PipelineConfig(node_count=2, subspace_dim=6, classifier_nodes=4))
    sequential = fit(groups, targets, PipelineConfig(node_count=2, subspace_dim=6, mode="sequential"))
    bad_groups, bad_targets = _poisoned(groups, targets, where, value)
    name = "targets" if where == "targets" else f"group {groups[where].name}"
    match = f"{name} contains NaN or Inf"
    extracted = []
    monkeypatch.setattr(hoselm.pipeline, "extract_features", lambda *a: extracted.append(a))
    for mode in ("batch", "sequential"):
        with pytest.raises(ValueError, match=match):
            fit(bad_groups, bad_targets, PipelineConfig(node_count=2, subspace_dim=6, mode=mode))
    assert extracted == []
    with pytest.raises(ValueError, match=match):
        partial_fit(sequential, bad_groups, bad_targets)
    for model in (batch, sequential):
        if where != "targets":
            with pytest.raises(ValueError, match=match):
                predict(model, bad_groups)
        with pytest.raises(ValueError, match=match):
            evaluate(model, bad_groups, bad_targets)


def test_complex_inputs_are_rejected_where_they_enter():
    """A complex group raises ValueError naming it from fit and predict in
    both modes, rather than serving the labels of its real part."""
    groups, targets = _two_group_data()
    bad = [groups[0], FeatureGroup(x=groups[1].x + 5j, name=groups[1].name)]
    match = f"group {groups[1].name} is complex"
    for mode in ("batch", "sequential"):
        cfg = PipelineConfig(node_count=2, subspace_dim=6, classifier_nodes=4, mode=mode)
        with pytest.raises(ValueError, match=match):
            predict(fit(groups, targets, cfg), bad)
        with pytest.raises(ValueError, match=match):
            fit(bad, targets, cfg)


def test_string_groups_are_rejected_where_they_enter():
    """A group of numeric strings raises ValueError naming it from predict,
    rather than serving the labels of the numbers they spell."""
    groups, targets = _two_group_data()
    model = fit(groups, targets, PipelineConfig(node_count=2, subspace_dim=6, classifier_nodes=4))
    bad = [groups[0], FeatureGroup(x=groups[1].x.astype(str), name=groups[1].name)]
    with pytest.raises(ValueError, match=f"group {groups[1].name} is not real numbers"):
        predict(model, bad)


def test_replaced_batch_readout_rebuilds_maps():
    groups, targets = _two_group_data()
    model = fit(groups, targets, PipelineConfig(node_count=2, subspace_dim=6, classifier_nodes=4))
    feats = [project(n, g.x) for nodes, g in zip(model.extractors, groups) for n in nodes]
    h = combine(feats, model.combine_spec)
    other = fit_classifier(h, targets, 2, ridge_inverse(h @ h.T, 1.0))
    swapped = replace(model, readout=other)
    assert swapped.maps is not model.maps
    assert np.allclose(scores(swapped, groups), score(other, h), rtol=1e-12, atol=1e-12)
