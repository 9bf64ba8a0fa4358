"""Pipeline tests: both training modes, streaming updates, metrics, I/O."""

import importlib
import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import scipy.linalg

import hoselm.extractor
import hoselm.pipeline
from hoselm.bench import RunConfig
from hoselm.classifier import fit_classifier, fit_node
from hoselm.combine import combine
from hoselm.data import load_csv, one_hot, split, synth_blobs
from hoselm.elm import init_hidden
from hoselm.errors import FormatError, ModeError, ShapeError
from hoselm.extractor import ExtractorConfig, project, spawn_node
from hoselm.kernels import ridge_inverse
from hoselm.pipeline import (
    FeatureGroup,
    PipelineConfig,
    classification_metrics,
    evaluate,
    fit,
    load_model,
    partial_fit,
    predict,
    save_model,
    scores,
)


def toy_blobs(classes=3, per_class=20, dim=6, spread=0.15, seed=0):
    # Well-separated clusters around unit basis vectors, shuffled.
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    rng.shuffle(labels)
    means = np.eye(dim)[:, :classes]
    x = means[:, labels] + spread * rng.standard_normal((dim, labels.size))
    targets = np.zeros((classes, labels.size))
    targets[labels, np.arange(labels.size)] = 1.0
    return [FeatureGroup(x=x, name="toy")], targets, labels


def small_cfg(**overrides):
    base = dict(
        node_count=2,
        subspace_dim=12,
        coeff=100.0,
        classifier_nodes=6,
        seed=5,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def test_batch_shape_accounting():
    rng = np.random.default_rng(1)
    groups = [FeatureGroup(x=rng.standard_normal((3, 4)))]
    targets = np.vstack([np.eye(2), np.eye(2)]).T
    cfg = PipelineConfig(node_count=1, subspace_dim=2, classifier_nodes=2, seed=0)
    model = fit(groups, targets, cfg)
    assert len(model.extractors) == 1
    assert model.extractors[0][0].weights.shape == (2, 3)
    assert scores(model, groups).shape == (2, 4)


def test_batch_training_scores_reconstruct_targets():
    groups, targets, _ = toy_blobs()
    cfg = small_cfg()
    model = fit(groups, targets, cfg)
    feats = [
        project(node, g.x)
        for nodes, g in zip(model.extractors, groups)
        for node in nodes
    ]
    combined = combine(feats, model.combine_spec)
    e = targets
    gram_inv = ridge_inverse(combined @ combined.T, cfg.coeff)
    for _ in range(len(model.readout.step)):
        _, e = fit_node(combined, e, gram_inv, cfg.norm_eps)
    assert np.allclose(scores(model, groups) + e, targets, atol=1e-9)


def test_batch_separable_toy_reaches_full_accuracy():
    groups, targets, labels = toy_blobs(per_class=30)
    model = fit(groups, targets, small_cfg())
    assert np.array_equal(predict(model, groups), labels)
    report = evaluate(model, groups, targets)
    assert report.mean_per_class_rate == 1.0
    assert report.accuracy == 1.0


def test_multi_group_fit_and_predict():
    rng = np.random.default_rng(8)
    groups, targets, labels = toy_blobs(per_class=25, seed=3)
    extra = FeatureGroup(x=groups[0].x[:3] + 0.01 * rng.standard_normal((3, 75)), name="b")
    both = [groups[0], extra]
    model = fit(both, targets, small_cfg(operator="concat"))
    assert len(model.extractors) == 2
    assert np.mean(predict(model, both) == labels) > 0.9


def test_lone_group_equivalent_to_singleton_list():
    groups, targets, _ = toy_blobs()
    lone = fit(groups[0], targets, small_cfg())
    listed = fit(groups, targets, small_cfg())
    assert np.array_equal(predict(lone, groups[0]), predict(listed, groups))
    assert np.array_equal(scores(lone, groups[0]), scores(listed, groups))


def test_fit_is_deterministic():
    groups, targets, _ = toy_blobs()
    m1 = fit(groups, targets, small_cfg())
    m2 = fit(groups, targets, small_cfg())
    for n1, n2 in zip(m1.extractors[0], m2.extractors[0]):
        assert np.array_equal(n1.weights, n2.weights)
    assert np.array_equal(m1.readout.weights, m2.readout.weights)
    assert np.array_equal(m1.readout.step, m2.readout.step)


# The package re-exports the function combine under the submodule's name.
combine_module = importlib.import_module("hoselm.combine")

# Every entry point to a QR, SVD or pseudoinverse the package could reach,
# and the two functions that form a node's or the combined feature.
SPIED = {
    "qr": (scipy.linalg.qr, scipy.linalg.qr_multiply, np.linalg.qr, scipy.linalg.lapack.dgeqrt),
    "svd": (scipy.linalg.svd, np.linalg.svd),
    "pinv": (scipy.linalg.pinv, np.linalg.pinv),
    "combine": (combine_module.combine,),
    "project": (hoselm.extractor.project,),
}


@pytest.fixture
def spied(monkeypatch):
    """The shapes of the matrices each entry point in SPIED gets (the first
    matrix argument: LAPACK's dgeqrt takes its block size first), spied on
    under every name numpy, scipy.linalg or a hoselm module gives it."""
    seen = {kind: [] for kind in SPIED}
    hoselm_modules = [m for name, m in sys.modules.items() if name.startswith("hoselm")]
    for kind, fns in SPIED.items():
        for fn in fns:

            def spy(*args, _fn=fn, _kind=kind, **kwargs):
                seen[_kind].append(next(np.shape(a) for a in args if np.ndim(a) == 2))
                return _fn(*args, **kwargs)

            for module in (scipy.linalg, np.linalg, *hoselm_modules):
                for name, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("operator", ["plus", "concat"])
@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_a_fit_factors_its_boot_block_once(spied, mode, operator):
    """With more boot columns M than stacked inputs, ones and targets, a
    fit hands one M-row matrix to a QR, none to an SVD or a pinv, and
    neither projects a node nor combines features."""
    rng = np.random.default_rng(3)
    labels = np.tile(np.arange(4), 60)
    groups = [
        FeatureGroup(x=np.eye(n)[:, labels % n] + 0.3 * rng.standard_normal((n, 240)))
        for n in (4, 6, 8)
    ]
    cfg = small_cfg(mode=mode, operator=operator, chunk_size=100, subspace_dim=20)
    boot = 240 if mode == "batch" else 100
    assert boot > 4 + 6 + 8 + 1 + 4
    fit(groups, np.eye(4)[:, labels], cfg)
    assert Counter(boot in shape for shape in spied["qr"])[True] == 1
    assert not any(boot in shape for shape in spied["svd"] + spied["pinv"])
    assert spied["combine"] == spied["project"] == []


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_model_rejects_labels_of_another_class_count(mode):
    """A 3-class model given two class labels fails when it is built, not
    later when its file is read back."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode=mode))
    with pytest.raises(ValueError, match="2 class labels for a readout of 3 classes"):
        replace(model, class_labels=(0, 1))


def test_sequential_single_chunk_equals_boot_only():
    groups, targets, _ = toy_blobs()
    samples = targets.shape[1]
    m_none = fit(groups, targets, small_cfg(mode="sequential", chunk_size=None))
    m_full = fit(groups, targets, small_cfg(mode="sequential", chunk_size=samples))
    assert np.array_equal(m_none.readout.beta, m_full.readout.beta)
    assert m_none.readout.seen == m_full.readout.seen == samples


def test_sequential_matches_training_labels():
    groups, targets, labels = toy_blobs(per_class=40, seed=9)
    model = fit(groups, targets, small_cfg(mode="sequential", chunk_size=30))
    assert np.mean(predict(model, groups) == labels) > 0.95


def test_sequential_boot_needs_every_class():
    """The boot grows by whole chunks until its targets hold every class;
    only targets that lack a class altogether raise."""
    groups, targets, labels = toy_blobs(per_class=10, seed=2)
    order = np.argsort(labels, kind="stable")
    x = groups[0].x[:, order]
    sorted_targets = targets[:, order]
    cfg = small_cfg(mode="sequential", chunk_size=5)
    # Class 2 first appears in column 20, so the boot takes five chunks.
    model = fit([FeatureGroup(x=x)], sorted_targets, cfg)
    boot = fit([FeatureGroup(x=x[:, :25])], sorted_targets[:, :25], cfg)
    assert model.readout.seen == 30
    assert boot.readout.seen == 25
    assert all(
        np.array_equal(a.weights, b.weights)
        for a, b in zip(model.extractors[0], boot.extractors[0])
    )
    with pytest.raises(ValueError, match=r"classes \[2\] are absent"):
        fit([FeatureGroup(x=x[:, :20])], sorted_targets[:, :20], cfg)


def test_sequential_fit_boots_on_the_first_chunks_that_hold_every_class():
    """The first 20-column chunk of this stream lacks classes 1 and 7
    (class 7 first appears in column 23), so fit boots on 40 columns and
    then takes 20-column chunks: it equals a boot fit on the first 40
    columns followed by partial_fit on 20-column chunks, bit for bit."""
    group, labels = synth_blobs(10, 50, 16, 0.3, 1)
    targets = one_hot(labels, 10)
    assert not targets[[1, 7], :20].any() and targets[7, 23] == 1
    cfg = PipelineConfig(mode="sequential", chunk_size=20, subspace_dim=20)

    model = fit(group, targets, cfg)

    by_hand = fit([FeatureGroup(x=group.x[:, :40])], targets[:, :40], cfg)
    for lo in range(40, labels.size, 20):
        chunk = [FeatureGroup(x=group.x[:, lo : lo + 20])]
        by_hand = partial_fit(by_hand, chunk, targets[:, lo : lo + 20])
    assert model.readout.seen == by_hand.readout.seen == labels.size
    got, want = _model_arrays(model), _model_arrays(by_hand)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _model_arrays(model):
    arrays = [a for nodes in model.extractors for n in nodes for a in (n.weights, n.bias)]
    return arrays + [model.readout.p, model.readout.beta, model.readout.seen]


@pytest.mark.parametrize("operator", ["plus", "concat"])
@pytest.mark.parametrize("chunk", [1, 7, 44, 45, 50])  # 45 samples
def test_sequential_fit_is_boot_then_partial_fit(operator, chunk):
    """fit in sequential mode is a boot fit on the first chunk followed by
    partial_fit over the rest, the last chunk possibly short, bit for bit."""
    rng = np.random.default_rng(4)
    groups, targets, _ = toy_blobs(per_class=15, seed=4)
    wide = FeatureGroup(x=rng.standard_normal((4, 45)), name="wide")
    groups = [groups[0], wide]
    # Soft targets are nonzero everywhere, so any boot chunk holds every class.
    targets = targets + 0.1 * rng.uniform(0.1, 1.0, targets.shape)
    samples = targets.shape[1]
    assert samples == 45
    cfg = small_cfg(mode="sequential", operator=operator, chunk_size=chunk)

    model = fit(groups, targets, cfg)

    head = [FeatureGroup(x=g.x[:, :chunk], name=g.name) for g in groups]
    by_hand = fit(head, targets[:, :chunk], cfg)
    for lo in range(chunk, samples, chunk):
        part = [FeatureGroup(x=g.x[:, lo : lo + chunk]) for g in groups]
        by_hand = partial_fit(by_hand, part, targets[:, lo : lo + chunk])
    assert model.readout.seen == samples
    got, want = _model_arrays(model), _model_arrays(by_hand)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_partial_fit_matches_concatenated_chunk():
    groups, targets, _ = toy_blobs(per_class=30, seed=4)
    x = groups[0].x
    boot = [FeatureGroup(x=x[:, :45])]
    model = fit(boot, targets[:, :45], small_cfg(mode="sequential"))
    one = partial_fit(model, [FeatureGroup(x=x[:, 45:90])], targets[:, 45:90])
    two = partial_fit(
        partial_fit(model, [FeatureGroup(x=x[:, 45:70])], targets[:, 45:70]),
        [FeatureGroup(x=x[:, 70:90])],
        targets[:, 70:90],
    )
    rel = np.linalg.norm(one.readout.beta - two.readout.beta) / np.linalg.norm(
        one.readout.beta
    )
    assert rel < 1e-6
    assert one.readout.seen == two.readout.seen == 90


# What a stream step's readout can break, and what the error names.
READOUT_BREAKS = {
    "another kind": (lambda r: r.p, "OselmState"),
    "another coeff": (lambda r: replace(r, coeff=2 * r.coeff), "coeff"),
    "another class count": (lambda r: replace(r, beta=r.beta[:, 1:]), "class labels"),
}


@pytest.mark.parametrize("case", sorted(READOUT_BREAKS))
def test_partial_fit_rechecks_the_readout_it_advanced(monkeypatch, case):
    """partial_fit's child re-checks its readout as HOselmModel would."""
    edit, match = READOUT_BREAKS[case]
    groups, targets, _ = toy_blobs(seed=3)
    model = fit(groups, targets, small_cfg(mode="sequential", chunk_size=20))
    update = hoselm.pipeline.os_update
    monkeypatch.setattr(hoselm.pipeline, "os_update", lambda *args: edit(update(*args)))
    with pytest.raises(ValueError, match=match):
        partial_fit(model, groups, targets)


def test_partial_fit_shares_the_maps_only_while_the_basis_is_the_parents(monkeypatch):
    groups, targets, _ = toy_blobs(seed=3)
    model = fit(groups, targets, small_cfg(mode="sequential", chunk_size=20))
    child = partial_fit(model, groups, targets)
    assert child.maps is model.maps and child.group_names is model.group_names
    update = hoselm.pipeline.os_update

    def with_copied_basis(state, y, chunk_targets):
        new = update(state, y, chunk_targets)
        return replace(new, basis=new.basis.copy())

    monkeypatch.setattr(hoselm.pipeline, "os_update", with_copied_basis)
    child = partial_fit(model, groups, targets)
    assert child.maps is not model.maps
    assert all(map(np.array_equal, child.maps.weights, model.maps.weights))


def test_partial_fit_zero_innovation_keeps_beta():
    groups, targets, _ = toy_blobs(seed=6)
    model = fit(groups, targets, small_cfg(mode="sequential"))
    chunk = [FeatureGroup(x=groups[0].x[:, :10])]
    fitted_targets = scores(model, chunk)
    updated = partial_fit(model, chunk, fitted_targets)
    assert np.allclose(updated.readout.beta, model.readout.beta, atol=1e-8)


def test_partial_fit_freezes_extractors_and_dims():
    groups, targets, _ = toy_blobs(seed=7)
    model = fit(groups, targets, small_cfg(mode="sequential"))
    before = [n.weights.copy() for n in model.extractors[0]]
    updated = partial_fit(model, groups, targets)
    assert updated.extractors is model.extractors
    for w, n in zip(before, updated.extractors[0]):
        assert np.array_equal(w, n.weights)
    assert updated.readout.beta.shape == model.readout.beta.shape


def test_partial_fit_rejects_batch_model():
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    with pytest.raises(ModeError):
        partial_fit(model, groups, targets)


def test_predict_single_sample_matches_batch_column():
    groups, targets, _ = toy_blobs(seed=12)
    model = fit(groups, targets, small_cfg())
    full = predict(model, groups)
    for j in (0, 7, 59):
        single = [FeatureGroup(x=groups[0].x[:, j : j + 1])]
        assert predict(model, single)[0] == full[j]


def test_layout_mismatch_rejected():
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    with pytest.raises(ShapeError):
        predict(model, [FeatureGroup(x=np.ones((4, 3)))])
    with pytest.raises(ShapeError):
        predict(model, groups + groups)
    with pytest.raises(ShapeError):
        fit(groups, targets[:, :-1], small_cfg())


def test_metrics_hand_example():
    true_labels = [0, 0, 1, 1]
    predicted = [0, 0, 1, 0]
    confusion, recalls, mean_rate, accuracy, absent = classification_metrics(
        true_labels, predicted, 2
    )
    assert np.array_equal(confusion, [[2, 0], [1, 1]])
    assert recalls == (1.0, 0.5)
    assert mean_rate == 0.75
    assert accuracy == 0.75
    assert absent == ()


def test_metrics_absent_class_excluded_and_flagged():
    confusion, recalls, mean_rate, _, absent = classification_metrics(
        [0, 0, 2, 2], [0, 0, 2, 2], 3
    )
    assert recalls[1] is None
    assert mean_rate == 1.0
    assert absent == (1,)
    assert confusion[1].sum() == 0


def test_metrics_reject_labels_outside_the_classes():
    # -1 used to wrap into the last class, and class_count hit an IndexError.
    with pytest.raises(ValueError, match=r"true labels span \[-1, 1\], outside \[0, 3\)"):
        classification_metrics([0, -1, 1], [0, 1, 1], 3)
    with pytest.raises(ValueError, match=r"predicted labels span \[0, 3\], outside \[0, 3\)"):
        classification_metrics([0, 2, 1], [0, 3, 1], 3)
    assert classification_metrics([], [], 3)[3] == 0.0


def test_metrics_match_counting_oracle():
    rng = np.random.default_rng(44)
    classes = 5
    true_labels = rng.integers(0, classes, size=300)
    predicted = rng.integers(0, classes, size=300)
    confusion, recalls, mean_rate, accuracy, _ = classification_metrics(
        true_labels, predicted, classes
    )
    for i in range(classes):
        for j in range(classes):
            want = int(np.sum((true_labels == i) & (predicted == j)))
            assert confusion[i, j] == want
    per_class = [
        np.mean(predicted[true_labels == k] == k)
        for k in range(classes)
        if np.any(true_labels == k)
    ]
    assert mean_rate == pytest.approx(np.mean(per_class), abs=1e-12)
    assert accuracy == pytest.approx(np.mean(true_labels == predicted), abs=1e-12)


def test_evaluate_reports_timing_fields():
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    report = evaluate(model, groups, targets)
    assert report.infer_seconds >= 0
    # Training time is the caller's to measure; the always-zero field is gone.
    assert not hasattr(report, "train_seconds")
    assert report.confusion.sum() == targets.shape[1]


@pytest.mark.parametrize("class_count", [2, 5])
def test_evaluate_rejects_targets_of_another_class_count(class_count):
    """Targets with fewer or more rows than the model has classes would
    score against the wrong classes: ShapeError, not a rate."""
    group, labels = synth_blobs(3, 30, 8, 0.2, 1)
    model = fit([group], one_hot(labels, 3), PipelineConfig(subspace_dim=6))
    targets = one_hot(np.minimum(labels, class_count - 1), class_count)
    with pytest.raises(ShapeError, match="rows"):
        evaluate(model, [group], targets)


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_model_round_trips_through_file(tmp_path, mode):
    groups, targets, _ = toy_blobs(seed=15)
    model = fit(groups, targets, small_cfg(mode=mode, chunk_size=20))
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.group_names == model.group_names
    assert np.array_equal(predict(loaded, groups), predict(model, groups))
    assert np.allclose(scores(loaded, groups), scores(model, groups), atol=0)
    if mode == "sequential":
        cont_a = partial_fit(model, groups, targets)
        cont_b = partial_fit(loaded, groups, targets)
        assert np.array_equal(cont_a.readout.beta, cont_b.readout.beta)


def test_saved_header_holds_the_full_config(tmp_path):
    groups, targets, _ = toy_blobs(seed=6)
    cfg = PipelineConfig(
        node_count=2,
        subspace_dim=7,
        damping=0.25,
        gamma=0.5,
        operator="concat",
        coeff=3.0,
        classifier_nodes=4,
        mode="sequential",
        chunk_size=30,
        seed=11,
        norm_eps=1e-3,
    )
    path = tmp_path / "model.npz"
    save_model(fit(groups, targets, cfg), path)
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
    assert header["config"] == {
        "node_count": 2,
        "subspace_dim": 7,
        "damping": 0.25,
        "gamma": 0.5,
        "operator": "concat",
        "coeff": 3.0,
        "classifier_nodes": 4,
        "mode": "sequential",
        "chunk_size": 30,
        "seed": 11,
        "norm_eps": 1e-3,
    }


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_saved_model_stores_each_fact_once(tmp_path, mode):
    """Format v5 keeps no copy of what the config or the array shapes fix:
    the classifier's normalization rows hold lo and hi, not norm_eps."""
    groups, targets, _ = toy_blobs(seed=6)
    path = tmp_path / "model.npz"
    save_model(fit(groups, targets, small_cfg(mode=mode, chunk_size=20)), path)
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
        files = set(data.files)
        norms = data.get("classifier_norm_in")
    assert header["format_version"] == 6
    assert set(header) == {"format_version", "config", "group_names", "class_labels", "readout"}
    assert header["readout"] == ({"node_count": 6} if mode == "batch" else {"seen": 60})
    assert "classifier_norm_out" not in files
    assert ("classifier_norm_in" in files) == (mode == "batch")
    if mode == "batch":
        assert norms.shape == (6, 2)


def _two_group_model_file(tmp_path, mode):
    groups, targets, _ = toy_blobs(seed=7)
    rng = np.random.default_rng(7)
    wide = FeatureGroup(x=np.vstack([groups[0].x, rng.standard_normal((2, 60))]), name="wide")
    path = tmp_path / "model.npz"
    save_model(fit([groups[0], wide], targets, small_cfg(mode=mode, operator="concat")), path)
    with np.load(path) as data:
        return path, {name: data[name] for name in data.files}


def _drop(name):
    def edit(arrays):
        del arrays[name]

    return edit


def _set(name, change):
    def edit(arrays):
        arrays[name] = change(arrays[name])

    return edit


def _poison(a, value=np.nan):
    a = a.copy()
    a.flat[0] = value
    return a


def _nudge_corner(a):
    """a with its top-right entry moved up by one ulp."""
    a = a.copy()
    a[0, -1] = np.nextafter(a[0, -1], np.inf)
    return a


def _header_edit(change):
    def edit(arrays):
        header = json.loads(str(arrays["header"]))
        change(header)
        arrays["header"] = np.array(json.dumps(header))

    return edit


CORRUPTIONS = {
    "missing classifier array": ("batch", _drop("classifier_steps"), "classifier_steps"),
    "missing extractor array": ("sequential", _drop("extractor_1_biases"), "extractor_1_biases"),
    "missing header": ("batch", _drop("header"), "header"),
    "classifier stack shorter than node_count": (
        "batch",
        _set("classifier_weights", lambda a: a[:-1]),
        "classifier_weights",
    ),
    "extractor of the wrong width in group 1": (
        "batch",
        _set("extractor_1_weights", lambda a: a[:, :-1, :]),
        "extractor_1_weights",
    ),
    "extractor flattened to 2-D": (
        "sequential",
        _set("extractor_1_weights", lambda a: a.reshape(-1, a.shape[-1])),
        "extractor_1_weights",
    ),
    "extractor with an empty input axis": (
        "batch",
        _set("extractor_0_weights", lambda a: a[:, :, :0]),
        "extractor_0_weights",
    ),
    "readout of the wrong width": (
        "sequential",
        _set("readout_gamma", lambda a: a[1:]),
        "readout_gamma",
    ),
    "non-finite extractor bias": ("batch", _set("extractor_0_biases", _poison), "finite"),
    "non-finite accumulator": ("sequential", _set("readout_p", _poison), "finite"),
    "future format version": (
        "batch",
        _header_edit(lambda h: h.update(format_version=7)),
        "version",
    ),
    **{
        f"retired format version {v}": (
            mode,
            _header_edit(lambda h, v=v: h.update(format_version=v)),
            f"unsupported model format version: {v}",
        )
        for v, mode in ((1, "batch"), (2, "sequential"), (3, "batch"), (4, "sequential"))
    },
    "format version true": (
        "sequential",
        _header_edit(lambda h: h.update(format_version=True)),
        "version",
    ),
    "repeated class label": (
        "sequential",
        _header_edit(lambda h: h.update(class_labels=[0, 2, 2])),
        "class_labels",
    ),
    "float class label": (
        "batch",
        _header_edit(lambda h: h.update(class_labels=[0, 1.0, 2])),
        "class_labels",
    ),
    "more classifier nodes than the config allows": (
        "batch",
        _header_edit(lambda h: h["config"].update(classifier_nodes=5)),
        "classifier_nodes",
    ),
    "config with an unknown key": (
        "batch",
        _header_edit(lambda h: h["config"].update(layers=4)),
        "malformed",
    ),
    "extra group name": (
        "batch",
        _header_edit(lambda h: h["group_names"].append("ghost")),
        "extractor_2_weights",
    ),
    "readout kind of the other mode": (
        "batch",
        _header_edit(lambda h: h["readout"].update(kind="sequential")),
        "kind",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_load_model_rejects_files_that_disagree_with_their_header(tmp_path, case):
    mode, edit, match = CORRUPTIONS[case]
    path, arrays = _two_group_model_file(tmp_path, mode)
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(FormatError, match=match):
        load_model(path)


# Models that build but break a rule on values that load_model holds a
# file to: the readout edit and what the error names.
SAVE_VIOLATIONS = {
    "classifier lo above hi": ("batch", lambda r: replace(r, lo=r.hi + 1.0), "lo <= hi"),
    "NaN classifier step": ("batch", lambda r: replace(r, step=_poison(r.step)), "steps"),
    "NaN sequential beta": (
        "sequential",
        lambda r: replace(r, beta=_poison(r.beta)),
        "'readout_gamma' is not all finite",
    ),
    "infinite P": ("sequential", lambda r: replace(r, p=_poison(r.p, np.inf)), "readout_p"),
    "P off symmetric by an ulp": (
        "sequential",
        lambda r: replace(r, p=_nudge_corner(r.p)),
        "'readout_p' is not exactly symmetric",
    ),
}


@pytest.mark.parametrize("case", sorted(SAVE_VIOLATIONS))
def test_save_model_rejects_values_load_model_would_reject(tmp_path, case):
    """save_model checks the rules on values before it opens the file: a
    ValueError, not a FormatError, and nothing written."""
    mode, edit, match = SAVE_VIOLATIONS[case]
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode=mode, chunk_size=20))
    odd = replace(model, readout=edit(model.readout))
    path = tmp_path / "model.npz"
    with pytest.raises(ValueError, match=match) as raised:
        save_model(odd, path)
    assert raised.type is ValueError
    assert not path.exists()


def test_load_model_rejects_files_that_are_not_archives(tmp_path):
    path = tmp_path / "model.npz"
    path.write_bytes(b"not a zip archive")
    with pytest.raises(FormatError):
        load_model(path)
    np.save(path, np.ones(3))
    with pytest.raises(FormatError, match="NPZ"):
        load_model(tmp_path / "model.npz.npy")


def test_config_validation():
    # node_count and subspace_dim are bounded by extractor_config, which
    # construction runs; classifier_nodes by the pipeline itself.
    for name in ("node_count", "subspace_dim", "classifier_nodes"):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: 0})
    with pytest.raises(ValueError):
        PipelineConfig(coeff=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(mode="stream")
    with pytest.raises(ValueError):
        PipelineConfig(chunk_size=0)
    with pytest.raises(ValueError):
        PipelineConfig(norm_eps=0.0)
    # Values that used to pass here and then fail inside fit, or give a
    # model that cannot be loaded back.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="coeff"):
            PipelineConfig(coeff=bad)
    for bad in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="damping"):
            PipelineConfig(damping=bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            PipelineConfig(gamma=bad)
    for bad in (0.5, 0.6, 0.99, 1.0, np.nan):
        with pytest.raises(ValueError, match="norm_eps"):
            PipelineConfig(norm_eps=bad)
    with pytest.raises(ValueError, match="operator"):
        PipelineConfig(operator="times")
    PipelineConfig(coeff=1e-12, damping=0.0, gamma=-2.0, norm_eps=0.49)


def _fit_classifier(node_count):
    rng = np.random.default_rng(4)
    h = rng.standard_normal((5, 30))
    targets = one_hot(rng.integers(0, 3, 30), 3)
    return fit_classifier(h, targets, node_count, ridge_inverse(h @ h.T, 100.0))


def _load_csv(tmp_path, **kwargs):
    """load_csv on a 3-column file, labels last."""
    path = tmp_path / "data.csv"
    path.write_text("1,2,0\n3,4,1\n5,6,0\n")
    return load_csv(path, **kwargs)


def _site(callee, name, low, call):
    return pytest.param(name, low, call, id=f"{callee}-{name.replace(' ', '-')}")


# Every site that takes a count, a config seed or a column index, as
# (argument name, least value, call); call(value, tmp_path) passes value
# there and valid values everywhere else.
INTEGER_SITES = [
    *[
        _site("PipelineConfig", name, low, lambda v, _, name=name: PipelineConfig(**{name: v}))
        for name, low in [
            ("node_count", 1),
            ("subspace_dim", 1),
            ("classifier_nodes", 1),
            ("chunk_size", 1),
            ("seed", 0),
        ]
    ],
    _site("ExtractorConfig", "node_count", 1, lambda v, _: ExtractorConfig(v, 2)),
    _site("ExtractorConfig", "subspace_dim", 1, lambda v, _: ExtractorConfig(2, v)),
    _site("ExtractorConfig", "seed", 0, lambda v, _: ExtractorConfig(2, 2, seed=v)),
    _site("spawn_node", "input_dim", 1, lambda v, _: spawn_node(v, 2, seed=0)),
    _site("spawn_node", "subspace_dim", 1, lambda v, _: spawn_node(2, v, seed=0)),
    _site("init_hidden", "input_dim", 1, lambda v, _: init_hidden(v, 2, seed=0)),
    _site("init_hidden", "hidden_count", 1, lambda v, _: init_hidden(2, v, seed=0)),
    *[
        _site("RunConfig", name, low, lambda v, _, name=name: RunConfig(**{name: v}))
        for name, low in [
            ("repetitions", 1),
            ("synth_classes", 1),
            ("synth_per_class", 1),
            ("synth_dim", 1),
            ("seed", 0),
        ]
    ],
    _site("fit_classifier", "node_count", 1, lambda v, _: _fit_classifier(v)),
    _site("synth_blobs", "classes", 1, lambda v, _: synth_blobs(v, 2, 3, 0.1, seed=1)),
    _site("synth_blobs", "per_class", 1, lambda v, _: synth_blobs(2, v, 3, 0.1, seed=1)),
    _site("synth_blobs", "dim", 1, lambda v, _: synth_blobs(1, 2, v, 0.1, seed=1)),
    _site("split", "train_size", 1, lambda v, _: split(*synth_blobs(2, 3, 2, 0.1, seed=1), v)),
    _site("load_csv", "label_col", -3, lambda v, tmp: _load_csv(tmp, label_col=v)),
    _site(
        "load_csv", "group_ranges start", 0, lambda v, tmp: _load_csv(tmp, group_ranges=[(v, 2)])
    ),
    _site(
        "load_csv", "group_ranges stop", 1, lambda v, tmp: _load_csv(tmp, group_ranges=[(0, v)])
    ),
]


def _leaves(result):
    """Every array, number and string in a result, in order."""
    if is_dataclass(result):
        return [x for f in fields(result) for x in _leaves(getattr(result, f.name))]
    if isinstance(result, (tuple, list)):
        return [x for item in result for x in _leaves(item)]
    return [result]


@pytest.mark.parametrize("name, low, call", INTEGER_SITES)
def test_every_count_seed_and_column_index_takes_integers_only(name, low, call, tmp_path):
    """A bool, a float (even an integral one), a string or a value below
    the bound raises ValueError naming the argument; a numpy integer is
    taken as the Python int it equals, and a config stores it as one."""
    for bad in (2.5, 3.0, True, np.float64(2.0), "3", low - 1):
        with pytest.raises(ValueError, match=name):
            call(bad, tmp_path)
    plain = _leaves(call(low, tmp_path))
    for kind in (np.int64, np.int32, np.int16):
        given = call(kind(low), tmp_path)
        assert len(_leaves(given)) == len(plain)
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(given), plain))
        if is_dataclass(given) and name in {f.name for f in fields(given)}:
            assert type(getattr(given, name)) is int


def test_a_numpy_integer_seed_saves_and_loads(tmp_path):
    """A numpy integer seed is stored as a Python int, so the JSON header
    takes it and the model reads back with the same config."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(seed=np.int64(3)))
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config and loaded.config.seed == 3
    assert np.array_equal(predict(loaded, groups), predict(model, groups))


@pytest.mark.parametrize("order", ["C", "F"])
def test_affine_maps_accumulate_groups_in_place(order):
    """_apply adds every group after the first into its r x M output: its
    tracemalloc peak stays under 1.5 times the output, where one r x M
    temporary per group would reach 2 times, and the result is
    sum_g w_g @ m_g + offset within 1e-12."""
    rng = np.random.default_rng(3)
    rows, samples, widths = 40, 3000, (5, 7, 9)
    weights = tuple(rng.standard_normal((rows, n)) for n in widths)
    mats = [np.asarray(rng.standard_normal((n, samples)), order=order) for n in widths]
    offset = rng.standard_normal((rows, 1))
    tracemalloc.start()
    try:
        out = hoselm.pipeline._apply(weights, offset, mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes
    want = sum(w @ m for w, m in zip(weights, mats)) + offset
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


def test_save_model_rejects_a_classifier_eps_the_config_does_not_hold(tmp_path):
    """Format v5 keeps config.norm_eps in place of the classifier's eps, so a
    model whose two differ cannot be saved without changing its scores: it
    cannot be built at all."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    with pytest.raises(ValueError, match="norm_eps"):
        odd = replace(model, readout=replace(model.readout, eps=2 * model.config.norm_eps))
        save_model(odd, tmp_path / "model.npz")


@pytest.mark.parametrize("labels", [(0, 0, 1), (0.0, 1.0, 2.0), (0, True, 2), ()])
def test_model_rejects_labels_that_are_not_distinct_integers(labels):
    """Repeated, float or bool labels saved once but did not load back; a
    model with them cannot be built."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    with pytest.raises(ValueError, match="class_labels must list distinct integers"):
        replace(model, class_labels=labels)


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_numpy_integer_labels_are_stored_as_ints_and_round_trip(tmp_path, mode):
    """Labels from np.unique are numpy integers, which the JSON header could
    not hold; the model keeps them as Python ints."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode=mode))
    model = replace(model, class_labels=tuple(np.unique([7, 2, 5])))
    assert model.class_labels == (2, 5, 7)
    assert all(type(v) is int for v in model.class_labels)
    path = tmp_path / "model.npz"
    save_model(model, path)
    assert load_model(path).class_labels == (2, 5, 7)


def test_model_rejects_a_group_name_per_missing_group():
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    with pytest.raises(ValueError, match="group_names"):
        replace(model, group_names=("toy", "ghost"))
    with pytest.raises(ValueError, match="group_names"):
        replace(model, group_names=(3,))


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_model_rejects_a_node_count_the_extractors_do_not_have(mode):
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode=mode))
    with pytest.raises(ValueError, match="config.node_count"):
        replace(model, config=replace(model.config, node_count=3))
    with pytest.raises(ValueError, match="config.subspace_dim"):
        replace(model, config=replace(model.config, subspace_dim=11))


def test_model_rejects_more_classifier_nodes_than_the_config_allows():
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg())
    assert len(model.readout.step) == 6
    with pytest.raises(ValueError, match="config.classifier_nodes allows 5"):
        replace(model, config=replace(model.config, classifier_nodes=5))


@pytest.mark.parametrize("mode, other", [("batch", "sequential"), ("sequential", "batch")])
def test_model_rejects_a_readout_of_the_other_mode(mode, other):
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode=mode))
    with pytest.raises(ValueError, match=f"a {other} model needs"):
        replace(model, config=replace(model.config, mode=other))


def test_model_rejects_a_sequential_readout_coeff_the_config_does_not_hold(tmp_path):
    """The coeff rule is checked on every build, replace included.
    Unchecked, this model saved coeff 5.0 and loaded back with
    config.coeff."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode="sequential", chunk_size=20))
    with pytest.raises(ValueError, match="config.coeff"):
        replace(model, readout=replace(model.readout, coeff=5.0))
    with pytest.raises(ValueError, match="config.coeff"):
        replace(model, config=replace(model.config, coeff=5.0))
    save_model(model, tmp_path / "m.npz")
    assert load_model(tmp_path / "m.npz").readout.coeff == model.config.coeff


def test_partial_fit_checks_only_the_labels(monkeypatch):
    """A partial_fit step shares the maps, so it skips the rules on
    extractors, config and readout, which only change with them."""
    groups, targets, _ = toy_blobs()
    model = fit(groups, targets, small_cfg(mode="sequential", chunk_size=20))
    checked = []
    check_layers = hoselm.pipeline._check_layers
    monkeypatch.setattr(
        hoselm.pipeline, "_check_layers", lambda *a: checked.append(a) or check_layers(*a)
    )
    stepped = partial_fit(model, groups, targets)
    assert stepped.maps is model.maps and checked == []
    replace(stepped, config=replace(stepped.config, chunk_size=10))
    assert len(checked) == 1
